#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload kv|kv-monitored|vm-churn|verify \
        --seed N --seconds S --trace 0|1

The program's report goes to standard output and ends with one JSON line
{correct, attempted, failed, metrics}.  The build's output goes to
standard error.  Exits non-zero, without a JSON line, when the build
fails, the run fails or its metrics differ from those BENCHMARK.json
declares; exits 1 after the JSON line when an output check fails.
"""

import json
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def dune():
    found = shutil.which("dune")
    return [found] if found else ["opam", "exec", "--", "dune"]


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            dune() + ["build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
            env=env,
        )
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return False
    return r.returncode == 0


def declared(trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main(argv):
    if not os.path.isfile("dune-project"):
        print("perfbench: run from the repository root (no dune-project here)", file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    try:
        proc = subprocess.run([EXE] + argv, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: no result line (exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 5
    trace = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    want = declared(trace)
    if list(result["metrics"]) != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print(f"perfbench: metrics {list(result['metrics'])} differ from BENCHMARK.json {want}",
              file=sys.stderr)
        return 6
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
