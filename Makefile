# Convenience targets over dune; `make check` is the pre-commit gate.

.PHONY: all build test test-san bench bench-tlb bench-ipc bench-span bench-dev \
	bench-verif bench-smp bench-slo bench-all check trace obs profile top san \
	monitor verify clean

all: build

build:
	dune build

test:
	dune runtest

# Tier-1 suite re-run with the sanitizer armed (shadow permission map
# checking every physical access); any violation fails the run.
test-san:
	SAN=1 dune runtest --force

bench:
	dune exec bench/main.exe -- all

# Software TLB/IOTLB: walk-vs-hit cost, IPC and ixgbe with caching on
# vs off, and the hot-vs-cold bit-identity replay.
bench-tlb:
	dune exec bench/main.exe -- tlb

# IPC ping-pong with the rendezvous fastpath on vs off: latency
# distribution, permission-map operations and allocation per
# rendezvous.  Writes BENCH_ipc.json.
bench-ipc:
	dune exec bench/main.exe -- ipc

# Span layer over the kv-store demo workload: tracing overhead in host
# time, cycle-model bit-identity, merged latency quantiles.  Writes
# BENCH_span.json.
bench-span:
	dune exec bench/main.exe -- span

# Device-model backend interchange and hostile-mode resilience: fault-free
# virtio-vs-ixgbe delivery identity, kv-store bit-identity across block and
# NIC backends, seeded hostile sweeps with bounded delivery loss and a clean
# driver lint.  Writes BENCH_dev.json.
bench-dev:
	dune exec bench/main.exe -- dev

# Incremental verification: full-suite discharge, one transition, then
# the dirty-set re-check against an oracle full re-discharge.  Writes
# BENCH_verif.json (verdict identity, re-check fraction, >= 5x speedup).
bench-verif:
	dune exec bench/main.exe -- verif

# Online SLO monitor over the kv workload: paired flight-vs-monitor
# overhead (<= 15 points over flight-only), zero drops with exact
# rollup accounting and cycle identity, streaming-vs-post-mortem
# quantile agreement, and exemplar coverage of every injected slow
# request.  Writes BENCH_slo.json.
bench-slo:
	dune exec bench/main.exe -- slo

# Broken-up big kernel lock: 1->8 CPU scaling curve on the kv IPC
# workload under both lock regimes, plus the big-vs-fine on/off oracle
# (bit-identical returns, scheduling decisions and abstract state).
# Writes BENCH_smp.json (oracle identity; >= 2.5x fine-grained 8-CPU
# speedup floor).
bench-smp:
	dune exec bench/main.exe -- smp

# Every benchmark that writes a BENCH_*.json artifact, then the merge:
# `bench report` folds them into BENCH_summary.json, reports deltas
# >= 5% against the previous summary, and enforces the hard floors
# (cycle identity, TLB load reduction, fastpath map-op reduction).
bench-all:
	dune exec bench/main.exe -- obs
	dune exec bench/main.exe -- san
	dune exec bench/main.exe -- tlb
	dune exec bench/main.exe -- ipc
	dune exec bench/main.exe -- span
	dune exec bench/main.exe -- dev
	dune exec bench/main.exe -- verif
	dune exec bench/main.exe -- smp
	dune exec bench/main.exe -- slo
	dune exec bench/main.exe -- report

# Every `atmo san --plant` case, in the CLI's order.  `check` and `san`
# both run the whole list.
SAN_PLANTS = double-free unlocked bad-pte stale-tlb fastpath-skip span-leak \
	lock-order queue-corrupt lost-steal undefined-state dma-escape irq-storm \
	lost-completion stalled-cpu

# Pre-commit gate: build, tier-1 tests (plain and with the sanitizer
# armed, so the TLB-coherence, scheduler and span-balance lints run
# over every suite), the fastpath on/off oracle, the four examples
# (each asserts its transitions' specs or total_wf), the headline IPC
# table, the sanitizer over the scripted workload + hostile device
# sweep (clean run must report zero violations), all fourteen
# SAN_PLANTS (each caught by its rule; the four driver plants and
# stalled-cpu by exactly their rule and nothing else), the
# big-lock/fine-grained scheduler oracle, the incremental verifier on two
# domains (dirty-set re-check bit-identical to a full oracle within the
# 20% budget; the stale-proof
# plant caught by exactly its rule), the profiler's request-path
# reconstruction over the kv-store demo, the trace CLI's per-kind
# --filter and --sample admission paths, the SLO monitor (a compliant
# run must exit 0), and the obs + span + device + verif + smp + slo +
# san benches + regression report (bit-identity and performance floors,
# the sanitizer's armed-vs-unarmed cycle identity re-measured rather
# than read from a committed BENCH_san.json,
# including the <= 100% traced kv overhead with zero drops and exact
# accounting, the >= 5x incremental speedup, the >= 2.5x fine-grained
# 8-CPU scaling and the <= 15-point monitor-over-flight delta with
# streaming/post-mortem quantile agreement and full exemplar coverage,
# over the BENCH_*.json set).
check:
	dune build && dune runtest && SAN=1 dune runtest --force \
	&& dune exec test/test_fastpath.exe \
	&& dune exec examples/quickstart.exe \
	&& dune exec examples/isolation_demo.exe \
	&& dune exec examples/shared_service.exe \
	&& dune exec examples/driver_pipeline.exe \
	&& dune exec bench/main.exe -- table3 \
	&& dune exec bin/atmo_cli.exe -- san \
	&& for p in $(SAN_PLANTS); do dune exec bin/atmo_cli.exe -- san --plant $$p || exit 1; done \
	&& dune exec bin/atmo_cli.exe -- monitor --workload kv --requests 64 \
	&& dune exec bin/atmo_cli.exe -- verify --incremental -j 2 \
	&& dune exec bin/atmo_cli.exe -- verify --plant stale-proof \
	&& dune exec bin/atmo_cli.exe -- profile --requests 8 \
	&& dune exec bin/atmo_cli.exe -- trace --workload kv --iterations 20 \
	     --slots 4096 --events 0 --filter syscall_enter,syscall_exit,span_begin,span_end \
	&& dune exec bin/atmo_cli.exe -- trace --workload kv --iterations 20 \
	     --slots 4096 --events 0 --sample 2 \
	&& dune exec bench/main.exe -- obs \
	&& dune exec bench/main.exe -- span \
	&& dune exec bench/main.exe -- dev \
	&& dune exec bench/main.exe -- verif \
	&& dune exec bench/main.exe -- smp \
	&& dune exec bench/main.exe -- slo \
	&& dune exec bench/main.exe -- san \
	&& dune exec bench/main.exe -- report

trace:
	dune exec bin/atmo_cli.exe -- trace

obs:
	dune exec bench/main.exe -- obs

# Post-mortem profiler and cycle-accounting tables over the kv-store
# demo workload.
profile:
	dune exec bin/atmo_cli.exe -- profile

top:
	dune exec bin/atmo_cli.exe -- top

# Full sanitizer demonstration: clean workload (including the seeded
# hostile device sweep), then the fourteen planted bugs, each of which
# must be detected with a typed report — the four driver plants by
# exactly their Driver_lint rule, the stalled-cpu plant by exactly the
# watchdog-silent rule.
san:
	dune exec bin/atmo_cli.exe -- san
	for p in $(SAN_PLANTS); do dune exec bin/atmo_cli.exe -- san --plant $$p || exit 1; done

# Online SLO monitor over the kv workload: windowed rollup table, SLO
# verdicts (the exit code is the compliance verdict), watchdog
# findings, and slow-request exemplars on breach.
monitor:
	dune exec bin/atmo_cli.exe -- monitor --workload kv --requests 64

# Obligation discharge via the CLI: the full suite, the incremental
# dirty-set re-check after one transition (verdicts must be
# bit-identical to the full oracle, within the 20% re-check budget),
# and the stale-proof plant (dropped dirty marks must be caught by
# exactly the stale-proof lint).
verify:
	dune exec bin/atmo_cli.exe -- verify
	dune exec bin/atmo_cli.exe -- verify --incremental
	dune exec bin/atmo_cli.exe -- verify --plant stale-proof

clean:
	dune clean
