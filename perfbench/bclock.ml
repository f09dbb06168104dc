(* The benchmark's only clock: CLOCK_MONOTONIC in nanoseconds through
   bechamel's noalloc stub.  [Unix.gettimeofday] is neither monotonic
   nor fine enough to resolve a single IPC fastpath call. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* Smallest non-zero step between successive reads over [reads]
   samples; 0 if the clock never moved (it must). *)
let resolution_ns ?(reads = 10_000) () =
  let best = ref max_int in
  let prev = ref (now_ns ()) in
  for _ = 1 to reads do
    let t = now_ns () in
    let d = t - !prev in
    if d > 0 && d < !best then best := d;
    prev := t
  done;
  if !best = max_int then 0 else !best

(* True iff [reads] successive reads never decrease. *)
let monotone ?(reads = 100_000) () =
  let ok = ref true in
  let prev = ref (now_ns ()) in
  for _ = 1 to reads do
    let t = now_ns () in
    if t < !prev then ok := false;
    prev := t
  done;
  !ok
