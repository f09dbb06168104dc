(* Typed stall/overload detectors over the windowed rollups.

   Each rule has a stable code (wire-compatible across versions, like
   the sanitizer's report rules) and reads only window deltas plus the
   per-tick gauge samples the monitor collects — no rule touches live
   kernel state, so checks are safe to run from the span close path.

   Rules:
   - cpu-silent: a CPU that beat earlier in the horizon has a zero
     `sched/heartbeat/<cpu>` delta for the last [silent_windows]
     windows while other CPUs kept beating — it stopped scheduling.
   - lock-spike: the latest window's summed `smp/lock_wait/<cpu>`
     delta exceeds [spike_factor] times the trailing-window average
     (and an absolute floor) — contention collapse.
   - runq-growth: the sampled run-queue depth is non-decreasing across
     the last [growth_windows] ticks and grew by at least
     [growth_min] — the backlog is diverging (overload).
   - ring-drop: the flight recorder's lifetime drop count advanced
     inside a window — trace loss under pressure. *)

type rule = Cpu_silent of int | Lock_spike | Runq_growth | Ring_drop

let rule_code = function Cpu_silent _ -> 1 | Lock_spike -> 2 | Runq_growth -> 3 | Ring_drop -> 4

let rule_name = function
  | Cpu_silent _ -> "cpu-silent"
  | Lock_spike -> "lock-spike"
  | Runq_growth -> "runq-growth"
  | Ring_drop -> "ring-drop"

let rule_aux = function Cpu_silent cpu -> cpu | Lock_spike | Runq_growth | Ring_drop -> 0

type report = { wrule : rule; wseq : int; detail : string }

let report_key r = (rule_code r.wrule, rule_aux r.wrule, r.wseq)

type config = {
  silent_windows : int;
  spike_factor : float;
  spike_min : int;
  growth_windows : int;
  growth_min : int;
}

let default_config =
  { silent_windows = 2; spike_factor = 8.; spike_min = 10_000; growth_windows = 4; growth_min = 8 }

type sample = { sseq : int; depth : int; drops : int }

(* The newest [cap] gauge samples in three parallel int rings, so
   recording one is three stores. *)
type gauges = { gseq : int array; gdepth : int array; gdrops : int array; mutable gn : int }

let gauges cap =
  if cap <= 0 then invalid_arg "Watchdog.gauges: capacity must be positive";
  { gseq = Array.make cap 0; gdepth = Array.make cap 0; gdrops = Array.make cap 0; gn = 0 }

let record g ~seq ~depth ~drops =
  let i = g.gn mod Array.length g.gseq in
  g.gseq.(i) <- seq;
  g.gdepth.(i) <- depth;
  g.gdrops.(i) <- drops;
  g.gn <- g.gn + 1

let held g = min g.gn (Array.length g.gseq)

(* Ring index of the [k]-th newest sample (0 = newest). *)
let nth_newest g k = (g.gn - 1 - k) mod Array.length g.gseq

let samples g =
  List.init (held g) (fun j ->
      let i = nth_newest g (held g - 1 - j) in
      { sseq = g.gseq.(i); depth = g.gdepth.(i); drops = g.gdrops.(i) })

let heartbeat_prefix = "sched/heartbeat/"
let lock_wait_prefix = "smp/lock_wait/"

(* The counter slots the rules read, resolved from their names once
   per registry growth: per heartbeat CPU (ascending) its
   [sched/heartbeat/<cpu>] slots, and every [smp/lock_wait/*] slot.
   Registrations never drop, so a resolution stays valid until the
   counter count moves. *)
type slots = {
  mutable upto : int;
  mutable cpus : int array;
  mutable beat_slots : int array array;
  mutable lock_slots : int array;
}

let slots = { upto = 0; cpus = [||]; beat_slots = [||]; lock_slots = [||] }

let suffix prefix name =
  let lp = String.length prefix in
  if String.length name > lp && String.starts_with ~prefix name then
    Some (String.sub name lp (String.length name - lp))
  else None

let resolve () =
  let n = Metrics.counter_count () in
  if n <> slots.upto then begin
    let beats = Hashtbl.create 8 and locks = ref [] in
    for s = n - 1 downto 0 do
      let name = Metrics.Counter.name (Metrics.counter_at s) in
      (match Option.bind (suffix heartbeat_prefix name) int_of_string_opt with
       | Some cpu ->
         let known = Option.value ~default:[] (Hashtbl.find_opt beats cpu) in
         Hashtbl.replace beats cpu (s :: known)
       | None -> ());
      if suffix lock_wait_prefix name <> None then locks := s :: !locks
    done;
    let cpus = Hashtbl.fold (fun c _ acc -> c :: acc) beats [] |> List.sort compare in
    slots.cpus <- Array.of_list cpus;
    slots.beat_slots <-
      Array.of_list (List.map (fun c -> Array.of_list (Hashtbl.find beats c)) cpus);
    slots.lock_slots <- Array.of_list !locks;
    slots.upto <- n
  end

(* The rules below are top-level recursions over the ring and the
   resolved slots: no closure, list or table is built per tick, so a
   quiet sweep allocates nothing. *)
let rec sum_slots d ss j acc =
  if j >= Array.length ss then acc
  else sum_slots d ss (j + 1) (acc + Metrics.Snapshot.counter_at d ss.(j))

let beats_of (w : Timeseries.window) k =
  sum_slots w.Timeseries.delta slots.beat_slots.(k) 0 0

let lock_wait_of (w : Timeseries.window) = sum_slots w.Timeseries.delta slots.lock_slots 0 0

let rec beats_from w k acc =
  if k >= Array.length slots.cpus then acc else beats_from w (k + 1) (acc + beats_of w k)

let heartbeats w =
  resolve ();
  beats_from w 0 0

(* Did CPU [k] beat in any of the windows [recent lo .. recent hi]? *)
let rec beat_between series k lo hi =
  lo <= hi
  && (beats_of (Timeseries.recent series lo) k > 0 || beat_between series k (lo + 1) hi)

let rec any_cpu_beat w k =
  k < Array.length slots.cpus && (beats_of w k > 0 || any_cpu_beat w (k + 1))

(* Every one of the windows [recent 0 .. recent hi] had some CPU beating. *)
let rec all_beat series r hi =
  r > hi || (any_cpu_beat (Timeseries.recent series r) 0 && all_beat series (r + 1) hi)

(* How far back any rule looks.  [check] reads only this many windows
   per sweep, which is what keeps the tick cost independent of the
   ring size. *)
let horizon cfg = max (cfg.silent_windows + 1) 8

(* A CPU that beat before the silent suffix [recent 0 .. recent
   (silent_windows - 1)] but not inside it.  The caller has checked
   that some CPU beat in every suffix window, necessarily another one. *)
let rec silent_cpus cfg series n k acc =
  if k >= Array.length slots.cpus then acc
  else begin
    let tail = cfg.silent_windows - 1 in
    let acc =
      if beat_between series k (tail + 1) (n - 1) && not (beat_between series k 0 tail) then
        {
          wrule = Cpu_silent slots.cpus.(k);
          wseq = (Timeseries.recent series 0).Timeseries.seq;
          detail =
            Printf.sprintf "cpu %d: no heartbeat for %d window(s) while others ran"
              slots.cpus.(k) cfg.silent_windows;
        }
        :: acc
      else acc
    in
    silent_cpus cfg series n (k + 1) acc
  end

let check_cpu_silent cfg series n acc =
  if n < cfg.silent_windows + 1 || not (all_beat series 0 (cfg.silent_windows - 1)) then acc
  else silent_cpus cfg series n 0 acc

let rec trailing_lock_wait series r n acc =
  if r >= n then acc
  else trailing_lock_wait series (r + 1) n (acc + lock_wait_of (Timeseries.recent series r))

let check_lock_spike cfg series n acc =
  if n < 2 then acc
  else begin
    let latest = Timeseries.recent series 0 in
    let cur = lock_wait_of latest in
    let trailing = trailing_lock_wait series 1 n 0 in
    if
      cur >= cfg.spike_min
      && float_of_int cur > cfg.spike_factor *. (float_of_int trailing /. float_of_int (n - 1))
    then
      {
        wrule = Lock_spike;
        wseq = latest.Timeseries.seq;
        detail =
          Printf.sprintf "lock wait %d cycles this window vs %.0f trailing average" cur
            (float_of_int trailing /. float_of_int (n - 1));
      }
      :: acc
    else acc
  end

(* The depths of the [k]-th newest .. newest samples never decrease. *)
let rec monotone g k =
  k <= 0
  || (g.gdepth.(nth_newest g k) <= g.gdepth.(nth_newest g (k - 1)) && monotone g (k - 1))

let check_runq_growth cfg g acc =
  if held g < cfg.growth_windows + 1 then acc
  else begin
    let first = nth_newest g cfg.growth_windows and last = nth_newest g 0 in
    if monotone g cfg.growth_windows && g.gdepth.(last) - g.gdepth.(first) >= cfg.growth_min
    then
      {
        wrule = Runq_growth;
        wseq = g.gseq.(last);
        detail =
          Printf.sprintf "run-queue depth grew %d -> %d over %d window(s)" g.gdepth.(first)
            g.gdepth.(last) cfg.growth_windows;
      }
      :: acc
    else acc
  end

(* Only the newest pair: [check] runs once per tick and each tick adds
   one sample, so consecutive sweeps cover every delta between them. *)
let check_ring_drop g acc =
  if held g < 2 then acc
  else begin
    let a = nth_newest g 1 and b = nth_newest g 0 in
    if g.gdrops.(b) > g.gdrops.(a) then
      {
        wrule = Ring_drop;
        wseq = g.gseq.(b);
        detail = Printf.sprintf "%d event(s) dropped in window" (g.gdrops.(b) - g.gdrops.(a));
      }
      :: acc
    else acc
  end

let by_key a b = compare (report_key a) (report_key b)

let check ~config series g =
  resolve ();
  let n = min (horizon config) (Timeseries.retained series) in
  let reports =
    []
    |> check_cpu_silent config series n
    |> check_lock_spike config series n
    |> check_runq_growth config g
    |> check_ring_drop g
  in
  (* [List.sort] builds its merge closures on every call. *)
  match reports with [] | [ _ ] -> reports | _ -> List.sort by_key reports

let pp_report ppf r =
  Format.fprintf ppf "%-12s window %d: %s" (rule_name r.wrule) r.wseq r.detail
