(* The four workloads, untraced (end-to-end metrics) and traced
   (per-layer metrics).  Every workload is a closed loop with one
   client on one process; the program is only ever called through its
   public functions and timed from outside. *)

module Kernel = Atmo_core.Kernel
module Syscall = Atmo_spec.Syscall
module Catalog = Atmo_verif.Catalog
module Runner = Atmo_verif.Runner
module Obligation = Atmo_verif.Obligation
module Kv_demo = Atmo_workloads.Kv_demo

exception Check_failed of string

let now = Bclock.now_ns
let say fmt = Format.printf (fmt ^^ "@.")
let setup_reps = 15

(* What [atmo verify] uses by default. *)
let default_threads () = min 8 (Domain.recommended_domain_count ())

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

type outcome = {
  error : string option;  (** first failed output check *)
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let ok_or_raise = function Ok () -> () | Error e -> raise (Check_failed e)

(* On a shared host, memory-heavy code runs up to 1.5-2x slower for
   seconds to minutes while neighbours are busy, and that interference
   only ever adds time.  So a run is cut into windows of about 100 ms of
   work (one discharge for verify) and its time metrics come from its
   quiet windows: the 10th percentile of per-op time over windows, the
   90th of throughput.  Across 8 kv runs this spread 8% where the median
   over windows spread 37%. *)
let quiet = 0.1

type windows = {
  mutable op_ns : float list;  (** per-op latency figure of each untraced window *)
  mutable rate : float list;  (** ops per second of each untraced window *)
  mutable words : float list;  (** minor words per op of each untraced window *)
  mutable traced_rate : float list;  (** ops per second of each traced window *)
  mutable setup_ns : float list;  (** every set-up timed in the run *)
}

let windows () = { op_ns = []; rate = []; words = []; traced_rate = []; setup_ns = [] }

let record w ~traced ~op_ns ~rate ~words =
  if traced then w.traced_rate <- rate :: w.traced_rate
  else begin
    w.op_ns <- op_ns :: w.op_ns;
    w.rate <- rate :: w.rate;
    w.words <- words :: w.words
  end

let at q l = Stats.quantile (Array.of_list l) q

let e2e w =
  [
    ("setup_s", at quiet w.setup_ns /. 1e9);
    ("throughput_ops_s", at (1. -. quiet) w.rate);
    ("latency_p50_us", at quiet w.op_ns /. 1e3);
    ("alloc_words_per_op", Stats.of_list w.words);
    ("peak_heap_mb", peak_heap_mb ());
  ]

(* Tracing overhead: untraced over traced throughput, medians of the
   alternating windows. *)
let overhead_pct w =
  let t = Stats.of_list w.traced_rate in
  if t > 0. then 100. *. ((Stats.of_list w.rate /. t) -. 1.) else 0.

let print_windows w ~what =
  say "  latency_p50_us         %.3f us      (%s; p10 of %d windows, their median %.3f us)"
    (at quiet w.op_ns /. 1e3) what (List.length w.op_ns) (Stats.of_list w.op_ns /. 1e3)

(* Traced runs alternate untraced and traced windows as U T T U U T ...,
   so slow drift hits both sides equally. *)
let traced_window i = i mod 2 = 1 <> ((i / 2) mod 2 = 1)

let with_spans on f =
  Spans.enabled := on;
  Fun.protect ~finally:(fun () -> Spans.enabled := false) f

let print_failed ~attempted ~failed =
  say "  failed_frac            %.6f        (%d of %d ops)"
    (if attempted = 0 then 0. else float_of_int failed /. float_of_int attempted)
    failed attempted

let timed_setup w f =
  let t0 = now () in
  let v = f () in
  w.setup_ns <- float_of_int (now () - t0) :: w.setup_ns;
  v

(* ------------------------------------------------------------------ *)
(* kv and kv-monitored                                                 *)

let sim_metrics (r : Kv_demo.result) =
  let l = Array.of_list (List.map float_of_int r.Kv_demo.latencies) in
  [ ("sim.latency_p50_cycles", Stats.median l); ("sim.latency_p99_cycles", Stats.quantile l 0.99) ]

let kv_family ~mode ~seconds ~traced =
  let r = Kvrun.requests mode in
  (* a window: one set-up probe, then about 100 ms of GETs, net of it *)
  let batches = match mode with Kvrun.Plain -> 1 | Kvrun.Flight_only | Kvrun.Monitored -> 4 in
  let w = windows () in
  let probe () =
    let b = Kvrun.run ~requests:0 mode in
    w.setup_ns <- float_of_int b.Kvrun.ns :: w.setup_ns;
    b
  in
  for _ = 1 to setup_reps do
    ignore (probe ())
  done;
  (* the untraced kv result the monitored run must reproduce bit for bit *)
  let reference = (Kvrun.run ~requests:r Kvrun.Plain).Kvrun.result in
  let check (b : Kvrun.batch) =
    ok_or_raise (Check.kv b.Kvrun.result);
    if mode = Kvrun.Monitored then
      ok_or_raise
        (Check.kv_monitored ~kv:reference ~mon:b.Kvrun.result ~dropped:b.Kvrun.dropped
           ~compliant:b.Kvrun.compliant)
  in
  let attempted = ref 0 and counters = ref Counters.zero in
  let error = ref None and i = ref 0 in
  (try
     (* one checked, untimed batch to warm up *)
     attempted := r;
     check (Kvrun.run mode);
     let t_start = now () in
     while !i < 2 || Bclock.seconds_since t_start < seconds do
       let on = traced && traced_window !i in
       let p = probe () in
       let net = ref 0. and words = ref 0. in
       for _ = 1 to batches do
         let b = with_spans on (fun () -> Spans.wrap "bench.kv_batch" (fun () -> Kvrun.run mode)) in
         attempted := !attempted + r;
         check b;
         net := !net +. float_of_int (b.Kvrun.ns - p.Kvrun.ns);
         words := !words +. (b.Kvrun.words -. p.Kvrun.words);
         counters := Counters.add !counters b.Kvrun.counters
       done;
       let ops = float_of_int (batches * r) in
       record w ~traced:on ~op_ns:(!net /. ops) ~rate:(ops /. (!net /. 1e9)) ~words:(!words /. ops);
       incr i
     done
   with Check_failed e -> error := Some e);
  let failed = if !error = None then 0 else r in
  say "%s: %d windows of %d x %d GETs (ixgbe + NVMe), closed loop, one client"
    (Kvrun.mode_name mode) !i batches r;
  print_failed ~attempted:!attempted ~failed;
  print_windows w ~what:"mean per GET, net of the window's set-up probe";
  let sim = sim_metrics reference in
  List.iter (fun (n, v) -> say "  %-22s %.1f cycles (simulated, %d requests)" n v r) sim;
  let metrics =
    if traced then
      Counters.metrics !counters ~ops:!attempted
      @ sim
      @ [
          ("bench.latency_p99_us", at 0.99 w.op_ns /. 1e3);
          ("bench.trace_overhead_pct", overhead_pct w);
        ]
    else e2e w
  in
  { error = !error; attempted = !attempted; failed; metrics }

(* ------------------------------------------------------------------ *)
(* vm-churn                                                            *)

let step_span (call : Syscall.t) =
  match call with
  | Syscall.Mmap _ -> "core.step.mmap"
  | Syscall.Munmap _ -> "core.step.munmap"
  | Syscall.Mprotect _ -> "core.step.mprotect"
  | Syscall.New_process -> "core.step.new_process"
  | Syscall.Terminate_process _ -> "core.step.terminate_process"
  | _ -> "core.step"

type churn_acc = { mutable ops : int; mutable prog_ns : int }
type churn_words = { mutable words : float }

(* One op: the system call (timed: its latency, into [lat.(j)]), its
   result check, and the client's reads through the address space
   (timed with it in the program time the throughput divides by). *)
let churn_op (g : Churn.t) k acc aw lat j =
  let op = Churn.next g in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let ret =
    if !Spans.enabled then
      Spans.wrap (step_span op.Churn.call) (fun () ->
          Kernel.step k ~thread:g.Churn.thread op.Churn.call)
    else Kernel.step k ~thread:g.Churn.thread op.Churn.call
  in
  let t1 = now () in
  let w1 = Gc.minor_words () in
  ok_or_raise (Churn.check_ret op.Churn.expect ret);
  Churn.commit g op ret;
  let w2 = Gc.minor_words () in
  let t2 = now () in
  for _ = 1 to Churn.reads_per_op do
    let ok =
      if !Spans.enabled then Spans.wrap "core.resolve_user" (fun () -> Churn.read g k)
      else Churn.read g k
    in
    if not ok then raise (Check_failed "vm-churn: a mapped page resolved to the wrong frame")
  done;
  let t3 = now () in
  let w3 = Gc.minor_words () in
  acc.ops <- acc.ops + 1;
  acc.prog_ns <- acc.prog_ns + (t1 - t0) + (t3 - t2);
  aw.words <- aw.words +. (w1 -. w0) +. (w3 -. w2);
  lat.(j) <- float_of_int (t1 - t0)

(* About 100 ms of calls. *)
let window_ops = 16384

let churn ~seed ~seconds ~traced =
  let w = windows () in
  let world = ref (Error "not set up") in
  for _ = 1 to setup_reps do
    world :=
      timed_setup w (fun () ->
          Kvrun.fresh_process_state ();
          Churn.setup ~seed)
  done;
  match !world with
  | Error e -> { error = Some ("vm-churn set-up: " ^ e); attempted = 0; failed = 0; metrics = [] }
  | Ok (k, g) ->
    let acc = { ops = 0; prog_ns = 0 } and aw = { words = 0. } in
    let lat = Array.make window_ops 0. in
    let tail = Stats.reservoir (1 lsl 18) in
    let error = ref None and i = ref 0 in
    let counters = ref Counters.zero in
    let window ~on =
      let ops0 = acc.ops and ns0 = acc.prog_ns and w0 = aw.words in
      let (), d =
        Counters.around (fun () ->
            with_spans on (fun () ->
                for j = 0 to window_ops - 1 do
                  churn_op g k acc aw lat j
                done))
      in
      counters := Counters.add !counters d;
      let ops = float_of_int (acc.ops - ops0) in
      Array.iter (Stats.add tail) lat;
      record w ~traced:on ~op_ns:(Stats.median lat)
        ~rate:(ops /. (float_of_int (acc.prog_ns - ns0) /. 1e9))
        ~words:((aw.words -. w0) /. ops)
    in
    (try
       (* one untimed window to warm up *)
       window ~on:false;
       w.op_ns <- [];
       w.rate <- [];
       w.words <- [];
       counters := Counters.zero;
       acc.ops <- 0;
       let t_start = now () in
       while !i < 2 || Bclock.seconds_since t_start < seconds do
         (* a set-up probe every fourth window, so set-up is sampled
            across the run like the ops *)
         if !i mod 4 = 0 then begin
           match timed_setup w (fun () -> Churn.setup ~seed) with
           | Ok (pk, pg) -> Churn.release pk pg
           | Error e -> raise (Check_failed ("vm-churn set-up: " ^ e))
         end;
         window ~on:(traced && traced_window !i);
         incr i
       done;
       ok_or_raise
         (Result.map_error
            (fun m -> "vm-churn: total_wf at the end: " ^ m)
            (Atmo_core.Invariants.total_wf k))
     with Check_failed e -> error := Some e);
    let attempted = acc.ops + if !error = None then 0 else 1 in
    let failed = if !error = None then 0 else 1 in
    say "vm-churn: %d system calls (seed %d), %d reads each, %d pages mapped at the end" acc.ops
      seed Churn.reads_per_op (Churn.mapped_pages g);
    print_failed ~attempted ~failed;
    print_windows w ~what:"median step of each window";
    let samples = Stats.sorted (Stats.samples tail) in
    let p q = Stats.quantile_sorted samples q /. 1e3 in
    let label, q = Stats.tail_quantile (Array.length samples) in
    say
      "  latency_p99_us         %.3f us      (p99 of %d sampled calls; highest with >=10 beyond: \
       %s = %.3f us)"
      (p 0.99) (Array.length samples) label (p q);
    let metrics =
      if traced then
        Counters.metrics !counters ~ops:acc.ops
        @ [ ("bench.latency_p99_us", p 0.99); ("bench.trace_overhead_pct", overhead_pct w) ]
      else e2e w
    in
    { error = !error; attempted; failed; metrics }

(* ------------------------------------------------------------------ *)
(* verify                                                              *)

type discharge = {
  report : Runner.report;
  wall_ns : int;
  minor_words : float;
  minor_gcs : int;
  major_gcs : int;
}

(* Each discharge starts from a fresh process's TLB and device
   registries, as one [atmo verify] does. *)
let discharge ~threads suite =
  Kvrun.fresh_process_state ();
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let report = Runner.run ~threads suite in
  let t1 = now () in
  let g1 = Gc.quick_stat () in
  {
    report;
    wall_ns = t1 - t0;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* Kernel steps, counted while [counting_steps] has the observer installed. *)
let kernel_steps = ref 0

let counting_steps f =
  Kernel.set_step_observer
    (Some (fun _ ~thread:_ ~entering -> if entering then incr kernel_steps));
  Fun.protect ~finally:(fun () -> Kernel.set_step_observer None) f

type timing = { t0s : int array; t1s : int array; steps : int array }

(* The suite with each obligation's [run] closure wrapped to record its
   start, end and kernel steps (written by whichever domain runs it;
   steps move only under [counting_steps], which runs one domain). *)
let timed_suite suite =
  let n = List.length suite in
  let tm = { t0s = Array.make n 0; t1s = Array.make n 0; steps = Array.make n 0 } in
  let wrap i (o : Obligation.t) =
    {
      o with
      Obligation.run =
        (fun () ->
          let s0 = !kernel_steps in
          tm.t0s.(i) <- now ();
          let r = o.Obligation.run () in
          tm.t1s.(i) <- now ();
          tm.steps.(i) <- !kernel_steps - s0;
          r);
    }
  in
  (List.mapi wrap suite, tm)

let ms tm i = float_of_int (tm.t1s.(i) - tm.t0s.(i)) /. 1e6

let spec_values suite f =
  List.concat
    (List.mapi
       (fun i (o : Obligation.t) -> if o.Obligation.group = "spec" then [ f i ] else [])
       suite)

let group_ms suite tm =
  List.map
    (fun (grp, _) ->
      let total = ref 0. in
      List.iteri
        (fun i (o : Obligation.t) -> if o.Obligation.group = grp then total := !total +. ms tm i)
        suite;
      (grp, !total))
    (Runner.by_group suite)

let build_suite () =
  match Catalog.full_suite ~scale:6 with
  | Ok suite -> suite
  | Error e -> raise (Check_failed ("verify set-up: " ^ e))

let names_of suite = List.map (fun (o : Obligation.t) -> o.Obligation.name) suite

(* One discharge checked and reported; [Check_failed] on a wrong report. *)
let checked ~names d =
  say "  discharge at -j%d: wall %.3f s, report order mismatches %d" d.report.Runner.threads
    (float_of_int d.wall_ns /. 1e9)
    (Check.order_mismatch ~names d.report);
  ok_or_raise (Check.verify ~names d.report);
  d

(* The verifier as a layer, measured in every traced run: one discharge
   on one domain counting kernel steps per obligation, then one at the
   default domain count with every obligation closure wrapped and filed
   as a span.  [layer] holds the layer costs for the reconciliation. *)
let verif_suite ~layer =
  let suite = build_suite () in
  let names = names_of suite in
  let threads = default_threads () in
  (* first, so the reconciliation's base is timed next to the layer costs *)
  let counted, tm1 = timed_suite suite in
  let world_steps, j1 =
    counting_steps (fun () ->
        let s0 = !kernel_steps in
        ignore (Catalog.build_world ~scale:6);
        let world_steps = !kernel_steps - s0 in
        (world_steps, checked ~names (discharge ~threads:1 counted)))
  in
  let wrapped, tm = timed_suite suite in
  let d =
    with_spans true (fun () ->
        Spans.wrap "verif.runner.run" (fun () ->
            let d = checked ~names (discharge ~threads wrapped) in
            List.iteri
              (fun i (o : Obligation.t) ->
                Spans.add ~name:("verif.obligation." ^ o.Obligation.group) ~t0:tm.t0s.(i)
                  ~t1:tm.t1s.(i))
              suite;
            d))
  in
  let groups = group_ms suite tm in
  List.iter (fun (g, ms) -> say "  group %-14s %10.3f ms at -j%d" g ms threads) groups;
  let steps_per_spec = Stats.of_list (spec_values suite (fun i -> float_of_int tm1.steps.(i))) in
  let cost n = Option.value ~default:0. (List.assoc_opt n layer) in
  let per_step =
    (2. *. cost "verif.abstract_ns") +. cost "verif.step_ns" +. cost "verif.spec_check_ns"
    +. cost "verif.total_wf_ns"
  in
  let checked_steps = steps_per_spec -. float_of_int world_steps in
  let j1_spec = Stats.of_list (spec_values suite (ms tm1)) in
  let covered_ms = checked_steps *. per_step /. 1e6 in
  let coverage = if j1_spec > 0. then covered_ms /. j1_spec else 0. in
  say
    "reconcile verify: %.0f checked steps x (2 x abstract + step + spec_check + total_wf = %.0f \
     ns) = %.1f ms of %.1f ms per spec obligation (p50 at -j1; the %d steps building its world \
     are outside the sum) -> coverage %.3f"
    checked_steps per_step covered_ms j1_spec world_steps coverage;
  List.map (fun (g, ms) -> ("verif.group_ms." ^ g, ms)) groups
  @ [
      ("verif.spec_obligation_ms_p50", Stats.of_list (spec_values suite (ms tm)));
      ("verif.parallel_speedup", float_of_int j1.wall_ns /. float_of_int (max 1 d.wall_ns));
      ("verif.minor_gcs_per_suite", float_of_int d.minor_gcs);
      ("verif.major_gcs_per_suite", float_of_int d.major_gcs);
      ("verif.steps_per_spec_obligation", steps_per_spec);
      ("verif.report_order_mismatch", float_of_int (Check.order_mismatch ~names d.report));
      ("recon.verify_coverage", coverage);
    ]

let verify ~seconds ~traced =
  let w = windows () in
  let attempted = ref 0 and error = ref None and counters = ref Counters.zero in
  (try
     let suite = ref [] in
     for _ = 1 to setup_reps do
       suite := timed_setup w build_suite
     done;
     let suite = !suite in
     let names = names_of suite in
     let threads = default_threads () in
     say "verify: Catalog.full_suite ~scale:6, %d obligations, %d domain(s)" (List.length suite)
       threads;
     let t_start = now () in
     let continue () =
       match w.op_ns @ w.traced_rate with
       | [] -> true
       | _ ->
         let typical = Stats.of_list (List.map (fun d -> 1e9 /. d) (w.rate @ w.traced_rate)) in
         Bclock.seconds_since t_start < seconds -. (0.5 *. typical /. 1e9)
     in
     let i = ref 0 in
     while continue () do
       let on = traced && traced_window !i in
       incr attempted;
       let d, c =
         Counters.around (fun () ->
             if not on then checked ~names (discharge ~threads suite)
             else begin
               let wrapped, tm = timed_suite suite in
               with_spans true (fun () ->
                   Spans.wrap "verif.runner.run" (fun () ->
                       let d = checked ~names (discharge ~threads wrapped) in
                       List.iteri
                         (fun i (o : Obligation.t) ->
                           Spans.add ~name:("verif.obligation." ^ o.Obligation.group)
                             ~t0:tm.t0s.(i) ~t1:tm.t1s.(i))
                         suite;
                       d))
             end)
       in
       counters := Counters.add !counters c;
       for _ = 1 to 5 do
         ignore (timed_setup w build_suite)
       done;
       let wall = float_of_int d.wall_ns in
       record w ~traced:on ~op_ns:wall ~rate:(1e9 /. wall) ~words:d.minor_words;
       incr i
     done;
     print_windows w ~what:"one discharge per window"
   with Check_failed e -> error := Some e);
  let metrics =
    if traced then
      Counters.metrics !counters ~ops:!attempted
      @ [
          ("bench.latency_p99_us", at 0.99 w.op_ns /. 1e3);
          ("bench.trace_overhead_pct", overhead_pct w);
        ]
    else e2e w
  in
  {
    error = !error;
    attempted = !attempted;
    failed = (if !error = None then 0 else 1);
    metrics;
  }
