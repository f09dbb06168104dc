(* Online SLO monitor: snapshot/delta determinism, windowed rollups
   (wraparound, empty windows), declarative SLO specs, streaming
   quantiles checked bucket-exact against the post-mortem profiler,
   watchdog rules over synthetic series, and exemplar capture. *)

module Metrics = Atmo_obs.Metrics
module Sink = Atmo_obs.Sink
module Span = Atmo_obs.Span
module Session = Atmo_obs.Session
module Profile = Atmo_obs.Profile
module Export = Atmo_obs.Export
module Timeseries = Atmo_obs.Timeseries
module Slo = Atmo_obs.Slo
module Watchdog = Atmo_obs.Watchdog
module Monitor = Atmo_obs.Monitor
module Exemplar = Atmo_obs.Exemplar
module Kv_demo = Atmo_workloads.Kv_demo

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Metrics snapshots: deterministic order, delta clamping              *)

let test_snapshot_sorted () =
  Metrics.reset ();
  (* Register in non-sorted order; the snapshot must not care. *)
  Metrics.bump ~by:5 "z/last";
  Metrics.bump ~by:3 "a/first";
  Metrics.bump ~by:4 "m/middle";
  Metrics.observe "z/hist" 100;
  Metrics.observe "a/hist" 7;
  let s = Metrics.Snapshot.take () in
  let counters, hists = Metrics.Snapshot.listing s in
  let cnames = List.map fst counters in
  let hnames = List.map fst hists in
  checkb "counters sorted" true (cnames = List.sort String.compare cnames);
  checkb "hists sorted" true (hnames = List.sort String.compare hnames);
  let s2 = Metrics.Snapshot.take () in
  checkb "snapshot of unchanged registry is equal" true (s = s2)

let test_snapshot_diff () =
  Metrics.reset ();
  let base = Metrics.Snapshot.take () in
  Metrics.bump ~by:4 "d/counter";
  Metrics.observe "d/hist" 100;
  Metrics.observe "d/hist" 100;
  let d = Metrics.Snapshot.create () in
  Metrics.Snapshot.advance ~base ~into:d;
  checki "counter delta" 4 (Metrics.Snapshot.counter d "d/counter");
  (match Metrics.Snapshot.hist d "d/hist" with
  | None -> Alcotest.fail "hist missing from delta"
  | Some h ->
    checki "hist delta n" 2 h.Metrics.Snapshot.n;
    checki "hist delta sum" 200 h.Metrics.Snapshot.sum;
    checki "samples in bucket_of 100" 2
      h.Metrics.Snapshot.counts.(Metrics.Histogram.bucket_of 100))

(* A [Metrics.reset] between two snapshots must clamp to an empty
   window, and handles cached before the reset must keep feeding the
   registry afterwards. *)
let test_reset_clamps_and_cached_handle () =
  Metrics.reset ();
  let c = Metrics.counter "r/cached" in
  Metrics.Counter.incr ~by:10 c;
  let base = Metrics.Snapshot.take () in
  Metrics.reset ();
  Metrics.Counter.incr ~by:3 c;
  Metrics.observe "r/hist" 50;
  Metrics.reset ();
  let d = Metrics.Snapshot.create () in
  Metrics.Snapshot.advance ~base ~into:d;
  checki "reset window clamps counter delta to 0" 0
    (Metrics.Snapshot.counter d "r/cached");
  (* The cached handle still reaches the registry after resets. *)
  Metrics.Counter.incr ~by:7 c;
  checki "cached handle feeds registry across reset" 7
    (Metrics.Counter.value (Metrics.counter "r/cached"));
  let d2 = Metrics.Snapshot.create () in
  Metrics.Snapshot.advance ~base ~into:d2;
  checki "post-reset window sees new increments" 7
    (Metrics.Snapshot.counter d2 "r/cached")

(* ------------------------------------------------------------------ *)
(* Timeseries: rollups, wraparound, empty windows                      *)

let test_timeseries_basic () =
  Metrics.reset ();
  let s = Timeseries.create ~windows:8 ~window_cycles:100 ~now:0 () in
  Metrics.bump ~by:7 "ts/x";
  Timeseries.tick s ~now:100;
  checki "one tick" 1 (Timeseries.ticks s);
  match Timeseries.latest s with
  | None -> Alcotest.fail "no window after tick"
  | Some w ->
    checki "seq" 0 w.Timeseries.seq;
    checki "w_start" 0 w.Timeseries.w_start;
    checki "w_end" 100 w.Timeseries.w_end;
    checki "counter delta in window" 7 (Timeseries.counter w ~name:"ts/x");
    Alcotest.(check (float 1e-9)) "rate" 0.07 (Timeseries.rate w ~name:"ts/x")

let test_timeseries_wraparound () =
  Metrics.reset ();
  let s = Timeseries.create ~windows:4 ~window_cycles:10 ~now:0 () in
  for i = 1 to 6 do
    Metrics.bump ~by:i "ts/w";
    Timeseries.tick s ~now:(i * 10)
  done;
  checki "six ticks" 6 (Timeseries.ticks s);
  let ws = Timeseries.windows s in
  checki "ring keeps capacity windows" 4 (List.length ws);
  Alcotest.(check (list int)) "oldest evicted, seqs oldest-first" [ 2; 3; 4; 5 ]
    (List.map (fun w -> w.Timeseries.seq) ws);
  Alcotest.(check (list int)) "per-window deltas survive wraparound" [ 3; 4; 5; 6 ]
    (List.map (fun w -> Timeseries.counter w ~name:"ts/w") ws);
  checki "last n trims from the old end" 5
    (match Timeseries.last s 2 with w :: _ -> w.Timeseries.seq + 1 | [] -> -1)

let test_timeseries_empty_windows () =
  Metrics.reset ();
  let s = Timeseries.create ~windows:4 ~window_cycles:10 ~now:0 () in
  Timeseries.tick s ~now:10;
  Timeseries.tick s ~now:20;
  List.iter
    (fun w ->
      checki "empty window has zero delta" 0 (Timeseries.counter w ~name:"ts/x");
      checkb "empty window has no hist samples" true
        (match Metrics.Snapshot.hist w.Timeseries.delta "lat/request" with
        | None -> true
        | Some h -> h.Metrics.Snapshot.n = 0))
    (Timeseries.windows s);
  let m = Timeseries.merged s ~name:"lat/request" ~n:(Timeseries.capacity s) in
  checki "merged hist over empty windows is empty" 0 m.Metrics.Snapshot.n;
  let spec = { Slo.metric = "lat/request"; q = 0.99; limit = 1000; over = 8 } in
  let v = Slo.evaluate spec s in
  checki "no samples" 0 v.Slo.samples;
  checkb "vacuously compliant" true v.Slo.compliant

(* Seeded randomized oracle: bumps, observes, registrations between
   ticks, a [Metrics.reset] between two ticks and ring wraparound.  Each
   window's delta must equal a name-keyed diff the test builds from
   [Metrics.all_counters]/[all_histograms] at every tick. *)
let test_timeseries_oracle () =
  Metrics.reset ();
  let rng = Random.State.make [| 16 |] in
  let registry () =
    ( List.map (fun (n, c) -> (n, Metrics.Counter.value c)) (Metrics.all_counters ()),
      List.map
        (fun (n, h) ->
          ( n,
            {
              Metrics.Snapshot.counts = Metrics.Histogram.buckets h;
              n = Metrics.Histogram.count h;
              sum = Metrics.Histogram.sum h;
            } ))
        (Metrics.all_histograms ()) )
  in
  let reference (pc, ph) (cc, ch) =
    let before l n = List.assoc_opt n l in
    ( List.map
        (fun (n, v) -> (n, max 0 (v - Option.value ~default:0 (before pc n))))
        cc,
      List.map
        (fun (n, (h : Metrics.Snapshot.hist)) ->
          let b =
            match before ph n with
            | Some (b : Metrics.Snapshot.hist) -> b
            | None -> { Metrics.Snapshot.counts = Array.make 63 0; n = 0; sum = 0 }
          in
          let counts = Array.mapi (fun i c -> max 0 (c - b.counts.(i))) h.counts in
          let n_delta = Array.fold_left ( + ) 0 counts in
          (n, { Metrics.Snapshot.counts; n = n_delta; sum = max 0 (h.sum - b.sum) }))
        ch )
  in
  let check_window (w : Timeseries.window) (rc, rh) =
    let gc, gh = Metrics.Snapshot.listing w.Timeseries.delta in
    let seq = w.Timeseries.seq in
    let first_diff what show expected got =
      let rec go = function
        | [], [] -> ()
        | (n, e) :: _, [] ->
          Alcotest.failf "window %d: %s %s: expected %s, missing" seq what n (show e)
        | [], (n, g) :: _ -> Alcotest.failf "window %d: %s %s: unexpected %s" seq what n (show g)
        | (n, e) :: es, (m, g) :: gs ->
          if n <> m then Alcotest.failf "window %d: %s %s expected, %s found" seq what n m
          else if e <> g then
            Alcotest.failf "window %d: %s %s: expected %s, got %s" seq what n (show e) (show g)
          else go (es, gs)
      in
      go (expected, got)
    in
    first_diff "counter" string_of_int rc gc;
    let show (h : Metrics.Snapshot.hist) =
      Printf.sprintf "n=%d sum=%d [%s]" h.n h.sum
        (String.concat ";" (Array.to_list (Array.map string_of_int h.counts)))
    in
    first_diff "histogram" show rh gh;
    List.iter
      (fun (n, v) -> checki ("counter by name " ^ n) v (Timeseries.counter w ~name:n))
      rc
  in
  let s = Timeseries.create ~windows:4 ~window_cycles:10 ~now:0 () in
  let prev = ref (registry ()) in
  let expected = Hashtbl.create 64 in
  let ntick = 37 and reset_at = 17 in
  for t = 1 to ntick do
    (* Names come from a growing pool, so later ticks register new ones. *)
    let pool = 2 + (t / 3) in
    for _ = 1 to Random.State.int rng 12 do
      let counter () = Printf.sprintf "o/c%d" (Random.State.int rng pool) in
      match Random.State.int rng 3 with
      | 0 -> Metrics.bump ~by:(Random.State.int rng 50) (counter ())
      | 1 ->
        Metrics.observe
          (Printf.sprintf "o/h%d" (Random.State.int rng (1 + (pool / 3))))
          (Random.State.int rng (1 lsl Random.State.int rng 30))
      | _ -> Metrics.Counter.incr (Metrics.counter (counter ()))
    done;
    if t = reset_at then Metrics.reset ();
    Timeseries.tick s ~now:(t * 10);
    let cur = registry () in
    let r = reference !prev cur in
    prev := cur;
    Hashtbl.replace expected (t - 1) r;
    match Timeseries.latest s with
    | Some w -> check_window w r
    | None -> Alcotest.fail "no window after tick"
  done;
  Alcotest.(check (list int)) "ring wrapped" [ 33; 34; 35; 36 ]
    (List.map (fun w -> w.Timeseries.seq) (Timeseries.windows s));
  List.iter
    (fun (w : Timeseries.window) -> check_window w (Hashtbl.find expected w.Timeseries.seq))
    (Timeseries.windows s)

(* With the ring full and the registry stable, a tick of an armed
   monitor allocates nothing: its words are measured against the same
   loop around a no-op, so the [Gc.minor_words] reads cancel out.
   Requests on both CPUs between ticks keep every heartbeat, the
   request histogram and the sink's publish path moving. *)
let test_tick_allocates_nothing () =
  Session.with_flight ~slots:16384 (fun _ ->
      let spec =
        match Slo.parse "lat/request:p99<=262143@8" with
        | Ok s -> s
        | Error e -> Alcotest.fail e
      in
      let window = 1000 in
      let m = Monitor.arm ~windows:16 ~window_cycles:window ~now:0 ~specs:[ spec ] () in
      let requests i =
        List.iter
          (fun cpu ->
            Sink.set_cpu cpu;
            let s = Span.begin_ ~ts:(i * window) Span.Request in
            Span.end_ ~ts:((i * window) + 10) s)
          [ 0; 1 ]
      in
      let words f ~from =
        let total = ref 0 in
        for i = from to from + 999 do
          requests i;
          let w0 = Gc.minor_words () in
          f i;
          total := !total + int_of_float (Gc.minor_words () -. w0)
        done;
        !total
      in
      let tick i = Monitor.tick m ~now:((i * window) + 20) in
      (* Warm up: fill the ring and register every name the loop uses. *)
      for i = 1 to 32 do
        requests i;
        tick i
      done;
      let control = words (fun _ -> ()) ~from:33 in
      let ticked = words tick ~from:1033 in
      checki "minor words over 1000 steady-state ticks" 0 (ticked - control);
      checkb "watchdog stayed quiet" true (Monitor.findings m = []);
      let merged = Timeseries.merged (Monitor.series m) ~name:"lat/request" ~n:8 in
      checki "the ticks rolled the requests up" 16 merged.Metrics.Snapshot.n)

(* ------------------------------------------------------------------ *)
(* SLO specs                                                           *)

let test_slo_parse () =
  (match Slo.parse "lat/request:p99<=16383@8" with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check string) "metric" "lat/request" s.Slo.metric;
    Alcotest.(check (float 1e-9)) "q" 0.99 s.Slo.q;
    checki "limit" 16383 s.Slo.limit;
    checki "over" 8 s.Slo.over);
  (match Slo.parse "lat/nvme_io:p999<=4095@32" with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check (float 1e-9)) "p999" 0.999 s.Slo.q;
    checki "over 32" 32 s.Slo.over);
  (match Slo.parse "lat/request:p50<=100" with
  | Error e -> Alcotest.fail e
  | Ok s -> checki "default horizon" 8 s.Slo.over);
  List.iter
    (fun bad ->
      match Slo.parse bad with
      | Ok _ -> Alcotest.failf "parse accepted %S" bad
      | Error _ -> ())
    [ ""; "lat/request"; "lat/request:p99"; "lat/request:q99<=5"; "lat/request:p99<=x";
      "lat/request:p99<=-3"; "lat/request:p99<=5@0"; ":p99<=5" ]

let test_slo_evaluate () =
  Metrics.reset ();
  let s = Timeseries.create ~windows:8 ~window_cycles:100 ~now:0 () in
  for _ = 1 to 9 do Metrics.observe "lat/x" 10 done;
  Metrics.observe "lat/x" 1000;
  Timeseries.tick s ~now:100;
  let spec = { Slo.metric = "lat/x"; q = 0.99; limit = 15; over = 8 } in
  let v = Slo.evaluate spec s in
  checki "samples" 10 v.Slo.samples;
  (* p99 rank lands on the 1000-cycle sample: bucket 9's upper edge. *)
  checki "online estimate is bucket upper edge" 1023 v.Slo.value;
  checki "violators above the limit's bucket" 1 v.Slo.violators;
  Alcotest.(check (float 1e-9)) "budget" 0.1 v.Slo.budget;
  checkb "burn over budget" true (v.Slo.burn > 1.);
  checkb "violated" true (not v.Slo.compliant);
  let loose = { spec with limit = 1023 } in
  checkb "limit at the estimate is compliant" true (Slo.evaluate loose s).Slo.compliant

(* ------------------------------------------------------------------ *)
(* Streaming quantiles vs. the post-mortem profiler                    *)

(* The tentpole accuracy gate in miniature: run the kv workload with
   injected tail faults under the monitor, then compare the streaming
   p50/p99/p999 (merged window deltas) against exact quantiles over
   the profiler's reconstructed request durations.  Both must land in
   the same log2 bucket. *)
let test_online_vs_postmortem_quantiles () =
  Session.with_flight ~slots:8192 (fun _ ->
      let spec =
        match Slo.parse "lat/request:p99<=262143@8" with
        | Ok s -> s
        | Error e -> Alcotest.fail e
      in
      let m =
        Monitor.arm ~windows:512 ~window_cycles:32768 ~now:0 ~specs:[ spec ] ()
      in
      let r = Kv_demo.run ~requests:40 ~slow_every:10 ~slow_cycles:200_000 () in
      Monitor.finish m ~now:r.Kv_demo.end_cycles;
      let series = Monitor.series m in
      checkb "windows closed" true (Timeseries.ticks series > 1);
      let merged =
        Timeseries.merged series ~name:"lat/request" ~n:(Timeseries.capacity series)
      in
      checki "every request rolled up" 40 merged.Metrics.Snapshot.n;
      let profile = Profile.build (Sink.records ()) in
      let durs =
        Profile.spans profile
        |> List.filter (fun sp ->
               sp.Profile.kind = Span.code Span.Request && sp.Profile.ended)
        |> List.map Profile.duration
        |> List.sort compare |> Array.of_list
      in
      checki "profiler reconstructed every request" 40 (Array.length durs);
      let offline q =
        let n = Array.length durs in
        durs.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))
      in
      List.iter
        (fun q ->
          let on = Metrics.Snapshot.quantile merged q in
          let off = offline q in
          checki
            (Printf.sprintf "p%g online bucket = post-mortem bucket" (q *. 100.))
            (Metrics.Histogram.bucket_of off)
            (Metrics.Histogram.bucket_of on))
        [ 0.5; 0.99; 0.999 ];
      let v = List.hd (Monitor.verdicts m) in
      checkb "injected tail breaches the SLO" true (not v.Slo.compliant))

(* ------------------------------------------------------------------ *)
(* Watchdog rules                                                      *)

(* Beat both CPUs' heartbeats for six windows, then let CPU 1 go
   silent while CPU 0 keeps running: exactly cpu-silent must fire. *)
let test_watchdog_cpu_silent () =
  Session.with_flight (fun _ ->
      let window = 2000 in
      let m = Monitor.arm ~windows:16 ~window_cycles:window ~now:0 ~specs:[] () in
      let vnow = ref 0 in
      let beat cpu =
        Sink.set_cpu cpu;
        let s = Span.begin_ ~ts:!vnow Span.User in
        vnow := !vnow + 250;
        Span.end_ ~ts:!vnow s
      in
      while !vnow < 6 * window do
        beat 0;
        beat 1
      done;
      while !vnow < 12 * window do
        beat 0
      done;
      Monitor.finish m ~now:!vnow;
      let fs = Monitor.findings m in
      checkb "watchdog fired" true (fs <> []);
      List.iter
        (fun f ->
          match f.Watchdog.wrule with
          | Watchdog.Cpu_silent cpu -> checki "names the silent cpu" 1 cpu
          | other -> Alcotest.failf "unexpected rule %s" (Watchdog.rule_name other))
        fs)

(* Both CPUs keep beating: no findings at all. *)
let test_watchdog_quiet_when_healthy () =
  Session.with_flight (fun _ ->
      let window = 2000 in
      let m = Monitor.arm ~windows:16 ~window_cycles:window ~now:0 ~specs:[] () in
      let vnow = ref 0 in
      while !vnow < 12 * window do
        List.iter
          (fun cpu ->
            Sink.set_cpu cpu;
            let s = Span.begin_ ~ts:!vnow Span.User in
            vnow := !vnow + 250;
            Span.end_ ~ts:!vnow s)
          [ 0; 1 ]
      done;
      Monitor.finish m ~now:!vnow;
      checkb "healthy run stays quiet" true (Monitor.findings m = []))

let test_watchdog_lock_spike () =
  Metrics.reset ();
  Span.reset ();
  let m = Monitor.arm ~windows:16 ~window_cycles:100 ~now:0 ~specs:[] () in
  Fun.protect ~finally:Monitor.disarm (fun () ->
      Metrics.bump ~by:100 "smp/lock_wait/0";
      Monitor.tick m ~now:100;
      Metrics.bump ~by:100 "smp/lock_wait/0";
      Monitor.tick m ~now:200;
      checkb "modest contention stays quiet" true (Monitor.findings m = []);
      Metrics.bump ~by:100_000 "smp/lock_wait/1";
      Monitor.tick m ~now:300;
      checkb "spike over trailing average fires" true
        (List.exists (fun f -> f.Watchdog.wrule = Watchdog.Lock_spike) (Monitor.findings m)))

let test_watchdog_runq_growth () =
  Metrics.reset ();
  Span.reset ();
  let depth = ref 0 in
  let m =
    Monitor.arm ~windows:16 ~window_cycles:100 ~depth_probe:(fun () -> !depth)
      ~now:0 ~specs:[] ()
  in
  Fun.protect ~finally:Monitor.disarm (fun () ->
      for i = 1 to 6 do
        depth := !depth + 3;
        Monitor.tick m ~now:(i * 100)
      done;
      checkb "diverging run queue fires" true
        (List.exists (fun f -> f.Watchdog.wrule = Watchdog.Runq_growth) (Monitor.findings m)))

let test_watchdog_ring_drop () =
  (* An 8-slot ring per CPU: a burst of one-shot spans must overwrite
     the oldest records, and the next tick must report the loss. *)
  Session.with_flight ~slots:8 (fun _ ->
      let m = Monitor.arm ~windows:16 ~window_cycles:1_000_000 ~now:0 ~specs:[] () in
      Monitor.tick m ~now:10;
      for i = 0 to 19 do
        let s = Span.begin_ ~ts:(20 + (2 * i)) Span.User in
        Span.end_ ~ts:(21 + (2 * i)) s
      done;
      Monitor.tick m ~now:100;
      Monitor.finish m ~now:200;
      checkb "ring drops reported" true
        (List.exists (fun f -> f.Watchdog.wrule = Watchdog.Ring_drop) (Monitor.findings m)))

(* ------------------------------------------------------------------ *)
(* Exemplars                                                           *)

let test_exemplar_coverage () =
  Session.with_flight ~slots:8192 (fun _ ->
      let spec =
        match Slo.parse "lat/request:p99<=262143@8" with
        | Ok s -> s
        | Error e -> Alcotest.fail e
      in
      let m = Monitor.arm ~windows:64 ~window_cycles:32768 ~now:0 ~specs:[ spec ] () in
      let r = Kv_demo.run ~requests:32 ~slow_every:8 ~slow_cycles:200_000 () in
      Monitor.finish m ~now:r.Kv_demo.end_cycles;
      let ex = Monitor.capture_exemplars m in
      checki "one exemplar per injected slow request" 4 (List.length ex);
      List.iter
        (fun e ->
          checkb "trail complete" true e.Exemplar.complete;
          checkb "duration above the SLO limit" true (e.Exemplar.value > spec.Slo.limit);
          checkb "trail crosses the request path" true (List.length e.Exemplar.spans >= 8);
          checkb "records attached" true (e.Exemplar.trail <> []))
        ex;
      let chrome = Exemplar.chrome ex in
      checkb "chrome trace is a json array" true
        (String.length chrome > 2 && chrome.[0] = '[');
      checkb "chrome trace carries flow events" true (Helpers.contains chrome {|"ph":"s"|});
      let refs = Exemplar.prom_refs ex in
      checki "one prometheus ref per exemplar" 4 (List.length refs);
      let prom = Export.prometheus ~exemplars:[ ("lat/request", refs) ] () in
      checkb "exemplar exposed on a bucket line" true (Helpers.contains prom "# {span=\""))

let () =
  Alcotest.run "monitor"
    [
      ( "snapshot",
        [
          Alcotest.test_case "deterministic sorted snapshot" `Quick test_snapshot_sorted;
          Alcotest.test_case "delta of counters and histograms" `Quick test_snapshot_diff;
          Alcotest.test_case "reset clamps, cached handles survive" `Quick
            test_reset_clamps_and_cached_handle;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "single window rollup" `Quick test_timeseries_basic;
          Alcotest.test_case "ring wraparound" `Quick test_timeseries_wraparound;
          Alcotest.test_case "empty windows" `Quick test_timeseries_empty_windows;
          Alcotest.test_case "seeded oracle against name-keyed diffs" `Quick
            test_timeseries_oracle;
          Alcotest.test_case "steady-state tick allocates nothing" `Quick
            test_tick_allocates_nothing;
        ] );
      ( "slo",
        [
          Alcotest.test_case "spec parsing" `Quick test_slo_parse;
          Alcotest.test_case "verdict arithmetic" `Quick test_slo_evaluate;
          Alcotest.test_case "online vs post-mortem quantiles" `Quick
            test_online_vs_postmortem_quantiles;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "cpu-silent on a stalled cpu" `Quick test_watchdog_cpu_silent;
          Alcotest.test_case "quiet on a healthy run" `Quick test_watchdog_quiet_when_healthy;
          Alcotest.test_case "lock-wait spike" `Quick test_watchdog_lock_spike;
          Alcotest.test_case "run-queue growth" `Quick test_watchdog_runq_growth;
          Alcotest.test_case "flight-ring drops" `Quick test_watchdog_ring_drop;
        ] );
      ( "exemplar",
        [ Alcotest.test_case "coverage of injected slow requests" `Quick test_exemplar_coverage ];
      );
    ]
