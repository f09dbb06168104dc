(* The online SLO monitor: glue binding the rollup ring, the SLO
   specs, and the watchdog to the span layer's close-path hooks.

   Arming installs three things: the slow-root threshold (tightest
   armed `lat/request` limit, so the ledger collects exactly the SLO's
   violators), the window tick (first span close past each boundary
   closes a rollup window), and a baseline watchdog sample.  A tick is
   one pass over the registry's slot arrays into a reused ring slot,
   three stores into the gauge ring, and a watchdog sweep that reads
   the horizon windows in place: with the ring full and the registry
   stable it allocates nothing (`test_monitor` gates 0 words over 1000
   ticks; before the slot-indexed rollups a tick copied the registry
   into sorted lists, about 7.3k words and 24 us).  At the default
   32768-cycle windows a kv GET (~174k cycles) crosses a boundary, so
   a request ticks about once — which is why the tick must be cheap.
   Nothing runs per event.

   Exactly one monitor is active at a time, mirroring the sink
   registry's discipline. *)

type t = {
  series : Timeseries.t;
  specs : Slo.spec list;
  config : Watchdog.config;
  depth_probe : (unit -> int) option;
  gauges : Watchdog.gauges;  (* the newest [capacity + 1] samples *)
  mutable findings : Watchdog.report list;  (* newest first *)
  seen : (int * int * int, unit) Hashtbl.t;
}

let active_m : t option ref = ref None

let active () = !active_m

let sample m ~seq =
  let depth = match m.depth_probe with None -> 0 | Some f -> f () in
  Watchdog.record m.gauges ~seq ~depth ~drops:(Sink.dropped ())

let rec note m = function
  | [] -> ()
  | r :: rest ->
    let k = Watchdog.report_key r in
    if not (Hashtbl.mem m.seen k) then begin
      Hashtbl.replace m.seen k ();
      m.findings <- r :: m.findings
    end;
    note m rest

let tick m ~now =
  (* Drop accounting first so the tallies it publishes land inside the
     window being closed, not the next one. *)
  sample m ~seq:(Timeseries.ticks m.series);
  Timeseries.tick m.series ~now;
  note m (Watchdog.check ~config:m.config m.series m.gauges);
  Span.set_tick_at (Timeseries.next_boundary m.series)

let disarm () =
  match !active_m with
  | None -> ()
  | Some _ ->
    active_m := None;
    Span.clear_tick ();
    Span.set_slow_threshold max_int

let arm ?(windows = 64) ?(config = Watchdog.default_config) ?depth_probe ~window_cycles
    ~now ~specs () =
  disarm ();
  let series = Timeseries.create ~windows ~window_cycles ~now () in
  let m =
    {
      series;
      specs;
      config;
      depth_probe;
      gauges = Watchdog.gauges (windows + 1);
      findings = [];
      seen = Hashtbl.create 16;
    }
  in
  sample m ~seq:(-1);
  active_m := Some m;
  let threshold =
    List.fold_left
      (fun acc (s : Slo.spec) -> if s.Slo.metric = "lat/request" then min acc s.Slo.limit else acc)
      max_int specs
  in
  Span.clear_slow ();
  Span.set_slow_threshold threshold;
  Span.set_tick ~at:(now + window_cycles) (fun ts ->
      match !active_m with None -> () | Some m -> tick m ~now:ts);
  m

(* Close the final (possibly partial) window so the last requests are
   in the rollups, then leave the monitor armed for inspection. *)
let finish m ~now = tick m ~now

let series m = m.series
let specs m = m.specs
let verdicts m = List.map (fun s -> Slo.evaluate s m.series) m.specs
let compliant m = List.for_all (fun (v : Slo.verdict) -> v.Slo.compliant) (verdicts m)
let findings m = List.rev m.findings

let samples m = Watchdog.samples m.gauges

let capture_exemplars ?max_exemplars m =
  ignore m;
  Exemplar.capture ?max_exemplars ~records:(Sink.records ()) (Span.slow_roots ())
