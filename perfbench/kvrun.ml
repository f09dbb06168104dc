(* One kv batch: a fresh [Kv_demo.run] (boot, preload, [requests] GETs
   over ixgbe and the NVMe block backend), timed from outside, with the
   sink either disabled, flight-recording, or flight-recording under the
   SLO monitor armed exactly as [atmo monitor --workload kv] arms it. *)

module Kv_demo = Atmo_workloads.Kv_demo
module Metrics = Atmo_obs.Metrics
module Sink = Atmo_obs.Sink
module Span = Atmo_obs.Span
module Flight = Atmo_obs.Flight
module Monitor = Atmo_obs.Monitor

(* [atmo monitor] defaults: ring slots per CPU, window ring, window
   width, SLO. *)
let monitor_slots = 16384
let monitor_windows = 64
let monitor_window_cycles = 32768
let monitor_slo = "lat/request:p99<=262143@8"

type mode = Plain | Flight_only | Monitored

let mode_name = function Plain -> "kv" | Flight_only -> "kv-flight" | Monitored -> "kv-monitored"

(* GETs per batch.  A monitored batch carries at most 512 on the default
   16384-slot rings without overwriting an event (1024 already drops).
   A plain batch carries 16 times more, so its boot and preload, which
   the per-GET figure subtracts, are a few percent of it, not 40%. *)
let monitored_requests = 512
let plain_requests = 8192
let requests = function Plain -> plain_requests | Flight_only | Monitored -> monitored_requests

type batch = {
  result : Kv_demo.result;
  ns : int;  (** host time of the whole batch *)
  words : float;  (** minor-heap words allocated by the batch *)
  counters : Counters.t;
  dropped : int;
  compliant : bool;
  ticks : int;  (** monitor window ticks *)
  records : int;  (** trace records emitted, Σ obs/emitted/* *)
}

let specs =
  lazy
    (match Atmo_obs.Slo.parse monitor_slo with
     | Ok s -> [ s ]
     | Error e -> failwith ("kv-monitored: bad SLO " ^ e))

let emitted () =
  List.fold_left
    (fun acc (n, c) ->
      if String.starts_with ~prefix:"obs/emitted/" n then acc + Metrics.Counter.value c else acc)
    0 (Metrics.all_counters ())

let demo ~requests =
  Spans.wrap "workloads.kv_demo.run" (fun () -> Kv_demo.run ~requests ~nic:`Ixgbe ())

(* The sink and monitor set-up, run and teardown of [atmo monitor]. *)
let recorded ~monitor ~requests =
  let recorder =
    Spans.wrap "obs.flight.create" (fun () ->
        Flight.create ~cpus:2 ~slots:monitor_slots ~slot_size:Atmo_obs.Event.slot_bytes)
  in
  Spans.wrap "obs.sink.install" (fun () -> Sink.install (Sink.Flight recorder));
  let m =
    if monitor then
      Some
        (Spans.wrap "obs.monitor.arm" (fun () ->
             Monitor.arm ~windows:monitor_windows ~window_cycles:monitor_window_cycles ~now:0
               ~specs:(Lazy.force specs) ()))
    else None
  in
  Fun.protect
    ~finally:(fun () ->
      if monitor then Monitor.disarm ();
      Sink.install Sink.Disabled;
      Sink.set_clock (fun () -> 0);
      Sink.set_cpu 0;
      Span.reset ())
    (fun () ->
      let r = demo ~requests in
      Option.iter
        (fun m ->
          Spans.wrap "obs.monitor.finish" (fun () -> Monitor.finish m ~now:r.Kv_demo.end_cycles))
        m;
      let dropped = Spans.wrap "obs.sink.dropped" Sink.dropped in
      match m with
      | Some m ->
        ( r, dropped,
          Spans.wrap "obs.monitor.compliant" (fun () -> Monitor.compliant m),
          Atmo_obs.Timeseries.ticks (Monitor.series m) )
      | None -> (r, dropped, true, 0))

(* What a fresh process starts without: the CPU-side TLB caches and the
   device models that earlier batches' kernels registered and, being
   discarded rather than torn down, never unregistered. *)
let fresh_process_state () =
  Atmo_hw.Tlb.clear ();
  Atmo_devmodel.Model.reset ()

let run ?requests:r mode =
  let requests = Option.value r ~default:(requests mode) in
  fresh_process_state ();
  if mode <> Plain then begin
    Metrics.reset ();
    Span.reset ()
  end;
  let c0 = Counters.take () in
  let e0 = emitted () in
  let w0 = Gc.minor_words () in
  let t0 = Bclock.now_ns () in
  let result, dropped, compliant, ticks =
    match mode with
    | Plain -> (demo ~requests, 0, true, 0)
    | Flight_only -> recorded ~monitor:false ~requests
    | Monitored -> recorded ~monitor:true ~requests
  in
  let t1 = Bclock.now_ns () in
  let w1 = Gc.minor_words () in
  {
    result;
    ns = t1 - t0;
    words = w1 -. w0;
    counters = Counters.diff ~before:c0 (Counters.take ());
    dropped;
    compliant;
    ticks;
    records = emitted () - e0;
  }
