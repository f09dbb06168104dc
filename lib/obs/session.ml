(* A traced run's lifecycle, written once.  Entry clears what a
   previous run may have left in the registry and the span layer;
   exit restores every default a run may have changed, in dependency
   order: the monitor's hooks ride on the span layer, and installing
   the Disabled sink publishes the run's pending tallies into the
   registry before the span state goes. *)

let restore () =
  Monitor.disarm ();
  Sink.install Sink.Disabled;
  Sink.set_filter Event.all_tags_mask;
  Sink.set_sample_all ~shift:0;
  Sink.set_clock (fun () -> 0);
  Sink.set_cpu 0;
  Span.reset ()

let with_flight ?(slots = 4096) f =
  Metrics.reset ();
  Span.reset ();
  let recorder = Flight.create ~cpus:2 ~slots ~slot_size:Event.slot_bytes in
  Sink.install (Sink.Flight recorder);
  Fun.protect ~finally:restore (fun () -> f recorder)
