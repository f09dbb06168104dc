(** The one owner of a traced run.

    A traced run configures process-global state in several layers: the
    installed sink and its admission filter and sample shifts, the
    injected clock and CPU hint, the span layer's open stacks and side
    tables, and the monitor's close-path hooks.  {!with_flight} is the
    only place that state is set up and torn down, so every caller gets
    the same restore on every exit path. *)

val with_flight : ?slots:int -> (Flight.t -> 'a) -> 'a
(** [with_flight ?slots f] zeroes the metrics registry, resets the span
    layer, installs a fresh flight recorder of two per-CPU rings of
    [slots] {!Event.slot_bytes}-byte slots each (default 4096; a
    positive power of two), and returns [f recorder].

    Whether [f] returns or raises, the run state is then put back to
    its defaults: the {!Sink.Disabled} sink, the all-tags filter,
    sample shift 0 for every tag, clock 0, CPU 0, empty span state and
    no armed monitor.  The metrics registry is left as the run filled
    it, for readers such as [atmo top] and [atmo metrics]. *)
