(** Typed stall/overload detectors over the windowed rollups.

    Each rule carries a stable code (like the sanitizer's report
    rules) and reads only closed-window deltas plus the per-tick gauge
    samples the monitor collects — never live kernel state — so a
    check is safe to run from the span close path at every window
    boundary. *)

type rule =
  | Cpu_silent of int
      (** a CPU that beat earlier in the horizon has no
          [sched/heartbeat/<cpu>] delta for the configured suffix of
          windows while other CPUs kept beating — it stopped
          scheduling *)
  | Lock_spike
      (** the latest window's summed [smp/lock_wait/<cpu>] delta
          exceeds the trailing average by the configured factor *)
  | Runq_growth
      (** sampled run-queue depth non-decreasing and diverging across
          the horizon — overload *)
  | Ring_drop  (** flight-recorder drops advanced inside a window *)

val rule_code : rule -> int
(** Stable wire code (1–4). *)

val rule_name : rule -> string
val rule_aux : rule -> int
(** Rule argument (the CPU for [Cpu_silent], 0 otherwise). *)

type report = { wrule : rule; wseq : int; detail : string }
(** [wseq] is the {!Timeseries.window} sequence number the rule fired
    at. *)

val report_key : report -> int * int * int
(** Dedup identity: [(rule code, aux, window seq)]. *)

type config = {
  silent_windows : int;  (** consecutive silent windows to call a CPU stalled (default 2) *)
  spike_factor : float;  (** latest vs. trailing-average multiplier (default 8) *)
  spike_min : int;  (** absolute lock-wait floor in cycles (default 10000) *)
  growth_windows : int;  (** depth-growth horizon in windows (default 4) *)
  growth_min : int;  (** minimum depth increase to report (default 8) *)
}

val default_config : config

type sample = { sseq : int; depth : int; drops : int }
(** Per-tick gauges the rollups cannot carry: run-queue depth (from
    the monitor's probe) and the cumulative flight-recorder drop
    count.  [sseq = -1] marks the baseline sample taken at arm time. *)

type gauges
(** A fixed ring of the newest gauge samples. *)

val gauges : int -> gauges
(** An empty ring keeping the newest [n > 0] samples. *)

val record : gauges -> seq:int -> depth:int -> drops:int -> unit
(** Add a sample, evicting the oldest once full; allocates nothing. *)

val samples : gauges -> sample list
(** Held samples, oldest first. *)

val heartbeats : Timeseries.window -> int
(** The window's summed [sched/heartbeat/<cpu>] deltas, over the same
    counter slots {!check}'s cpu-silent rule reads. *)

val check : config:config -> Timeseries.t -> gauges -> report list
(** Evaluate every rule over the newest retained windows (at most
    [max (silent_windows + 1) 8]) and the held samples.  Counter slots
    are resolved from names only when the registry has grown, and the
    windows are read in place, so a sweep that reports nothing
    allocates nothing.  Deterministic: sorted by {!report_key}.
    Reports repeat on later checks while their condition persists —
    the monitor dedupes by {!report_key}. *)

val pp_report : Format.formatter -> report -> unit
