(** Proof obligations.

    One obligation corresponds to one verification condition of the
    paper's proof: an invariant that must hold of a state, or a spec
    relation that must hold of a transition.  Where Verus discharges
    these statically through Z3, this reproduction discharges them by
    executable checking over concrete and generated states; the
    obligation carries everything the runner needs to time and report
    the discharge. *)

type result = {
  name : string;
  ok : bool;
  detail : string option;
      (** first violated clause; on an exception, the message followed
          by the captured backtrace (one frame per line) *)
  elapsed_s : float;
  cached : bool;  (** verdict reused from a previous run (incremental) *)
}

type t = {
  name : string;
  group : string;  (** subsystem, e.g. "pt", "pm", "kernel" *)
  reads : string list option;
      (** map ids ({!Incremental.map_id}) whose contents the check
          depends on.  [None] = unannotated, always re-checked;
          [Some []] = pure / world-independent, never re-checked once
          discharged; [Some l] = re-checked when a map in [l] is dirty. *)
  run : unit -> (unit, string) Stdlib.result;
}

val make :
  ?reads:string list ->
  name:string ->
  group:string ->
  (unit -> (unit, string) Stdlib.result) ->
  t

val now : unit -> float
(** Host seconds on the monotonic clock ([clock_gettime
    CLOCK_MONOTONIC], via bechamel): successive calls never decrease,
    so elapsed times cannot go negative under wall-clock steps. *)

val discharge : t -> result
(** Run and time one obligation.  A raising obligation fails with the
    exception message plus its backtrace (arm
    [Printexc.record_backtrace] — the runner does). *)

val pp_result : Format.formatter -> result -> unit
