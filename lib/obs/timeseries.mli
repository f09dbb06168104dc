(** Windowed time-series rollups over the metrics registry.

    A wraparound ring of the last N windows, each holding the registry
    delta (counter increments, histogram bucket increments) for one
    slice of the cycle timeline.  {!tick} closes the open window with
    one {!Metrics.Snapshot.advance} pass into the ring slot's own
    buffers (reused on wraparound), so rollup cost is per window
    boundary, never per event, and a tick on a full ring over a stable
    registry allocates nothing.

    Boundaries follow whoever owns the timeline — the span layer's
    close path polls {!next_boundary} — so windows are {e at least}
    [window_cycles] wide; each records its actual edges and {!rate}
    divides by the real width. *)

type window = private {
  mutable seq : int;  (** 0-based tick number, monotone across wraparound *)
  mutable w_start : int;
  mutable w_end : int;
  delta : Metrics.Snapshot.t;  (** registry increment over this window *)
}
(** A ring slot: it describes its window until the ring wraps onto it
    ([capacity] ticks later), when it is rewritten in place. *)

type t

val create : ?windows:int -> window_cycles:int -> now:int -> unit -> t
(** A ring of [windows] slots (default 64) with the open window
    starting at [now].  The base snapshot is taken here, so activity
    before [create] never leaks into the first window. *)

val tick : t -> now:int -> unit
(** Close the open window at [now]: the registry's increment since the
    previous tick is written into the next ring slot (overwriting the
    oldest window once full); a fresh window opens at [now]. *)

val ticks : t -> int
(** Windows closed so far (not capped by the ring size). *)

val capacity : t -> int
val window_cycles : t -> int

val next_boundary : t -> int
(** Earliest timestamp at which the open window is due to close. *)

val retained : t -> int
(** Windows in the ring: [min (ticks t) (capacity t)]. *)

val recent : t -> int -> window
(** [recent t k] is the [k]-th newest retained window ([0] = latest),
    read from the ring without copying; [k < retained t]. *)

val windows : t -> window list
(** Retained windows, oldest first (at most [capacity] of them). *)

val last : t -> int -> window list
(** Last [n] retained windows, oldest first. *)

val latest : t -> window option

val merged : t -> name:string -> n:int -> Metrics.Snapshot.hist
(** Bucket-wise sum of histogram [name]'s deltas over the last [n]
    windows — the streaming-quantile input (empty when the histogram
    never appeared). *)

val counter : window -> name:string -> int
(** Counter increment inside one window (0 when absent). *)

val rate : window -> name:string -> float
(** Counter increment divided by the window's actual width in cycles. *)
