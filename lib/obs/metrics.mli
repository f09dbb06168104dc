(** Monotonic counters and log2-bucketed latency histograms.

    Histogram bucket [i] covers values in [[2^i, 2^(i+1))] (bucket 0
    absorbs 0 and 1), so 63 buckets span the whole non-negative [int]
    range; quantiles report the upper edge of the selected bucket,
    clamped to the observed extremes, and are monotone in [q] by
    construction.  A process-global registry hands out metrics by name
    so instrumentation sites need no plumbing, and numbers each one
    densely at registration (its slot) so snapshots are flat arrays. *)

module Counter : sig
  type t

  val make : string -> t
  val name : t -> string
  val incr : ?by:int -> t -> unit
  (** Monotonic: non-positive [by] is ignored. *)

  val add : t -> int -> unit
  (** [add t by] is [incr ~by t] without boxing the optional argument,
      for callers that must not allocate. *)

  val value : t -> int
  val reset : t -> unit
end

module Histogram : sig
  type t

  val bucket_count : int
  val make : string -> t
  val name : t -> string
  val bucket_of : int -> int
  val observe : t -> int -> unit
  (** Record one sample (negative values clamp to 0). *)

  val count : t -> int
  val sum : t -> int
  val mean : t -> float
  val min_value : t -> int
  val max_value : t -> int

  val quantile : t -> float -> int
  (** [quantile t q] for [q] in [0,1]; 0 on an empty histogram. *)

  val p50 : t -> int
  val p90 : t -> int
  val p99 : t -> int
  val reset : t -> unit

  val buckets : t -> int array
  (** Copy of the raw bucket counts (length {!bucket_count}). *)

  val merge : into:t -> t -> unit
  (** [merge ~into src] accumulates [src] into [into] bucket-by-bucket.
      Shards sharing the bucket edges merge without precision loss:
      counts, sum, and extremes add exactly.  [src] is unchanged;
      merging a histogram into itself is a no-op. *)

  val pp_row : Format.formatter -> t -> unit
end

(** {2 Registry} *)

val counter : string -> Counter.t
(** Get-or-create by name. *)

val histogram : string -> Histogram.t

val counter_count : unit -> int
(** Counters registered so far; their slots are [0 .. counter_count () - 1],
    in registration order, fixed for the life of the process. *)

val counter_at : int -> Counter.t
(** The counter registered in a slot below {!counter_count}. *)

val bump : ?by:int -> string -> unit
val observe : string -> int -> unit
val all_counters : unit -> (string * Counter.t) list
val all_histograms : unit -> (string * Histogram.t) list
val reset : unit -> unit
(** Zero every registered metric in place (tests and fresh CLI runs).
    Registrations persist, so handles cached by instrumentation sites
    keep feeding the registry. *)

val dump : unit -> string
(** Deterministic full-registry snapshot: one line per metric, counters
    then histograms, each table sorted by name, zero values included.
    Stable across hash-table ordering — the anchor for exporters and
    golden-style test expectations. *)

val pp_table : Format.formatter -> unit -> unit
(** Histogram table (count / mean / p50 / p90 / p99 / max) followed by
    non-zero counters. *)

(** {2 Snapshots and deltas}

    A point-in-time copy of the whole registry as flat int arrays
    indexed by slot — the primitive under windowed time-series
    rollups.  {!Snapshot.advance} is the window tick: one pass over the
    slot arrays into buffers the caller keeps, allocation-free unless
    the registry grew.  Name order is computed only by
    {!Snapshot.listing}. *)
module Snapshot : sig
  type hist = { counts : int array; n : int; sum : int }
  (** Bucket counts (length {!Histogram.bucket_count}), sample count,
      and value sum.  In a delta, all three are the window's increment. *)

  type t
  (** Covers the slots registered when it was last written; a later
      slot reads as 0 (counters) or absent (histograms). *)

  val create : unit -> t
  (** Covers no slot. *)

  val take : unit -> t

  val advance : base:t -> into:t -> unit
  (** [advance ~base ~into] writes the per-slot increment from [base]
      to the live registry into [into] (bucket-wise for histograms),
      then makes [base] a copy of the live registry — one pass, with
      both regrown only when the registry has grown since they were
      last written.  Names registered after [base] diff against zero.
      Negative deltas (a {!val:reset} since [base]) clamp to zero, so a
      window spanning a reset reads as empty rather than garbage. *)

  val counter : t -> string -> int
  (** Value by name, 0 when absent. *)

  val counter_at : t -> int -> int
  (** Value by counter slot (see {!counter_count}), 0 when not covered. *)

  val hist : t -> string -> hist option

  val listing : t -> (string * int) list * (string * hist) list
  (** Counters and histograms, each sorted by name; zero-valued
      entries included. *)

  val merge_hists : hist list -> hist
  (** Bucket-wise sum — merging window deltas of one histogram loses no
      precision (shared bucket edges). *)

  val quantile : hist -> float -> int
  (** Upper edge of the bucket holding the q-th ranked sample (0 when
      empty) — bucket-exact against {!Histogram.quantile} over the same
      samples, without the observed-extreme clamp (a delta keeps no
      extremes). *)
end
