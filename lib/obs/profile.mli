(** Post-mortem profiler over a decoded flight-recorder stream.

    {!build} rebuilds the span forest (parent links are read from the
    {!Event.Span_begin} events, so a wrapped ring degrades gracefully:
    ends without begins are counted in {!truncated}, begins without
    ends become zero-length truncated spans) plus the causal-edge
    list.  On top of the forest: collapsed stacks in the folded format
    flamegraph tooling consumes, a self/total cycle table per span
    kind, and reachability across parent links {e and} causal edges —
    the query that reconstructs one request's full path across CPUs,
    an IPC rendezvous, and a driver completion. *)

type span = {
  id : int;
  kind : int;  (** kind code; {!Span.label_of_code} names it *)
  owner : int;
  cpu : int;
  t0 : int;
  mutable t1 : int;
  parent : int;
  mutable children : int list;
  mutable ended : bool;
}

type edge = { ekind : int; src : int; dst : int; ets : int }

type t

val build : Event.record list -> t
val find : t -> int -> span option
val spans : t -> span list
val roots : t -> int list
val edges : t -> edge list

val truncated : t -> int
(** [Span_end] events whose begin was overwritten by ring wraparound. *)

val span_count : t -> int
val duration : span -> int

val self_cycles : t -> span -> int
(** Duration minus summed durations of direct children (clamped ≥ 0). *)

val collapsed : t -> (string * int) list
(** Folded stacks: [root;child;...;kind] paths with summed self
    cycles, sorted by path.  Feed to [flamegraph.pl] / speedscope. *)

type kind_stat = { klabel : string; count : int; self : int; total : int }

val kind_table : t -> kind_stat list
(** Per-kind aggregate sorted by descending self cycles. *)

val reachable : t -> from:int -> int list
(** Span ids connected to [from] through parent/child links and causal
    edges (undirected), sorted. *)

val edges_within : t -> int list -> edge list
(** Edges with both endpoints inside the given span-id set. *)

val pp_kind_table : Format.formatter -> t -> unit
