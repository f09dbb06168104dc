(** Keyed subscriber channels: the one observer mechanism every layer
    uses to report its mutations and accesses.

    A channel is a process-global value owned by the layer that fires
    it ({!Atmo_pm.Perm_map.mutations}, {!Atmo_hw.Phys_mem.accesses},
    ...).  ['f] is the subscriber's function type, so a layer keeps its
    payload's arity and labels and builds nothing to fire.  A firing
    site reads

    {[
      Hook.note h;
      if h.armed then List.iter (fun (_, f) -> f ~op) h.subs
    ]}

    With no subscriber the guard is one field load and allocates
    nothing.  A site whose mutations are audited calls {!note} before
    the guard, so the intrinsic count is independent of dispatch: the
    stale-proof lint compares it with what a subscriber saw. *)

type 'f t = private {
  mutable armed : bool;  (** true iff [subs] is non-empty *)
  mutable subs : (string * 'f) list;
      (** (key, subscriber), most recently added first *)
  count : int Atomic.t;
}

val create : unit -> 'f t

val add : 'f t -> key:string -> 'f -> unit
(** Subscribe [f] under [key], replacing any subscriber with that key,
    and arm the channel. *)

val remove : 'f t -> key:string -> unit
(** Drop the subscriber under [key], if any; the channel disarms when
    the last one goes. *)

val note : 'f t -> unit
(** Bump the always-on intrinsic counter (atomic: safe from any
    domain). *)

val count : 'f t -> int
(** Intrinsic count: every {!note} since program start. *)
