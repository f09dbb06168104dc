(** Flat linear permission maps.

    Executable model of the paper's
    [Tracked<Map<Ptr, PointsTo<T>>>] fields: all permissions to the
    objects of one kind live in a single flat map at the top of the
    subsystem.  Verus enforces linearity statically; here the same
    discipline is enforced dynamically — a permission is created exactly
    once per allocation ({!alloc}), must be presented for every access
    ({!borrow} / {!update}), and is consumed exactly once at deallocation
    ({!consume}).  Violations raise {!Permission_violation}, the runtime
    analogue of a Verus type error.

    Stored values are immutable records; updates are functional, echoing
    Verus's setter functions for tracked permissions. *)

exception Permission_violation of string

type 'a t

val create : name:string -> 'a t
val name : 'a t -> string

val alloc : 'a t -> ptr:int -> 'a -> unit
(** Install the permission for a freshly allocated object page.  Raises
    {!Permission_violation} if a permission for [ptr] already exists
    (double allocation). *)

val consume : 'a t -> ptr:int -> 'a
(** Remove and return the permission at deallocation.  Raises if
    absent (double free / use of a dangling pointer). *)

val borrow : 'a t -> ptr:int -> 'a
(** Read access through the permission; raises if absent. *)

val borrow_opt : 'a t -> ptr:int -> 'a option

val update : 'a t -> ptr:int -> ('a -> 'a) -> unit
(** Mutate by functional replacement; raises if absent. *)

val mem : 'a t -> ptr:int -> bool
val dom : 'a t -> Atmo_util.Iset.t
val cardinal : 'a t -> int
val iter : (int -> 'a -> unit) -> 'a t -> unit
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
val for_all : (int -> 'a -> bool) -> 'a t -> bool

val bindings : 'a t -> (int * 'a) list
(** All (pointer, permission) pairs in increasing pointer order; the
    map's ghost-state view for auditors and tests. *)

val mutations : (name:string -> op:string -> ptr:int -> unit) Atmo_util.Hook.t
(** Every mutation attempt ([op] is ["alloc"], ["consume"] or
    ["update"]) on every map, fired before the linearity guard; borrows
    are reads and are not reported.  Subscribed by atmo_san's
    lock-discipline checker and the incremental verifier's dirty
    tracker.  The intrinsic count is per name ({!mutation_count}); the
    channel's own counter stays at zero. *)

val read_section : 'a t -> (unit -> 'b) -> 'b
(** Seqlock-style optimistic read section: run [f] (borrows only) and
    retry if the map's write epoch, bumped by every mutation attempt,
    moved underneath it (a writer interleaved), bounded at 8 retries.
    Retries are counted under the [pm/read_retries] metric. *)

val mutation_count : name:string -> int
(** Intrinsic mutation count for every map ever created with [name],
    summed over all instances (scratch worlds included).  Always on and
    independent of {!mutations}' subscribers: atmo_san's [stale-proof] lint
    compares it against the dirty tracker's observed count, so a
    mutation that bypassed the tracker is detectable. *)
