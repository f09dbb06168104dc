(** Incremental obligation discharge: per-transition dirty sets.

    Verus re-verifies only the functions whose dependencies changed;
    this layer gives the executable verifier the same locality.  A
    process-global {e dirty tracker} subscribes, under the key
    ["verif-incremental"], to the {!Atmo_util.Hook} channel of every
    annotated state container — {!Atmo_pm.Perm_map.mutations}
    (per-map), {!Atmo_pmem.Page_alloc.events},
    {!Atmo_pt.Page_table.mutations} and
    {!Atmo_core.Kernel.device_mutations} — and records, per {e map id}, how many mutations it
    has observed ([seen]) versus how many had been observed when each
    map's obligations were last discharged ([acked]).  A map is dirty
    iff [seen > acked]; {!run} re-discharges only obligations whose
    {!Obligation.t.reads} intersect the dirty set and splices cached
    verdicts for the rest, acking everything on completion.

    {b Map ids.}  ["pm/<name>"] marks any mutation of the permission
    map [<name>]; ["pm/<name>/dom"] marks only domain changes
    (alloc/consume — functional [update]s leave it clean), so
    domain-only readers such as the closure-disjointness check skip
    value updates.  ["pmem/alloc"], ["pt"] and ["kernel/devices"] cover
    the allocator, every page table, and the device/IRQ tables.

    {b Auditability.}  Each hooked layer also maintains an always-on
    intrinsic mutation counter.  The tracker snapshots baselines at
    {!arm} and keeps [intrinsic = baseline + seen] as an invariant
    (re-established by {!suspend}, which obligation discharge uses so
    scratch-world mutations don't dirty the tracked kernel).  A
    mutation observed by a layer but never by the tracker breaks the
    equation — atmo_san's [stale-proof] lint reports exactly that via
    {!audit}. *)

val pm_id : string -> string  (** ["pm/<name>"] *)

val pm_dom_id : string -> string  (** ["pm/<name>/dom"] *)

val alloc_id : string
val pt_id : string
val dev_id : string

val arm : unit -> unit
(** Install the tracker (fresh dirty sets, empty verdict cache,
    baselines snapshotted now).  Replaces any previous tracker. *)

val disarm : unit -> unit
val is_armed : unit -> bool

val suspend : (unit -> 'a) -> 'a
(** Run [f] with dirty marking off, then resync audit baselines so the
    mutations [f] performed are neither dirtying nor flagged stale. *)

val set_miss_plant : bool -> unit
(** Fault injection for the [stale-proof] lint: while on, the tracker
    drops marks on the floor (no dirty marking, no [seen] bump) while
    the layers' intrinsic counters keep advancing — the signature of a
    state container mutated behind the verifier's back. *)

val is_dirty : string -> bool
(** [true] when the id has unacked mutations; [true] for every id when
    no tracker is armed (everything must be re-checked). *)

val dirty_ids : unit -> string list

val audit : unit -> (string * int * int) list
(** [(id, expected, observed)] for every audited id where the intrinsic
    mutation count disagrees with what the tracker observed;
    empty when nothing is armed or nothing was missed. *)

val run : ?threads:int -> Obligation.t list -> Runner.report
(** Incremental discharge against the armed tracker: re-check
    obligations whose read set intersects the dirty set (or that are
    unannotated / not yet cached), splice cached verdicts for the rest,
    then ack all dirty marks and refresh the cache.  Falls back to a
    plain full {!Runner.run} when no tracker is armed. *)
