(** Refinement annotations: obligations by annotation, not enumeration.

    The liquid-types idiom (dsolve's [pmap.ml]): each kernel state
    container — a {!Atmo_pm.Perm_map}, the page allocator, the page
    tables, the device table — carries refinement predicates written
    against the store ("every mapped vpage's ppage is marked used",
    "shared endpoints resolve to live containers", "PTE present ⇒
    frame within reservation").  Every annotation auto-generates one
    {!Obligation.t} whose [reads] footprint feeds the incremental
    dirty-set verifier, so a new map gets its obligations by adding an
    annotation — not by editing the catalog. *)

type annotation = {
  target : string;  (** annotated container's map id, e.g. ["pm/cntr_perms"] *)
  name : string;  (** generated obligation name *)
  group : string;
  predicate : string;  (** dsolve-style refinement predicate (documentation) *)
  reads : string list;  (** footprint in {!Incremental} map ids *)
  check : Atmo_core.Kernel.t -> (unit, string) Stdlib.result;
      (** executable discharge of the predicate *)
}

val builtins : annotation list
(** The kernel's shipped annotations: every [Pm_invariants] (flat and
    recursive), allocator, page-table, device and IRQ invariant, plus
    three annotation-native predicates ([refine/*]) that never had a
    hand-written catalog entry. *)

val register : annotation -> unit
(** Add an annotation for a new map.  Raises [Invalid_argument] on a
    duplicate name. *)

val annotations : unit -> annotation list
(** Builtins followed by registrations. *)

val obligations : Atmo_core.Kernel.t -> Obligation.t list
(** One obligation per annotation, bound to [k], each tagged with its
    read set.  Replaces the hand-enumerated kernel-world entries of
    {!Catalog}. *)
