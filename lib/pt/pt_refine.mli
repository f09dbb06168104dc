(** Flat refinement and invariant checks for {!Page_table}.

    Executable counterpart of the paper's page-table proof (§6.2): each
    function is one named obligation.  All checks are written in the
    paper's flat style — they quantify over the global ghost maps and the
    flat table-page registry, never by structural recursion from the
    root.  {!Nros_pt} provides the recursive (NrOS-style) formulation of
    the same obligations for the ablation. *)

val refinement : Page_table.t -> (unit, string) result
(** The ghost maps and the MMU agree: every ghost entry resolves through
    the concrete tables to the same frame and permission, and every
    MMU-visible mapping appears in the ghost maps (both inclusions, as in
    the paper's two [forall] statements). *)

val mmu_probe : Page_table.t -> vaddrs:int list -> (unit, string) result
(** Point-wise refinement at chosen probe addresses: [Mmu.resolve]
    agrees with the abstract address space, including on unmapped
    addresses (resolve must fault). *)

val structure : Page_table.t -> (unit, string) result
(** Structural invariants over the flat registry: the root is a level-4
    table; every present non-huge entry points to a registered table of
    the next level down; every non-root table is referenced by exactly
    one parent slot (no aliasing, hence no cycles); huge bits appear only
    at L3/L2; leaf frames are aligned to their mapping size. *)

val ghost_wf : Page_table.t -> (unit, string) result
(** Well-formedness of the abstract state alone: canonical, size-aligned
    virtual bases in each ghost map, and the virtual ranges of all
    mappings (across the three sizes) are pairwise disjoint. *)

val all : Page_table.t -> (unit, string) result
(** Conjunction of every obligation above, first failure wins. *)

val obligations : (string * (Page_table.t -> (unit, string) result)) list
(** Named obligations, for the verification-time harness. *)
