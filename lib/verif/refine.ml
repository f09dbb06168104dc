open Atmo_util
module Page_alloc = Atmo_pmem.Page_alloc
module Page_state = Atmo_pmem.Page_state
module Page_table = Atmo_pt.Page_table
module Perm_map = Atmo_pm.Perm_map
module Proc_mgr = Atmo_pm.Proc_mgr
module Process = Atmo_pm.Process
module Endpoint = Atmo_pm.Endpoint
module Pm_invariants = Atmo_pm.Pm_invariants
module Pm_invariants_rec = Atmo_pm.Pm_invariants_rec
module Kernel = Atmo_core.Kernel
module Invariants = Atmo_core.Invariants

type annotation = {
  target : string;
  name : string;
  group : string;
  predicate : string;
  reads : string list;
  check : Kernel.t -> (unit, string) Stdlib.result;
}

let err fmt = Format.kasprintf (fun s -> Error s) fmt

(* Id shorthands for the annotation tables below. *)
let cntr = Incremental.pm_id "cntr_perms"
let proc = Incremental.pm_id "proc_perms"
let thrd = Incremental.pm_id "thrd_perms"
let edpt = Incremental.pm_id "edpt_perms"
let cntr_dom = Incremental.pm_dom_id "cntr_perms"
let proc_dom = Incremental.pm_dom_id "proc_perms"
let thrd_dom = Incremental.pm_dom_id "thrd_perms"
let edpt_dom = Incremental.pm_dom_id "edpt_perms"
let palloc = Incremental.alloc_id
let pt = Incremental.pt_id
let dev = Incremental.dev_id

(* ------------------------------------------------------------------ *)
(* New annotation-native checks                                        *)

(* Walk every page table in the system (process address spaces and
   device DMA windows) applying [f va entry] under a naming context. *)
let fold_tables (k : Kernel.t) f =
  let ( let* ) r g = match r with Ok () -> g () | Error _ as e -> e in
  let* () =
    Perm_map.fold
      (fun ptr (p : Process.t) acc ->
        let* () = acc in
        f (Printf.sprintf "process 0x%x" ptr) p.Process.pt)
      k.Kernel.pm.Proc_mgr.proc_perms (Ok ())
  in
  Imap.fold
    (fun device (d : Kernel.device_info) acc ->
      let* () = acc in
      f (Printf.sprintf "device %d io_pt" device) d.Kernel.io_pt)
    k.Kernel.devices (Ok ())

let mapped_frames_used (k : Kernel.t) =
  fold_tables k (fun who table ->
      Imap.fold
        (fun va (e : Page_table.entry) acc ->
          match acc with
          | Error _ -> acc
          | Ok () -> (
            match Page_alloc.state_of k.Kernel.alloc ~addr:e.Page_table.frame with
            | Some (Page_state.Mapped _) -> Ok ()
            | Some st ->
              err "%s: vpage 0x%x -> ppage 0x%x is %a, not mapped" who va
                e.Page_table.frame Page_state.pp_state st
            | None ->
              err "%s: vpage 0x%x -> ppage 0x%x outside the allocator" who va
                e.Page_table.frame))
        (Page_table.address_space table)
        (Ok ()))

let endpoints_live_containers (k : Kernel.t) =
  Perm_map.fold
    (fun ptr (e : Endpoint.t) acc ->
      match acc with
      | Error _ -> acc
      | Ok () ->
        if Perm_map.mem k.Kernel.pm.Proc_mgr.cntr_perms ~ptr:e.Endpoint.owner_container
        then Ok ()
        else
          err "endpoint 0x%x owned by dead container 0x%x" ptr
            e.Endpoint.owner_container)
    k.Kernel.pm.Proc_mgr.edpt_perms (Ok ())

let pte_within_reservation (k : Kernel.t) =
  let alloc = k.Kernel.alloc in
  let page = Atmo_hw.Phys_mem.page_size in
  let nframes = Atmo_hw.Phys_mem.page_count (Page_alloc.mem alloc) in
  let first = nframes - Page_alloc.managed_frames alloc in
  let lo = first * page and hi = nframes * page in
  fold_tables k (fun who table ->
      List.fold_left
        (fun acc (va, (e : Page_table.entry)) ->
          match acc with
          | Error _ -> acc
          | Ok () ->
            let bytes = Page_state.bytes_per e.Page_table.size in
            if e.Page_table.frame >= lo && e.Page_table.frame + bytes <= hi then Ok ()
            else
              err "%s: PTE at 0x%x -> frame 0x%x(+%d) outside reservation [0x%x,0x%x)"
                who va e.Page_table.frame bytes lo hi)
        (Ok ())
        (Page_table.walk_concrete table))

(* ------------------------------------------------------------------ *)
(* Built-in annotations                                                *)

(* Each annotation attaches a dsolve-style refinement predicate to one
   state container (SNIPPETS.md, nyu-acsys/dsolve tests/pmap.ml writes
   page-map invariants the same way: a predicate over the store,
   quantified over its domain).  The [check] is the predicate's
   executable discharge; [reads] is its footprint in map ids, which is
   what makes the dirty-set verifier sound: a check may only be skipped
   if nothing it reads changed. *)
let pm_check f (k : Kernel.t) = f k.Kernel.pm

let builtins : annotation list =
  [
    (* --- container tree (cntr_perms) --- *)
    {
      target = cntr;
      name = "pm/containers_wf";
      group = "pm";
      predicate = "cntr :: (c:ptr, {v: quota v >= 0 && cpus v <= parent_cpus v}) Store.t";
      reads = [ cntr ];
      check = pm_check Pm_invariants.containers_wf;
    };
    {
      target = cntr;
      name = "pm/path_wf";
      group = "pm";
      predicate = "cntr :: (c:ptr, {v: path v = parent_path v ++ [c]}) Store.t";
      reads = [ cntr ];
      check = pm_check Pm_invariants.path_wf;
    };
    {
      target = cntr;
      name = "pm/parent_child_wf";
      group = "pm";
      predicate = "cntr :: (c:ptr, {v: forall ch in children v. parent ch = c}) Store.t";
      reads = [ cntr ];
      check = pm_check Pm_invariants.parent_child_wf;
    };
    {
      target = cntr;
      name = "pm/subtree_wf";
      group = "pm";
      predicate = "cntr :: (c:ptr, {v: subtree v = {c} U Union (subtree ch)}) Store.t";
      reads = [ cntr ];
      check = pm_check Pm_invariants.subtree_wf;
    };
    {
      target = proc;
      name = "pm/process_tree_wf";
      group = "pm";
      predicate =
        "proc :: (p:ptr, {v: owner v in dom cntr && forall t in threads v. owner_proc t = p}) Store.t";
      reads = [ cntr; proc; thrd ];
      check = pm_check Pm_invariants.process_tree_wf;
    };
    {
      target = thrd;
      name = "pm/scheduler_wf";
      group = "pm";
      predicate =
        "thrd :: (t:ptr, {v: state v = Runnable <=> t in run_queue} ) Store.t";
      reads = [ thrd; edpt ];
      check = pm_check Pm_invariants.scheduler_wf;
    };
    {
      target = edpt;
      name = "pm/endpoints_wf";
      group = "pm";
      predicate =
        "edpt :: (e:ptr, {v: refcount v = |slots pointing at e| && queued threads blocked on e}) Store.t";
      reads = [ thrd; edpt; cntr ];
      check = pm_check Pm_invariants.endpoints_wf;
    };
    {
      target = cntr;
      name = "pm/quota_wf";
      group = "pm";
      predicate = "cntr :: (c:ptr, {v: used v <= quota v && used v = Sum owned pages}) Store.t";
      reads = [ cntr; proc_dom; thrd_dom; edpt; pt ];
      check = pm_check Pm_invariants.quota_wf;
    };
    (* --- recursive restatements (ablation; same footprint) --- *)
    {
      target = cntr;
      name = "pm_rec/path_wf";
      group = "pm-rec";
      predicate = "cntr :: rec(c). path c = path (parent c) ++ [c]";
      reads = [ cntr ];
      check = pm_check Pm_invariants_rec.path_wf;
    };
    {
      target = cntr;
      name = "pm_rec/subtree_wf";
      group = "pm-rec";
      predicate = "cntr :: rec(c). subtree c = {c} U Union (subtree ch)";
      reads = [ cntr ];
      check = pm_check Pm_invariants_rec.subtree_wf;
    };
    {
      target = cntr;
      name = "pm_rec/acyclic";
      group = "pm-rec";
      predicate = "cntr :: rec(c). c not in subtree (children c)";
      reads = [ cntr ];
      check = pm_check Pm_invariants_rec.acyclic;
    };
    (* --- allocator (Page_state/Page_alloc) --- *)
    {
      target = palloc;
      name = "kernel/allocator_wf";
      group = "kernel";
      predicate =
        "alloc :: (f:frame, {v: free v <=> f on free_list (size v)} && aligned f (size v)) Store.t";
      reads = [ palloc ];
      check = Invariants.allocator_wf;
    };
    (* --- page tables --- *)
    {
      target = pt;
      name = "kernel/page_tables_wf";
      group = "kernel";
      predicate = "pt :: (va:addr, {v: walk cr3 va = ghost v}) Store.t, per process";
      reads = [ proc_dom; pt ];
      check = Invariants.page_tables_wf;
    };
    {
      target = pt;
      name = "kernel/closures_disjoint";
      group = "kernel";
      predicate = "closures :: {v: pairwise_disjoint (pages of every kernel object)}";
      reads = [ cntr_dom; proc_dom; thrd_dom; edpt_dom; pt; dev ];
      check = Invariants.closures_disjoint;
    };
    {
      target = palloc;
      name = "kernel/leak_freedom";
      group = "kernel";
      predicate = "alloc :: {v: allocated v = Union (closure of every kernel object)}";
      reads = [ cntr_dom; proc_dom; thrd_dom; edpt_dom; pt; palloc; dev ];
      check = Invariants.leak_freedom;
    };
    {
      target = pt;
      name = "kernel/mapped_consistent";
      group = "kernel";
      predicate =
        "alloc :: (f:frame, {v: refcount v = |{(space, va) : space va -> f}|}) Store.t";
      reads = [ proc_dom; pt; palloc; dev ];
      check = Invariants.mapped_consistent;
    };
    (* --- device / IRQ tables --- *)
    {
      target = dev;
      name = "kernel/devices_wf";
      group = "kernel";
      predicate =
        "dev :: (d:id, {v: owner v live && iommu_root v = cr3 (io_pt v) && external charge = |io pages|}) Store.t";
      reads = [ dev; proc_dom; cntr; edpt; pt ];
      check = Invariants.devices_wf;
    };
    {
      target = dev;
      name = "kernel/irq_backlog_wf";
      group = "kernel";
      predicate = "backlog :: (e:ptr, {v: v = Sum irq_pending over devices routed to e})";
      reads = [ dev ];
      check = Invariants.irq_backlog_wf;
    };
    (* --- annotation-native predicates (no hand-written catalog entry) --- *)
    {
      target = pt;
      name = "refine/mapped_frames_used";
      group = "refine";
      predicate = "pt :: (va:addr, {v: state (frame v) = Mapped n && n > 0}) Store.t";
      reads = [ proc_dom; pt; palloc; dev ];
      check = mapped_frames_used;
    };
    {
      target = edpt;
      name = "refine/endpoints_live_containers";
      group = "refine";
      predicate = "edpt :: (e:ptr, {v: owner_container v in dom cntr}) Store.t";
      reads = [ edpt; cntr_dom ];
      check = endpoints_live_containers;
    };
    {
      target = pt;
      name = "refine/pte_within_reservation";
      group = "refine";
      predicate = "pt :: (va:addr, {v: present v => lo <= frame v < hi}) Store.t";
      reads = [ proc_dom; pt; dev ];
      check = pte_within_reservation;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

let registered : annotation list ref = ref []

let register a =
  if List.exists (fun b -> b.name = a.name) (builtins @ !registered) then
    invalid_arg ("Refine.register: duplicate annotation " ^ a.name);
  registered := !registered @ [ a ]

let annotations () = builtins @ !registered

let obligation_of k a =
  Obligation.make ~reads:a.reads ~name:a.name ~group:a.group (fun () -> a.check k)

let obligations k = List.map (obligation_of k) (annotations ())
