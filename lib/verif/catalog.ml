open Atmo_util
module Phys_mem = Atmo_hw.Phys_mem
module Pte = Atmo_hw.Pte_bits
module Page_state = Atmo_pmem.Page_state
module Page_alloc = Atmo_pmem.Page_alloc
module Page_table = Atmo_pt.Page_table
module Pt_refine = Atmo_pt.Pt_refine
module Nros_pt = Atmo_pt.Nros_pt
module Pm_invariants = Atmo_pm.Pm_invariants
module Pm_invariants_rec = Atmo_pm.Pm_invariants_rec
module Kernel = Atmo_core.Kernel
module Invariants = Atmo_core.Invariants
module Syscall = Atmo_spec.Syscall
module Message = Atmo_pm.Message
module Proc_mgr = Atmo_pm.Proc_mgr

(* ------------------------------------------------------------------ *)
(* Page-table worlds                                                   *)

let build_pt ~mappings =
  let mem = Phys_mem.create ~page_count:(mappings + 4096) in
  let alloc = Page_alloc.create mem ~reserved_frames:0 in
  let pt =
    match Page_table.create mem alloc with
    | Ok pt -> pt
    | Error _ -> invalid_arg "Catalog.build_pt: create failed"
  in
  (* spread 4 KiB mappings over several L4 subtrees so the hierarchical
     checker's per-subtree re-derivation cost is visible, as it would be
     on a real multi-region address space *)
  for i = 0 to mappings - 1 do
    let va =
      ((i / 512) lsl 39) lor (0x4000_0000 + ((i mod 512) * 4096))
    in
    match Page_alloc.alloc_4k alloc ~purpose:Page_alloc.User with
    | Some frame ->
      (match Page_table.map_4k pt ~vaddr:va ~frame ~perm:Pte.perm_rw with
       | Ok () -> ()
       | Error _ -> ignore (Page_alloc.dec_ref alloc ~addr:frame))
    | None -> ()
  done;
  (* a couple of superpage mappings exercise the huge-leaf clauses *)
  (match Page_alloc.alloc_2m alloc ~purpose:Page_alloc.User with
   | Some big ->
     ignore (Page_table.map_2m pt ~vaddr:0x8000_0000 ~frame:big ~perm:Pte.perm_ro)
   | None -> ());
  pt

(* Standalone page-table worlds mutate only through the table itself,
   so the whole suite reads exactly the "pt" map id. *)
let pt_obligations_flat pt =
  List.map
    (fun (name, check) ->
      Obligation.make ~reads:[ Incremental.pt_id ] ~name ~group:"pt-flat" (fun () ->
          check pt))
    Pt_refine.obligations

let pt_obligations_recursive pt =
  List.map
    (fun (name, check) ->
      Obligation.make ~reads:[ Incremental.pt_id ] ~name ~group:"pt-rec" (fun () ->
          check pt))
    Nros_pt.obligations

(* ------------------------------------------------------------------ *)
(* Kernel worlds                                                       *)

let errf fmt = Format.kasprintf (fun s -> Error s) fmt

let build_world ~scale =
  let boot =
    {
      Kernel.frames = 8192;
      reserved_frames = 16;
      root_quota = 8000;
      cpus = Iset.of_range ~lo:0 ~hi:8;
    }
  in
  match Kernel.boot boot with
  | Error e -> errf "boot: %a" Errno.pp e
  | Ok (k, init) ->
    let failed = ref None in
    let note what r =
      match r with
      | Syscall.Rerr e when !failed = None ->
        failed := Some (Format.asprintf "%s: %a" what Errno.pp e)
      | _ -> ()
    in
    for c = 0 to scale - 1 do
      match Kernel.step k ~thread:init (Syscall.New_container { quota = 96; cpus = Iset.empty }) with
      | Syscall.Rptr cntr ->
        (* two processes with threads, endpoints and mappings each *)
        for _p = 0 to 1 do
          match Proc_mgr.new_process k.Kernel.pm ~container:cntr ~parent:None with
          | Error e -> note "new_process" (Syscall.Rerr e)
          | Ok proc ->
            (match Proc_mgr.new_thread k.Kernel.pm ~proc with
             | Error e -> note "new_thread" (Syscall.Rerr e)
             | Ok th ->
               note "endpoint" (Kernel.step k ~thread:th (Syscall.New_endpoint { slot = 0 }));
               note "mmap"
                 (Kernel.step k ~thread:th
                    (Syscall.Mmap
                       {
                         va = 0x4000_0000 + (c * 0x10_0000);
                         count = 8;
                         size = Page_state.S4k;
                         perm = Pte.perm_rw;
                       })))
        done
      | r -> note "new_container" r
    done;
    (* some IPC traffic so queues and message buffers are populated: a
       helper thread blocks sending on init's endpoint (init itself must
       stay runnable — it is the harness's syscall driver) *)
    (match Kernel.step k ~thread:init (Syscall.New_endpoint { slot = 0 }) with
     | Syscall.Rptr ep ->
       (match Kernel.step k ~thread:init Syscall.New_thread with
        | Syscall.Rptr helper ->
          Proc_mgr.share_endpoint k.Kernel.pm ~thread:helper ~slot:0 ~endpoint:ep;
          ignore
            (Kernel.step k ~thread:helper
               (Syscall.Send { slot = 0; msg = Message.scalars_only [ 1 ] }))
        | r -> note "helper thread" r)
     | r -> note "init endpoint" r);
    (* a live device with an open DMA window, so IOMMU invariants and
       the io_map/io_unmap specs are exercised on every world *)
    note "init mmap"
      (Kernel.step k ~thread:init
         (Syscall.Mmap
            { va = 0x5000_0000; count = 1; size = Page_state.S4k; perm = Pte.perm_rw }));
    note "assign device" (Kernel.step k ~thread:init (Syscall.Assign_device { device = 0 }));
    note "io_map"
      (Kernel.step k ~thread:init
         (Syscall.Io_map { device = 0; iova = 0x9000_0000; va = 0x5000_0000 }));
    note "register_irq"
      (Kernel.step k ~thread:init (Syscall.Register_irq { device = 0; slot = 0 }));
    note "irq_fire" (Kernel.step k ~thread:init (Syscall.Irq_fire { device = 0 }));
    (match !failed with Some msg -> Error msg | None -> Ok (k, init))

(* Kernel-world obligations are generated from the refinement
   annotations ({!Refine.builtins}) rather than hand-enumerated here:
   one obligation per annotated predicate, each carrying the read-set
   footprint the incremental runner needs.  The hand-written lists in
   [Invariants]/[Pm_invariants] remain the checks themselves; this
   module no longer decides which of them exist.  (The aggregate
   [kernel/pm_wf] entry is gone — it duplicated every [pm/*] obligation
   verbatim and would shadow their per-name timing.) *)
let kernel_obligations k = Refine.obligations k

(* ------------------------------------------------------------------ *)
(* Container-tree worlds (ablation)                                    *)

let build_tree ~depth ~fanout =
  let boot =
    {
      Kernel.frames = 16384;
      reserved_frames = 16;
      root_quota = 16000;
      cpus = Iset.of_range ~lo:0 ~hi:8;
    }
  in
  match Kernel.boot boot with
  | Error e -> errf "boot: %a" Errno.pp e
  | Ok (k, _init) ->
    let pm = k.Kernel.pm in
    let rec chain parent quota d =
      if d >= depth || quota < 4 + fanout then Ok ()
      else
        match Proc_mgr.new_container pm ~parent ~quota:(quota - 2) ~cpus:Iset.empty with
        | Error e -> errf "chain at depth %d: %a" d Errno.pp e
        | Ok node ->
          let rec leaves i =
            if i >= fanout then Ok ()
            else
              match Proc_mgr.new_container pm ~parent:node ~quota:1 ~cpus:Iset.empty with
              | Error e -> errf "leaf: %a" Errno.pp e
              | Ok _ -> leaves (i + 1)
          in
          (match leaves 0 with
           | Error _ as e -> e
           | Ok () -> chain node (quota - 2 - (2 * fanout)) (d + 1))
    in
    (match chain pm.Proc_mgr.root_container 15000 0 with
     | Error _ as e -> e
     | Ok () -> Ok k)

let tree_flat_checks =
  [
    ("pm/path_wf", Pm_invariants.path_wf);
    ("pm/subtree_wf", Pm_invariants.subtree_wf);
    ("pm/parent_child_wf", Pm_invariants.parent_child_wf);
  ]

let pm_tree_obligations_flat k =
  List.map
    (fun (name, check) ->
      Obligation.make ~name ~group:"pm-tree-flat" (fun () -> check k.Kernel.pm))
    tree_flat_checks

let pm_tree_obligations_recursive k =
  List.map
    (fun (name, check) ->
      Obligation.make ~name ~group:"pm-tree-rec" (fun () -> check k.Kernel.pm))
    Pm_invariants_rec.obligations

(* ------------------------------------------------------------------ *)
(* Per-syscall transition obligations                                  *)

(* For each system call, a fresh world is driven through transitions of
   mostly that call (interleaved with setup calls), each checked against
   the top-level specification.  One obligation per call = one bar of
   Figure 2. *)
let syscall_kinds =
  [
    ("mmap", 0); ("munmap", 1); ("mprotect", 2); ("new_container", 3);
    ("new_process", 4); ("new_thread", 5); ("new_endpoint", 6);
    ("close_endpoint", 7); ("send", 8); ("recv", 9); ("send_nb", 10);
    ("recv_nb", 11); ("recv_reject", 12); ("yield", 13);
    ("terminate_container", 14); ("terminate_process", 15); ("assign_device", 16);
    ("io_map", 17); ("io_unmap", 18); ("register_irq", 19); ("irq_fire", 20);
  ]

let call_of_kind rng kind k ~thread:_ =
  let open Syscall in
  let slot = Random.State.int rng Atmo_pm.Kconfig.max_endpoint_slots in
  let va = 0x4000_0000 + (Random.State.int rng 64 * 4096) in
  match kind with
  | 0 -> Mmap { va; count = 1 + Random.State.int rng 4; size = Page_state.S4k; perm = Pte.perm_rw }
  | 1 -> Munmap { va; count = 1 + Random.State.int rng 2; size = Page_state.S4k }
  | 2 -> Mprotect { va; perm = Pte.perm_ro }
  | 3 -> New_container { quota = 8 + Random.State.int rng 16; cpus = Iset.empty }
  | 4 -> New_process
  | 5 -> New_thread
  | 6 -> New_endpoint { slot }
  | 7 -> Close_endpoint { slot }
  | 8 -> Send { slot; msg = Message.scalars_only [ Random.State.int rng 100 ] }
  | 9 -> Recv { slot }
  | 10 -> Send_nb { slot; msg = Message.scalars_only [ 7 ] }
  | 11 -> Recv_nb { slot }
  | 12 -> Recv_reject { slot }
  | 13 -> Yield
  | 14 -> Terminate_container { container = Refine_harness.random_ptr rng k }
  | 15 -> Terminate_process { proc = Refine_harness.random_ptr rng k }
  | 16 -> Assign_device { device = Random.State.int rng 8 }
  | 17 ->
    (* device 0 with source 0x5000_0000 is the world's live window, so
       success paths are exercised alongside the error paths *)
    Io_map
      {
        device = Random.State.int rng 2;
        iova = 0x9000_0000 + (Random.State.int rng 8 * 4096);
        va = (if Random.State.bool rng then 0x5000_0000 else va);
      }
  | 18 ->
    Io_unmap
      { device = Random.State.int rng 2; iova = 0x9000_0000 + (Random.State.int rng 8 * 4096) }
  | 19 -> Register_irq { device = Random.State.int rng 2; slot = Random.State.int rng 4 }
  | _ -> Irq_fire { device = Random.State.int rng 3 }

(* Spec obligations build a FRESH scratch world per discharge, so they
   read nothing of the tracked kernel: [reads = Some []] means a cached
   verdict stays valid across transitions of the live world.  (Their
   own mutations are kept out of the dirty set by [Incremental.suspend]
   around discharge.) *)
let syscall_obligation ~scale (name, kind) =
  Obligation.make ~reads:[] ~name:("spec/" ^ name) ~group:"spec" (fun () ->
      match build_world ~scale with
      | Error msg -> Error msg
      | Ok (k, _) ->
        let rng = Random.State.make [| kind + 100 |] in
        let steps = 40 in
        let rec go i =
          if i >= steps then Ok ()
          else
            match Refine_harness.random_thread rng k with
            | None -> Ok ()
            | Some thread ->
              (* two thirds targeted calls, one third background noise *)
              let call =
                if Random.State.int rng 3 < 2 then call_of_kind rng kind k ~thread
                else Refine_harness.random_call rng k ~thread
              in
              let o = Refine_harness.step_checked k ~thread call in
              (match (o.Refine_harness.spec, o.Refine_harness.wf) with
               | Ok (), Ok () -> go (i + 1)
               | Error msg, _ | _, Error msg -> Error msg)
        in
        go 0)

let syscall_obligations ~scale = List.map (syscall_obligation ~scale) syscall_kinds

(* The suite over a caller-supplied kernel: this is what the
   incremental verifier tracks — the kernel must outlive the suite so
   transitions can be applied between runs. *)
let suite_for ~scale k =
  let pt = build_pt ~mappings:(scale * 64) in
  pt_obligations_flat pt @ kernel_obligations k @ syscall_obligations ~scale

let full_suite ~scale =
  match build_world ~scale with
  | Error msg -> Error msg
  | Ok (k, _) -> Ok (suite_for ~scale k)
