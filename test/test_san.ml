(* atmo-san unit tests: shadow permission map semantics, free-page
   poisoning, lock-discipline protocol, page-table lint and leak audit
   on live kernels, and the zero-overhead disabled path. *)

module Phys_mem = Atmo_hw.Phys_mem
module Pte = Atmo_hw.Pte_bits
module Page_state = Atmo_pmem.Page_state
module Page_alloc = Atmo_pmem.Page_alloc
module Perm_map = Atmo_pm.Perm_map
module Proc_mgr = Atmo_pm.Proc_mgr
module Kernel = Atmo_core.Kernel
module Syscall = Atmo_spec.Syscall
module Report = Atmo_san.Report
module Memsan = Atmo_san.Memsan
module Lockcheck = Atmo_san.Lockcheck
module Runtime = Atmo_san.Runtime

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let caught rule = List.exists (fun r -> r.Report.rule = rule) (Report.reports ())

(* ------------------------------------------------------------------ *)
(* shadow map                                                          *)

let test_out_of_reservation () =
  Helpers.with_san (fun () ->
      let mem = Phys_mem.create ~page_count:64 in
      let _a = Page_alloc.create mem ~reserved_frames:8 in
      (* reserved frames are outside the allocator: accesses pass *)
      Phys_mem.write_u64 mem ~addr:0x1000 1L;
      checki "reserved clean" 0 (Report.count ());
      (* a managed frame the allocator never handed out *)
      ignore (Phys_mem.read_u64 mem ~addr:(9 * 4096));
      checkb "out of reservation" true (caught Report.Out_of_reservation))

let test_untracked_memory_ignored () =
  Helpers.with_san (fun () ->
      (* a memory with no allocator (driver scratch, PT test rigs) is
         not judged *)
      let mem = Phys_mem.create ~page_count:16 in
      Phys_mem.write_u64 mem ~addr:0x2000 5L;
      ignore (Phys_mem.read_u64 mem ~addr:0x3000);
      checki "no reports" 0 (Report.count ()))

let test_dec_ref_double_free () =
  Helpers.with_san (fun () ->
      let mem = Phys_mem.create ~page_count:64 in
      let a = Page_alloc.create mem ~reserved_frames:0 in
      let p = Option.get (Page_alloc.alloc_4k a ~purpose:Page_alloc.User) in
      Page_alloc.inc_ref a ~addr:p;
      checkb "to live" true (Page_alloc.dec_ref a ~addr:p = `Live);
      checkb "to freed" true (Page_alloc.dec_ref a ~addr:p = `Freed);
      checki "refcounting clean" 0 (Report.count ());
      (try ignore (Page_alloc.dec_ref a ~addr:p) with Invalid_argument _ -> ());
      checkb "double free via dec_ref" true (caught Report.Double_free))

let test_poison_trample () =
  Helpers.with_san ~poison:true (fun () ->
      let mem = Phys_mem.create ~page_count:4 in
      let a = Page_alloc.create mem ~reserved_frames:0 in
      let ps =
        List.init 4 (fun _ -> Option.get (Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel))
      in
      let victim = List.nth ps 1 in
      Page_alloc.free_kernel_page a ~addr:victim;
      (* a stale-pointer store the hooks never see (suspended) damages
         the poison; the next claim of the frame must notice *)
      Memsan.suspend (fun () -> Phys_mem.write_u64 mem ~addr:victim 0x41L);
      checki "silent so far" 0 (Report.count ());
      let back = Option.get (Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel) in
      checki "only free frame reclaimed" victim back;
      checkb "poison trample" true (caught Report.Poison_trample))

let test_superpage_shadow () =
  Helpers.with_san (fun () ->
      (* a 2 MiB claim covers 512 frames: body frames are live too, and
         release frees the whole block *)
      let mem = Phys_mem.create ~page_count:1024 in
      let a = Page_alloc.create mem ~reserved_frames:0 in
      let p = Option.get (Page_alloc.alloc_2m a ~purpose:Page_alloc.Kernel) in
      Phys_mem.write_u64 mem ~addr:(p + (17 * 4096)) 1L;  (* body frame, live *)
      checki "body store clean" 0 (Report.count ());
      Page_alloc.free_kernel_page a ~addr:p;
      ignore (Phys_mem.read_u64 mem ~addr:(p + (17 * 4096)));
      checkb "body frame UAF" true (caught Report.Use_after_free))

(* ------------------------------------------------------------------ *)
(* neutrality of the armed (no-poison) path                            *)

let test_no_poison_keeps_memory_sparse () =
  let run armed =
    if armed then Runtime.arm ~poison:false ();
    Fun.protect ~finally:(fun () -> if armed then Runtime.disarm ())
      (fun () ->
        let mem = Phys_mem.create ~page_count:128 in
        let a = Page_alloc.create mem ~reserved_frames:4 in
        let p = Option.get (Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel) in
        Phys_mem.write_u64 mem ~addr:p 7L;
        Page_alloc.free_kernel_page a ~addr:p;
        let q = Option.get (Page_alloc.alloc_4k a ~purpose:Page_alloc.User) in
        ignore (Page_alloc.dec_ref a ~addr:q);
        Phys_mem.touched_frames mem)
  in
  let off = run false in
  let on = run true in
  checki "touched frames identical with san on (no poison)" off on;
  checki "armed run was clean" 0 (Report.count ())

let test_disarm_restores_zero_cost () =
  Runtime.arm ();
  Runtime.disarm ();
  checkb "access channel disarmed" false Phys_mem.accesses.armed;
  let mem = Phys_mem.create ~page_count:8 in
  let a = Page_alloc.create mem ~reserved_frames:0 in
  let p = Option.get (Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel) in
  Page_alloc.free_kernel_page a ~addr:p;
  ignore (Phys_mem.read_u64 mem ~addr:p);  (* UAF, but nobody watches *)
  checki "no reports when disarmed" 0 (Report.count ())

(* ------------------------------------------------------------------ *)
(* lock discipline                                                     *)

let test_lock_protocol () =
  Helpers.with_san ~lockcheck:true (fun () ->
      Lockcheck.release ~cpu:0;
      checkb "release without hold" true (caught Report.Lock_misuse);
      Report.clear ();
      Lockcheck.acquire ~site:"a" ~cpu:0;
      Lockcheck.acquire ~site:"b" ~cpu:1;
      checkb "double acquire" true (caught Report.Lock_misuse);
      Lockcheck.release ~cpu:1;
      checkb "provenance recorded" true
        (List.mem_assoc "a" (Lockcheck.acquisitions ())
        && List.mem_assoc "b" (Lockcheck.acquisitions ())))

let test_smp_runs_clean_under_lockcheck () =
  Helpers.with_san ~poison:false ~lockcheck:true (fun () ->
      let k, init = Helpers.boot () in
      Runtime.attach k;
      let { Atmo_workloads.Worlds.programs; _ } =
        Lockcheck.locked ~site:"test.setup" ~cpu:0 (fun () ->
            Atmo_workloads.Worlds.ping_pong k ~init)
      in
      (match Atmo_sim.Smp.run k ~cost:Atmo_sim.Cost.default ~cpus:2 ~programs ~iterations:20 with
       | Ok _ -> ()
       | Error msg -> Alcotest.failf "smp: %s" msg);
      checki "simulator takes the big lock" 0 (Report.count ());
      checkb "smp acquisition site recorded" true
        (List.mem_assoc "smp.big_lock" (Lockcheck.acquisitions ())))

(* ------------------------------------------------------------------ *)
(* whole-state checks on live kernels                                  *)

let test_booted_kernel_checks_clean () =
  Helpers.with_san ~poison:false (fun () ->
      let k, init = Helpers.boot () in
      Runtime.attach k;
      ignore
        (Kernel.step k ~thread:init
           (Syscall.Mmap { va = 0x4000_0000; count = 4; size = Page_state.S4k; perm = Pte.perm_rw }));
      ignore
        (Kernel.step k ~thread:init
           (Syscall.Mmap { va = 0x8000_0000; count = 1; size = Page_state.S2m; perm = Pte.perm_rw }));
      checki "lint + audit clean" 0 (Runtime.full_check k);
      checki "no access violations" 0 (Report.count ());
      checkb "accesses were actually checked" true (Memsan.checked () > 0))

let test_audit_catches_orphan_page () =
  Helpers.with_san ~poison:false (fun () ->
      let k, _ = Helpers.boot () in
      Runtime.attach k;
      checki "clean before" 0 (Atmo_san.Audit.leaks k);
      ignore (Page_alloc.alloc_4k k.Kernel.alloc ~purpose:Page_alloc.Kernel);
      checkb "orphan detected" true (Atmo_san.Audit.leaks k > 0 && caught Report.Leak))

let test_audit_after_teardown () =
  Helpers.with_san ~poison:false (fun () ->
      let k, init = Helpers.boot () in
      Runtime.attach k;
      (match Kernel.step k ~thread:init
               (Syscall.New_container { quota = 32; cpus = Atmo_util.Iset.empty })
       with
       | Syscall.Rptr c ->
         (match Kernel.step k ~thread:init (Syscall.Terminate_container { container = c }) with
          | Syscall.Runit -> ()
          | r -> Alcotest.failf "terminate: %a" Syscall.pp_ret r)
       | r -> Alcotest.failf "new_container: %a" Syscall.pp_ret r);
      checki "no leaks after container teardown" 0 (Runtime.full_check k))

let test_pt_alias_detected () =
  Helpers.with_san ~poison:false (fun () ->
      let k, init = Helpers.boot () in
      Runtime.attach k;
      (match Kernel.step k ~thread:init
               (Syscall.Mmap { va = 0x4000_0000; count = 1; size = Page_state.S4k; perm = Pte.perm_rw })
       with
       | Syscall.Rmapped [ frame ] ->
         checki "clean before" 0 (Atmo_san.Pt_lint.lint k);
         (* map the same frame at a second VA behind the allocator's
            back: one reference, two mappings *)
         let proc = Option.get (Kernel.proc_of_thread k ~thread:init) in
         let pt =
           (Perm_map.borrow k.Kernel.pm.Proc_mgr.proc_perms ~ptr:proc).Atmo_pm.Process.pt
         in
         (match Atmo_pt.Page_table.map_4k pt ~vaddr:0x9990_0000 ~frame ~perm:Pte.perm_rw with
          | Ok () -> ()
          | Error e -> Alcotest.failf "map_4k: %a" Atmo_pt.Page_table.pp_error e);
         checkb "alias detected" true
           (Atmo_san.Pt_lint.lint k > 0 && caught Report.Pt_alias)
       | r -> Alcotest.failf "mmap: %a" Syscall.pp_ret r))

let () =
  Runtime.arm_of_env ();
  Alcotest.run ~and_exit:false "san"
    [
      ( "shadow",
        [
          Alcotest.test_case "out of reservation" `Quick test_out_of_reservation;
          Alcotest.test_case "untracked memory ignored" `Quick test_untracked_memory_ignored;
          Alcotest.test_case "dec_ref double free" `Quick test_dec_ref_double_free;
          Alcotest.test_case "poison trample" `Quick test_poison_trample;
          Alcotest.test_case "superpage shadow" `Quick test_superpage_shadow;
        ] );
      ( "neutrality",
        [
          Alcotest.test_case "memory stays sparse" `Quick test_no_poison_keeps_memory_sparse;
          Alcotest.test_case "disarm restores zero cost" `Quick test_disarm_restores_zero_cost;
        ] );
      ( "lockcheck",
        [
          Alcotest.test_case "protocol" `Quick test_lock_protocol;
          Alcotest.test_case "smp clean" `Quick test_smp_runs_clean_under_lockcheck;
        ] );
      ( "whole-state",
        [
          Alcotest.test_case "booted kernel clean" `Quick test_booted_kernel_checks_clean;
          Alcotest.test_case "audit orphan" `Quick test_audit_catches_orphan_page;
          Alcotest.test_case "audit teardown" `Quick test_audit_after_teardown;
          Alcotest.test_case "pt alias" `Quick test_pt_alias_detected;
        ] );
    ];
  Runtime.exit_check ()
