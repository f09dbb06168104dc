(* Page tables: mapping operations, refinement vs the MMU, flat and
   recursive checkers, step consistency (§4.2). *)

open Atmo_util
open Atmo_pt
module Phys_mem = Atmo_hw.Phys_mem
module Mmu = Atmo_hw.Mmu
module Pte = Atmo_hw.Pte_bits
module Page_state = Atmo_pmem.Page_state
module Page_alloc = Atmo_pmem.Page_alloc

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let expect what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %a" what Page_table.pp_error e

let expect_wf what = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" what msg

let va0 = 0x4000_0000

let test_map_resolve_4k () =
  let _, alloc, pt = Helpers.mk_pt () in
  let frame = Helpers.user_frame alloc in
  expect "map" (Page_table.map_4k pt ~vaddr:va0 ~frame ~perm:Pte.perm_rw);
  (match Page_table.resolve pt ~vaddr:(va0 + 5) with
   | Some tr ->
     checki "paddr" (frame + 5) tr.Mmu.paddr;
     checki "size" Phys_mem.page_size tr.Mmu.size
   | None -> Alcotest.fail "fault");
  expect_wf "all obligations" (Pt_refine.all pt)

let test_map_unmap_roundtrip () =
  let _, alloc, pt = Helpers.mk_pt () in
  let frame = Helpers.user_frame alloc in
  expect "map" (Page_table.map_4k pt ~vaddr:va0 ~frame ~perm:Pte.perm_rw);
  let e = expect "unmap" (Page_table.unmap pt ~vaddr:va0) in
  checki "frame returned" frame e.Page_table.frame;
  checkb "faults after unmap" true (Page_table.resolve pt ~vaddr:va0 = None);
  checkb "ghost empty" true (Imap.is_empty (Page_table.address_space pt));
  expect_wf "all obligations" (Pt_refine.all pt)

let test_double_map_rejected () =
  let _, alloc, pt = Helpers.mk_pt () in
  let frame = Helpers.user_frame alloc in
  expect "map" (Page_table.map_4k pt ~vaddr:va0 ~frame ~perm:Pte.perm_rw);
  checkb "second map rejected" true
    (Page_table.map_4k pt ~vaddr:va0 ~frame ~perm:Pte.perm_rw = Error Page_table.Already_mapped)

let test_misaligned_rejected () =
  let _, alloc, pt = Helpers.mk_pt () in
  let frame = Helpers.user_frame alloc in
  checkb "va misaligned" true
    (Page_table.map_4k pt ~vaddr:(va0 + 1) ~frame ~perm:Pte.perm_rw = Error Page_table.Misaligned);
  checkb "2m misaligned" true
    (Page_table.map_2m pt ~vaddr:(va0 + 4096) ~frame:0 ~perm:Pte.perm_rw
     = Error Page_table.Misaligned);
  checkb "non-canonical" true
    (Page_table.map_4k pt ~vaddr:(1 lsl 50) ~frame ~perm:Pte.perm_rw
     = Error Page_table.Non_canonical)

let test_size_conflicts () =
  let _, alloc, pt = Helpers.mk_pt () in
  let frame = Helpers.user_frame alloc in
  (* a 4K mapping under a 2M-aligned va blocks a 2M mapping there *)
  expect "map 4k" (Page_table.map_4k pt ~vaddr:va0 ~frame ~perm:Pte.perm_rw);
  (match Page_alloc.alloc_2m alloc ~purpose:Page_alloc.User with
   | None -> Alcotest.fail "no 2m block"
   | Some big ->
     checkb "2m over 4k conflicts" true
       (Page_table.map_2m pt ~vaddr:va0 ~frame:big ~perm:Pte.perm_rw
        = Error Page_table.Conflict);
     (* and a 4K map under an existing 2M leaf conflicts the other way *)
     let va2 = va0 + Phys_mem.page_size_2m in
     expect "map 2m" (Page_table.map_2m pt ~vaddr:va2 ~frame:big ~perm:Pte.perm_rw);
     let f2 = Helpers.user_frame alloc in
     checkb "4k under 2m conflicts" true
       (Page_table.map_4k pt ~vaddr:va2 ~frame:f2 ~perm:Pte.perm_rw
        = Error Page_table.Conflict));
  expect_wf "all obligations" (Pt_refine.all pt)

let test_huge_mappings_resolve () =
  let _, alloc, pt = Helpers.mk_pt ~frames:8192 () in
  (match Page_alloc.alloc_2m alloc ~purpose:Page_alloc.User with
   | None -> Alcotest.fail "no 2m"
   | Some big ->
     expect "map 2m" (Page_table.map_2m pt ~vaddr:va0 ~frame:big ~perm:Pte.perm_ro);
     (match Page_table.resolve pt ~vaddr:(va0 + 0x12345) with
      | Some tr ->
        checki "2m size" Phys_mem.page_size_2m tr.Mmu.size;
        checki "offset" (big + 0x12345) tr.Mmu.paddr;
        checkb "ro" false tr.Mmu.perm.Pte.write
      | None -> Alcotest.fail "2m fault"));
  expect_wf "all obligations" (Pt_refine.all pt)

let test_update_perm () =
  let _, alloc, pt = Helpers.mk_pt () in
  let frame = Helpers.user_frame alloc in
  expect "map" (Page_table.map_4k pt ~vaddr:va0 ~frame ~perm:Pte.perm_rw);
  expect "mprotect" (Page_table.update_perm pt ~vaddr:va0 ~perm:Pte.perm_ro);
  (match Page_table.resolve pt ~vaddr:va0 with
   | Some tr -> checkb "now ro" false tr.Mmu.perm.Pte.write
   | None -> Alcotest.fail "fault");
  expect_wf "all obligations" (Pt_refine.all pt)

let test_destroy_returns_tables () =
  let _, alloc, pt = Helpers.mk_pt () in
  let before = Page_alloc.allocated_pages alloc in
  let frame = Helpers.user_frame alloc in
  expect "map" (Page_table.map_4k pt ~vaddr:va0 ~frame ~perm:Pte.perm_rw);
  let still_mapped = Page_table.destroy pt in
  checkb "mapped frame reported" true (Iset.mem frame still_mapped);
  (* all table pages returned: allocated set back to pre-creation minus
     nothing (root existed before `before` was taken, so subtract) *)
  let after = Page_alloc.allocated_pages alloc in
  checkb "tables freed" true (Iset.cardinal after < Iset.cardinal before)

let test_missing_tables_exact () =
  let _, alloc, pt = Helpers.mk_pt () in
  (* fresh table: a 4K map needs L3+L2+L1 = 3 new tables *)
  checki "3 tables for first 4k" 3
    (Page_table.missing_tables pt ~vaddrs:[ (va0, Page_state.S4k) ]);
  (* two adjacent pages share all three *)
  checki "adjacent shares tables" 3
    (Page_table.missing_tables pt
       ~vaddrs:[ (va0, Page_state.S4k); (va0 + 4096, Page_state.S4k) ]);
  let frame = Helpers.user_frame alloc in
  expect "map" (Page_table.map_4k pt ~vaddr:va0 ~frame ~perm:Pte.perm_rw);
  checki "nothing missing afterwards" 0
    (Page_table.missing_tables pt ~vaddrs:[ (va0 + 4096, Page_state.S4k) ]);
  (* a 2M map in a fresh L4 slot needs L3+L2 *)
  checki "2m needs two" 2
    (Page_table.missing_tables pt ~vaddrs:[ (1 lsl 39, Page_state.S2m) ])

let test_prune_empty_tables () =
  let _, alloc, pt = Helpers.mk_pt () in
  let frame = Helpers.user_frame alloc in
  expect "map" (Page_table.map_4k pt ~vaddr:va0 ~frame ~perm:Pte.perm_rw);
  ignore (expect "unmap" (Page_table.unmap pt ~vaddr:va0));
  let closure_before = Iset.cardinal (Page_table.page_closure pt) in
  let freed = Page_table.prune_empty_tables pt ~keep:Iset.empty in
  checki "three empties pruned" 3 freed;
  checki "closure shrank" (closure_before - 3) (Iset.cardinal (Page_table.page_closure pt));
  expect_wf "all obligations" (Pt_refine.all pt)

let test_step_hook_consistency () =
  (* §4.2: every concrete table write is a separate step; non-leaf
     writes never change the MMU-visible mapping, a leaf write changes
     exactly one entry. *)
  let _, alloc, pt = Helpers.mk_pt () in
  let snapshot () =
    List.sort compare (Page_table.walk_concrete pt)
  in
  let prev = ref (snapshot ()) in
  let violations = ref 0 in
  Page_table.set_step_hook pt
    (Some
       (fun ~leaf ->
         let now = snapshot () in
         let changed = List.length now - List.length !prev in
         if leaf then begin
           if abs changed <> 1 then incr violations
         end
         else if now <> !prev then incr violations;
         prev := now));
  let frame = Helpers.user_frame alloc in
  expect "map" (Page_table.map_4k pt ~vaddr:va0 ~frame ~perm:Pte.perm_rw);
  ignore (expect "unmap" (Page_table.unmap pt ~vaddr:va0));
  Page_table.set_step_hook pt None;
  checki "no intermediate-state violations" 0 !violations

let test_mmu_probe_agrees () =
  let _, alloc, pt = Helpers.mk_pt () in
  let frame = Helpers.user_frame alloc in
  expect "map" (Page_table.map_4k pt ~vaddr:va0 ~frame ~perm:Pte.perm_rw);
  expect_wf "probe"
    (Pt_refine.mmu_probe pt
       ~vaddrs:[ va0; va0 + 100; va0 + 4096; 0; 0x7fff_ffff_f000 ])

let test_nros_agrees_with_flat () =
  let _, alloc, pt = Helpers.mk_pt ~frames:8192 () in
  for i = 0 to 19 do
    let frame = Helpers.user_frame alloc in
    expect "map"
      (Page_table.map_4k pt ~vaddr:(va0 + (i * 4096)) ~frame ~perm:Pte.perm_rw)
  done;
  (match Page_alloc.alloc_2m alloc ~purpose:Page_alloc.User with
   | Some big ->
     expect "map 2m"
       (Page_table.map_2m pt ~vaddr:(va0 + (4 * Phys_mem.page_size_2m)) ~frame:big
          ~perm:Pte.perm_rw)
   | None -> Alcotest.fail "no 2m");
  expect_wf "flat" (Pt_refine.all pt);
  expect_wf "recursive" (Nros_pt.all pt);
  (* the recursive interpretation equals the flat hardware walk *)
  checkb "interps agree" true
    (List.sort compare (Nros_pt.interp pt)
     = List.sort compare (Page_table.walk_concrete pt))

let test_checkers_catch_corruption () =
  let mem, alloc, pt = Helpers.mk_pt () in
  let frame = Helpers.user_frame alloc in
  expect "map" (Page_table.map_4k pt ~vaddr:va0 ~frame ~perm:Pte.perm_rw);
  (* corrupt the leaf behind the ghost map's back *)
  (match Page_table.resolve pt ~vaddr:va0 with
   | Some _ ->
     let l1e =
       (* find the leaf's physical slot by walking manually *)
       let cr3 = Page_table.cr3 pt in
       let e4 = Phys_mem.read_u64 mem ~addr:(Mmu.entry_addr ~table:cr3 ~index:(Mmu.l4_index va0)) in
       let e3 = Phys_mem.read_u64 mem ~addr:(Mmu.entry_addr ~table:(Pte.addr_of e4) ~index:(Mmu.l3_index va0)) in
       let e2 = Phys_mem.read_u64 mem ~addr:(Mmu.entry_addr ~table:(Pte.addr_of e3) ~index:(Mmu.l2_index va0)) in
       Mmu.entry_addr ~table:(Pte.addr_of e2) ~index:(Mmu.l1_index va0)
     in
     Phys_mem.write_u64 mem ~addr:l1e Pte.not_present;
     checkb "flat refinement detects" true (Pt_refine.refinement pt <> Ok ());
     checkb "recursive refinement detects" true (Nros_pt.refinement pt <> Ok ())
   | None -> Alcotest.fail "fault")

let prop_random_map_unmap_refines =
  QCheck.Test.make ~name:"refinement holds under random map/unmap sequences" ~count:40
    QCheck.(list (pair bool (int_bound 63)))
    (fun ops ->
      let _, alloc, pt = Helpers.mk_pt () in
      List.iter
        (fun (do_map, slot) ->
          let vaddr = va0 + (slot * 4096) in
          if do_map then begin
            match Page_alloc.alloc_4k alloc ~purpose:Page_alloc.User with
            | Some frame ->
              (match Page_table.map_4k pt ~vaddr ~frame ~perm:Pte.perm_rw with
               | Ok () -> ()
               | Error _ -> ignore (Page_alloc.dec_ref alloc ~addr:frame))
            | None -> ()
          end
          else
            match Page_table.unmap pt ~vaddr with
            | Ok e -> ignore (Page_alloc.dec_ref alloc ~addr:e.Page_table.frame)
            | Error _ -> ())
        ops;
      Pt_refine.all pt = Ok () && Nros_pt.all pt = Ok ())

let prop_mixed_sizes_refine =
  (* random interleavings of 4K and 2M map/unmap keep both checkers
     green, including the size-conflict rejections along the way *)
  QCheck.Test.make ~name:"refinement holds under mixed 4K/2M traffic" ~count:25
    QCheck.(list (triple bool bool (int_bound 15)))
    (fun ops ->
      let _, alloc, pt = Helpers.mk_pt ~frames:16384 () in
      List.iter
        (fun (do_map, big, slot) ->
          let vaddr =
            if big then va0 + (slot * Phys_mem.page_size_2m)
            else va0 + (slot * 4096)
          in
          if do_map then begin
            let frame =
              if big then Page_alloc.alloc_2m alloc ~purpose:Page_alloc.User
              else Page_alloc.alloc_4k alloc ~purpose:Page_alloc.User
            in
            match frame with
            | None -> ()
            | Some frame ->
              let r =
                if big then Page_table.map_2m pt ~vaddr ~frame ~perm:Pte.perm_rw
                else Page_table.map_4k pt ~vaddr ~frame ~perm:Pte.perm_rw
              in
              (match r with
               | Ok () -> ()
               | Error _ -> ignore (Page_alloc.dec_ref alloc ~addr:frame))
          end
          else
            match Page_table.unmap pt ~vaddr with
            | Ok e -> ignore (Page_alloc.dec_ref alloc ~addr:e.Page_table.frame)
            | Error _ -> ())
        ops;
      Pt_refine.all pt = Ok () && Nros_pt.all pt = Ok ()
      && Page_alloc.wf alloc = Ok ())

let () =
  Atmo_san.Runtime.arm_of_env ();
  Alcotest.run ~and_exit:false "pt"
    [
      ( "mapping",
        [
          Alcotest.test_case "map/resolve 4k" `Quick test_map_resolve_4k;
          Alcotest.test_case "map/unmap round trip" `Quick test_map_unmap_roundtrip;
          Alcotest.test_case "double map rejected" `Quick test_double_map_rejected;
          Alcotest.test_case "misaligned rejected" `Quick test_misaligned_rejected;
          Alcotest.test_case "size conflicts" `Quick test_size_conflicts;
          Alcotest.test_case "huge mappings" `Quick test_huge_mappings_resolve;
          Alcotest.test_case "update perm" `Quick test_update_perm;
          Alcotest.test_case "destroy" `Quick test_destroy_returns_tables;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "missing_tables exact" `Quick test_missing_tables_exact;
          Alcotest.test_case "prune empty tables" `Quick test_prune_empty_tables;
        ] );
      ( "refinement",
        [
          Alcotest.test_case "step consistency" `Quick test_step_hook_consistency;
          Alcotest.test_case "mmu probe" `Quick test_mmu_probe_agrees;
          Alcotest.test_case "nros agrees with flat" `Quick test_nros_agrees_with_flat;
          Alcotest.test_case "checkers catch corruption" `Quick test_checkers_catch_corruption;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_map_unmap_refines; prop_mixed_sizes_refine ] );
    ];
  Atmo_san.Runtime.exit_check ()
