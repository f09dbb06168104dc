(* Page allocator substrate: intrusive DLLs, page states, superpage
   merge/split, allocator invariant. *)

open Atmo_util
open Atmo_pmem
module Phys_mem = Atmo_hw.Phys_mem

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let expect_wf what wf =
  match wf with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s not wf: %s" what msg

(* ------------------------------------------------------------------ *)
(* Dll                                                                 *)

let test_dll_push_pop () =
  let l = Dll.create ~capacity:8 ~name:"t" in
  Dll.push_back l 1;
  Dll.push_back l 2;
  Dll.push_front l 0;
  Alcotest.(check (list int)) "order" [ 0; 1; 2 ] (Dll.to_list l);
  checkb "mem" true (Dll.mem l 1);
  Alcotest.(check (option int)) "pop front" (Some 0) (Dll.pop_front l);
  Alcotest.(check (option int)) "pop back" (Some 2) (Dll.pop_back l);
  checki "length" 1 (Dll.length l);
  expect_wf "dll" (Dll.wf l)

let test_dll_o1_remove_middle () =
  let l = Dll.create ~capacity:8 ~name:"t" in
  List.iter (Dll.push_back l) [ 0; 1; 2; 3; 4 ];
  Dll.remove l 2;
  Alcotest.(check (list int)) "middle removed" [ 0; 1; 3; 4 ] (Dll.to_list l);
  Dll.remove l 0;
  Dll.remove l 4;
  Alcotest.(check (list int)) "ends removed" [ 1; 3 ] (Dll.to_list l);
  expect_wf "dll" (Dll.wf l)

let test_dll_misuse_raises () =
  let l = Dll.create ~capacity:4 ~name:"t" in
  Dll.push_back l 1;
  Alcotest.check_raises "double push" (Invalid_argument "Dll.push_back(t): 1 already a member")
    (fun () -> Dll.push_back l 1);
  Alcotest.check_raises "remove non-member" (Invalid_argument "Dll.remove(t): 2 not a member")
    (fun () -> Dll.remove l 2);
  Alcotest.check_raises "out of range" (Invalid_argument "Dll.push_back(t): id 9 out of range")
    (fun () -> Dll.push_back l 9)

let test_dll_empty () =
  let l = Dll.create ~capacity:4 ~name:"t" in
  checkb "empty" true (Dll.is_empty l);
  Alcotest.(check (option int)) "pop empty" None (Dll.pop_front l);
  expect_wf "dll" (Dll.wf l)

(* Each kind of damage [wf] exists to catch, on a list 0 <-> 1 <-> 2 <-> 3. *)
let test_dll_wf_rejects_corruption () =
  let cases =
    [
      ("broken prev link", [ Dll.Set_prev (2, 0) ]);
      ("next cycle", [ Dll.Set_next (3, 1) ]);
      ("cycle back to the head", [ Dll.Set_next (3, 0) ]);
      ("linked id not a member", [ Dll.Set_member (2, false) ]);
      ("member flag on an unlinked id", [ Dll.Set_member (5, true) ]);
      ("stale length", [ Dll.Set_length 3 ]);
      ("stale length and flags agree, links do not", [ Dll.Set_length 5; Dll.Set_member (5, true) ]);
      ("last not the end of the walk", [ Dll.Set_next (2, -1) ]);
      ("link out of range", [ Dll.Set_next (1, 99) ]);
    ]
  in
  List.iter
    (fun (what, damage) ->
      let l = Dll.create ~capacity:8 ~name:"t" in
      List.iter (Dll.push_back l) [ 0; 1; 2; 3 ];
      expect_wf "before corruption" (Dll.wf l);
      List.iter (Dll.corrupt l) damage;
      match Dll.wf l with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "Dll.wf accepted: %s" what)
    cases

let prop_dll_random_ops =
  (* random pushes/removes keep the structure well-formed and matching a
     model list *)
  QCheck.Test.make ~name:"dll random ops match model" ~count:100
    QCheck.(list (pair (int_bound 2) (int_bound 31)))
    (fun ops ->
      let l = Dll.create ~capacity:32 ~name:"m" in
      let model = ref [] in
      List.iter
        (fun (op, id) ->
          match op with
          | 0 ->
            if not (Dll.mem l id) then begin
              Dll.push_back l id;
              model := !model @ [ id ]
            end
          | 1 ->
            if not (Dll.mem l id) then begin
              Dll.push_front l id;
              model := id :: !model
            end
          | _ ->
            if Dll.mem l id then begin
              Dll.remove l id;
              model := List.filter (fun x -> x <> id) !model
            end)
        ops;
      Dll.wf l = Ok () && Dll.to_list l = !model)

(* ------------------------------------------------------------------ *)
(* Page_alloc                                                          *)

(* a machine with 3 MiB of managed memory: big enough for one 2M merge *)
let mk_alloc ?(frames = 1024) ?(reserved = 0) () =
  let mem = Phys_mem.create ~page_count:frames in
  (mem, Page_alloc.create mem ~reserved_frames:reserved)

let test_alloc_free_4k () =
  let _, a = mk_alloc () in
  let before = Page_alloc.free_count_4k a in
  (match Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel with
   | None -> Alcotest.fail "alloc failed"
   | Some addr ->
     checkb "allocated state" true (Page_alloc.state_of a ~addr = Some Page_state.Allocated);
     checki "free shrank" (before - 1) (Page_alloc.free_count_4k a);
     Page_alloc.free_kernel_page a ~addr;
     checki "free restored" before (Page_alloc.free_count_4k a));
  expect_wf "alloc" (Page_alloc.wf a)

let test_alloc_zeroes () =
  let mem, a = mk_alloc () in
  (match Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel with
   | None -> Alcotest.fail "alloc failed"
   | Some addr ->
     Phys_mem.write_u64 mem ~addr 42L;
     Page_alloc.free_kernel_page a ~addr;
     (* Every later allocation of the same frame must be zeroed. *)
     let rec drain () =
       match Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel with
       | Some got when got = addr ->
         Alcotest.(check int64) "reallocated page zeroed" 0L (Phys_mem.read_u64 mem ~addr)
       | Some _ -> drain ()
       | None -> Alcotest.fail "frame never came back"
     in
     drain ())

let test_alloc_oom () =
  let _, a = mk_alloc ~frames:4 () in
  let rec drain n =
    match Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel with
    | Some _ -> drain (n + 1)
    | None -> n
  in
  checki "exactly 4 frames" 4 (drain 0);
  checkb "then OOM" true (Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel = None);
  expect_wf "alloc" (Page_alloc.wf a)

let test_mapped_refcount () =
  let _, a = mk_alloc () in
  match Page_alloc.alloc_4k a ~purpose:Page_alloc.User with
  | None -> Alcotest.fail "alloc failed"
  | Some addr ->
    Alcotest.(check (option int)) "rc 1" (Some 1) (Page_alloc.ref_count a ~addr);
    Page_alloc.inc_ref a ~addr;
    Alcotest.(check (option int)) "rc 2" (Some 2) (Page_alloc.ref_count a ~addr);
    checkb "dec keeps live" true (Page_alloc.dec_ref a ~addr = `Live);
    checkb "last dec frees" true (Page_alloc.dec_ref a ~addr = `Freed);
    checkb "now free" true (Page_alloc.is_free a ~addr);
    expect_wf "alloc" (Page_alloc.wf a)

let test_merge_2m () =
  let _, a = mk_alloc ~frames:1024 () in
  checki "no 2m blocks yet" 0 (Page_alloc.free_count_2m a);
  checkb "merge succeeds" true (Page_alloc.try_merge_2m a);
  checki "one 2m block" 1 (Page_alloc.free_count_2m a);
  checki "4k list shrank by 512" (1024 - 512) (Page_alloc.free_count_4k a);
  checki "511 merged bodies" 511 (Iset.cardinal (Page_alloc.merged_pages a));
  expect_wf "alloc" (Page_alloc.wf a)

let test_alloc_2m_on_demand () =
  let _, a = mk_alloc ~frames:1024 () in
  match Page_alloc.alloc_2m a ~purpose:Page_alloc.User with
  | None -> Alcotest.fail "2m alloc failed"
  | Some addr ->
    checkb "aligned" true (addr mod Phys_mem.page_size_2m = 0);
    checkb "mapped" true (Page_alloc.state_of a ~addr = Some (Page_state.Mapped 1));
    Alcotest.(check (option Alcotest.bool)) "size is 2m" (Some true)
      (Option.map (Page_state.equal_size Page_state.S2m) (Page_alloc.size_of a ~addr));
    checki "closure covers 512 frames" 512 (Iset.cardinal (Page_alloc.frames_of_block a ~addr));
    expect_wf "alloc" (Page_alloc.wf a)

let test_split_2m_for_4k () =
  let _, a = mk_alloc ~frames:1024 () in
  (* merge everything into 2m blocks, then a 4k alloc must split one *)
  while Page_alloc.try_merge_2m a do () done;
  checki "all merged" 0 (Page_alloc.free_count_4k a);
  (match Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel with
   | None -> Alcotest.fail "4k alloc after merge failed"
   | Some _ -> ());
  checki "split released 511 free 4k" 511 (Page_alloc.free_count_4k a);
  expect_wf "alloc" (Page_alloc.wf a)

let test_merge_respects_alignment_holes () =
  let _, a = mk_alloc ~frames:1024 () in
  (* Punch a hole in the first aligned group: merging must still find the
     second group if the machine had one; with 1024 frames and frame 0
     allocated, no full aligned group remains after the second group also
     gets a hole. *)
  let first = Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel in
  checkb "hole allocated" true (first <> None);
  (* frames 512..1023 form a complete aligned group *)
  checkb "merge finds second group" true (Page_alloc.try_merge_2m a);
  checkb "no further group" false (Page_alloc.try_merge_2m a);
  expect_wf "alloc" (Page_alloc.wf a)

let test_merge_split_1g () =
  (* 2 GiB sparse machine: enough for one aligned 1 GiB region *)
  let _, a = mk_alloc ~frames:(512 * 1024) () in
  (match Page_alloc.alloc_1g a ~purpose:Page_alloc.User with
   | None -> Alcotest.fail "1g alloc failed"
   | Some addr ->
     checkb "1g aligned" true (addr mod Phys_mem.page_size_1g = 0);
     Alcotest.(check (option Alcotest.bool)) "size is 1g" (Some true)
       (Option.map (Page_state.equal_size Page_state.S1g) (Page_alloc.size_of a ~addr));
     expect_wf "after 1g alloc" (Page_alloc.wf a);
     checkb "freed" true (Page_alloc.dec_ref a ~addr = `Freed);
     expect_wf "after 1g free" (Page_alloc.wf a));
  (* drain the 4k side so a later 4k allocation must split the free 1G
     block down through 2M — the path that re-points body frames *)
  let rec drain_4k () =
    if Page_alloc.free_count_4k a > 0 then begin
      ignore (Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel);
      drain_4k ()
    end
  in
  drain_4k ();
  (match Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel with
   | Some _ -> ()
   | None -> Alcotest.fail "split from 1g failed");
  expect_wf "after split" (Page_alloc.wf a)

let test_reserved_frames_unmanaged () =
  let _, a = mk_alloc ~frames:64 ~reserved:8 () in
  checki "managed" 56 (Page_alloc.managed_frames a);
  checkb "reserved unmanaged" true (Page_alloc.state_of a ~addr:0 = None);
  (* allocations never return reserved frames *)
  let rec drain () =
    match Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel with
    | Some addr ->
      checkb "above reservation" true (addr >= 8 * Phys_mem.page_size);
      drain ()
    | None -> ()
  in
  drain ()

let test_spec_views_partition () =
  let _, a = mk_alloc ~frames:1024 () in
  ignore (Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel);
  ignore (Page_alloc.alloc_4k a ~purpose:Page_alloc.User);
  ignore (Page_alloc.alloc_2m a ~purpose:Page_alloc.User);
  let sets =
    [
      Page_alloc.free_pages_4k a;
      Page_alloc.free_pages_2m a;
      Page_alloc.free_pages_1g a;
      Page_alloc.allocated_pages a;
      Page_alloc.mapped_pages a;
      Page_alloc.merged_pages a;
    ]
  in
  checkb "six sets partition the managed frames" true (Iset.pairwise_disjoint sets);
  checki "cover all frames" 1024 (Iset.cardinal (Iset.union_list sets));
  expect_wf "alloc" (Page_alloc.wf a)

(* ------------------------------------------------------------------ *)
(* Journaled frame-state sets                                          *)

let set_names = [| "free4k"; "free2m"; "free1g"; "allocated"; "mapped"; "merged" |]

let views a =
  [|
    Page_alloc.free_pages_4k a;
    Page_alloc.free_pages_2m a;
    Page_alloc.free_pages_1g a;
    Page_alloc.allocated_pages a;
    Page_alloc.mapped_pages a;
    Page_alloc.merged_pages a;
  |]

(* The six views recomputed from per-frame metadata alone. *)
let rescan a =
  let nframes = Phys_mem.page_count (Page_alloc.mem a) in
  let acc = Array.make 6 [] in
  for i = nframes - 1 downto nframes - Page_alloc.managed_frames a do
    let addr = Phys_mem.addr_of_index i in
    let c =
      match (Page_alloc.state_of a ~addr, Page_alloc.size_of a ~addr) with
      | Some Page_state.Free, Some Page_state.S4k -> 0
      | Some Page_state.Free, Some Page_state.S2m -> 1
      | Some Page_state.Free, Some Page_state.S1g -> 2
      | Some Page_state.Allocated, _ -> 3
      | Some (Page_state.Mapped _), _ -> 4
      | Some (Page_state.Merged _), _ -> 5
      | _ -> Alcotest.failf "frame %d has no state class" i
    in
    acc.(c) <- addr :: acc.(c)
  done;
  Array.map Iset.of_list acc

(* A seeded burst of allocator traffic, querying the cached sets at
   random gaps of 1..[max_gap] operations.  Gaps longer than the
   64-range journal force the overflow rebuild; the traffic mixes
   on-demand merges (alloc_2m, alloc_1g and both try_merge calls) with
   splits (4K or 2M allocations served from a larger free block). *)
let journaled_burst ~frames ~ops ~max_gap ~seed =
  let _, a = mk_alloc ~frames () in
  let rng = Random.State.make [| seed |] in
  let live = ref [] in
  let merges = ref 0 and splits = ref 0 in
  let journaled = ref 0 and longest = ref 0 in
  let query what =
    let got = views a and want = rescan a in
    Array.iteri
      (fun c name ->
        if not (Iset.equal got.(c) want.(c)) then
          Alcotest.failf "%s: cached %s set differs from a rescan" what name)
      set_names;
    expect_wf what (Page_alloc.wf a);
    longest := max !longest !journaled;
    journaled := 0
  in
  let purpose () = if Random.State.bool rng then Page_alloc.Kernel else Page_alloc.User in
  let claimed p = function
    | Some addr ->
      incr journaled;
      live := (addr, p) :: !live
    | None -> ()
  in
  let release (addr, p) =
    match p with
    | Page_alloc.Kernel ->
      Page_alloc.free_kernel_page a ~addr;
      incr journaled;
      true
    | Page_alloc.User ->
      (match Page_alloc.dec_ref a ~addr with
       | `Freed ->
         incr journaled;
         true
       | `Live -> false)
  in
  let free_random () =
    match !live with
    | [] -> ()
    | l ->
      let victim = List.nth l (Random.State.int rng (List.length l)) in
      if release victim then live := List.filter (fun b -> b != victim) !live
  in
  query "first query";
  let gap = ref 1 in
  for n = 1 to ops do
    let free4k = Page_alloc.free_count_4k a
    and free2m = Page_alloc.free_count_2m a
    and free1g = Page_alloc.free_count_1g a in
    (match if n = 1 then 9 else Random.State.int rng 20 with
     | 0 | 1 | 2 | 3 | 4 | 5 | 6 ->
       let p = purpose () in
       let got = Page_alloc.alloc_4k a ~purpose:p in
       if got <> None && free4k = 0 then incr splits;
       claimed p got
     | 7 | 8 ->
       let p = purpose () in
       let got = Page_alloc.alloc_2m a ~purpose:p in
       if got <> None && free2m = 0 then if free1g > 0 then incr splits else incr merges;
       claimed p got
     | 9 ->
       let p = purpose () in
       let got = Page_alloc.alloc_1g a ~purpose:p in
       if got <> None && free1g = 0 then incr merges;
       claimed p got
     | 10 | 11 | 12 | 13 | 14 | 15 -> free_random ()
     | 16 ->
       (match List.filter (fun (_, p) -> p = Page_alloc.User) !live with
        | [] -> ()
        | (addr, _) :: _ -> Page_alloc.inc_ref a ~addr)
     | 17 -> if Page_alloc.try_merge_2m a then incr merges
     | 18 -> if Page_alloc.try_merge_1g a then incr merges
     | _ ->
       (* drop every block whose last reference goes, so whole aligned
          groups come free and later requests merge them *)
       live := List.filter (fun b -> not (release b)) !live);
    decr gap;
    if !gap = 0 then begin
      query (Printf.sprintf "query after op %d" n);
      gap := 1 + Random.State.int rng max_gap
    end
  done;
  query "final query";
  (!merges, !splits, !longest)

let test_journaled_sets_small () =
  let merges, splits, longest =
    journaled_burst ~frames:4096 ~ops:3000 ~max_gap:150 ~seed:12
  in
  checkb "burst merged superpages" true (merges > 0);
  checkb "burst split superpages" true (splits > 0);
  checkb "a stretch overflowed the journal" true (longest > 64)

let test_journaled_sets_1g () =
  (* One aligned 1 GiB region: the first operation promotes it, which
     journals 512 absorbs and a 1G-wide range; frees and 4K requests
     later split it back down through 2M. *)
  let merges, splits, longest =
    journaled_burst ~frames:((512 * 512) + 1024) ~ops:150 ~max_gap:150 ~seed:2
  in
  checkb "1g burst merged superpages" true (merges > 0);
  checkb "1g burst split superpages" true (splits > 0);
  checkb "a stretch overflowed the journal" true (longest > 64)

let prop_alloc_random_traffic =
  QCheck.Test.make ~name:"allocator wf under random alloc/free traffic" ~count:60
    QCheck.(list (int_bound 9))
    (fun ops ->
      let _, a = mk_alloc ~frames:2048 () in
      let kernel_pages = ref [] in
      let user_pages = ref [] in
      List.iter
        (fun op ->
          match op with
          | 0 | 1 | 2 ->
            (match Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel with
             | Some p -> kernel_pages := p :: !kernel_pages
             | None -> ())
          | 3 | 4 ->
            (match Page_alloc.alloc_4k a ~purpose:Page_alloc.User with
             | Some p -> user_pages := p :: !user_pages
             | None -> ())
          | 5 ->
            (match Page_alloc.alloc_2m a ~purpose:Page_alloc.User with
             | Some p -> user_pages := p :: !user_pages
             | None -> ())
          | 6 | 7 ->
            (match !kernel_pages with
             | p :: rest ->
               Page_alloc.free_kernel_page a ~addr:p;
               kernel_pages := rest
             | [] -> ())
          | 8 ->
            (match !user_pages with
             | p :: rest ->
               ignore (Page_alloc.dec_ref a ~addr:p);
               user_pages := rest
             | [] -> ())
          | _ ->
            (match !user_pages with
             | p :: _ ->
               Page_alloc.inc_ref a ~addr:p;
               ignore (Page_alloc.dec_ref a ~addr:p)
             | [] -> ()))
        ops;
      Page_alloc.wf a = Ok ())

let prop_leak_free_roundtrip =
  QCheck.Test.make ~name:"alloc/free returns allocator to initial abstract state"
    ~count:60
    QCheck.(int_bound 30)
    (fun n ->
      let _, a = mk_alloc ~frames:256 () in
      let free0 = Page_alloc.free_pages_4k a in
      let pages =
        List.filter_map
          (fun _ -> Page_alloc.alloc_4k a ~purpose:Page_alloc.Kernel)
          (List.init n Fun.id)
      in
      List.iter (fun addr -> Page_alloc.free_kernel_page a ~addr) pages;
      Iset.equal free0 (Page_alloc.free_pages_4k a))

let () =
  Atmo_san.Runtime.arm_of_env ();
  Alcotest.run ~and_exit:false "pmem"
    [
      ( "dll",
        [
          Alcotest.test_case "push/pop" `Quick test_dll_push_pop;
          Alcotest.test_case "O(1) middle removal" `Quick test_dll_o1_remove_middle;
          Alcotest.test_case "misuse raises" `Quick test_dll_misuse_raises;
          Alcotest.test_case "empty" `Quick test_dll_empty;
          Alcotest.test_case "wf rejects corruption" `Quick test_dll_wf_rejects_corruption;
        ] );
      ( "page_alloc",
        [
          Alcotest.test_case "alloc/free 4k" `Quick test_alloc_free_4k;
          Alcotest.test_case "allocations zeroed" `Quick test_alloc_zeroes;
          Alcotest.test_case "oom" `Quick test_alloc_oom;
          Alcotest.test_case "mapped refcount" `Quick test_mapped_refcount;
          Alcotest.test_case "merge to 2m" `Quick test_merge_2m;
          Alcotest.test_case "alloc 2m merges on demand" `Quick test_alloc_2m_on_demand;
          Alcotest.test_case "split 2m for 4k" `Quick test_split_2m_for_4k;
          Alcotest.test_case "merge skips holed groups" `Quick test_merge_respects_alignment_holes;
          Alcotest.test_case "merge/split 1g" `Quick test_merge_split_1g;
          Alcotest.test_case "journaled sets match a rescan" `Quick test_journaled_sets_small;
          Alcotest.test_case "journaled sets across 1g merge/split" `Quick
            test_journaled_sets_1g;
          Alcotest.test_case "reserved frames unmanaged" `Quick test_reserved_frames_unmanaged;
          Alcotest.test_case "spec views partition" `Quick test_spec_views_partition;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_dll_random_ops; prop_alloc_random_traffic; prop_leak_free_roundtrip ] );
    ];
  Atmo_san.Runtime.exit_check ()
