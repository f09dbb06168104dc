(* Fixtures shared by every suite in this directory. *)

(* A kernel booted from the default configuration, and its init thread. *)
let boot () =
  match Atmo_core.Kernel.boot Atmo_core.Kernel.default_boot with
  | Ok (k, init) -> (k, init)
  | Error e -> Alcotest.failf "boot: %a" Atmo_util.Errno.pp e

(* Run [f] with the sanitizer armed (free-page poisoning on unless
   [~poison:false]); always disarm. *)
let with_san ?(poison = true) ?(lockcheck = false) f =
  Atmo_san.Runtime.arm ~poison ~lockcheck ();
  Fun.protect ~finally:Atmo_san.Runtime.disarm f

(* A page table over fresh memory of [frames] frames, with its allocator. *)
let mk_pt ?(frames = 4096) () =
  let mem = Atmo_hw.Phys_mem.create ~page_count:frames in
  let alloc = Atmo_pmem.Page_alloc.create mem ~reserved_frames:0 in
  match Atmo_pt.Page_table.create mem alloc with
  | Ok pt -> (mem, alloc, pt)
  | Error e -> Alcotest.failf "page table: %a" Atmo_pt.Page_table.pp_error e

let user_frame alloc =
  match Atmo_pmem.Page_alloc.alloc_4k alloc ~purpose:Atmo_pmem.Page_alloc.User with
  | Some f -> f
  | None -> Alcotest.fail "no user frame"

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0
