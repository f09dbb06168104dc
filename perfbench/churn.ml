(* The vm-churn generator: a seeded stream of address-space system calls
   for one closed-loop client thread, each paired with the result the
   kernel must return.

   The generator keeps a shadow of what it has mapped, so it knows the
   expected outcome of every call it makes: mmap / munmap of 1-4 pages
   at 4 KiB and of one 2 MiB page, mprotect, a few process create /
   terminate calls, and a small share of calls the kernel must reject.
   After each call the client reads through [Kernel.resolve_user] over a
   working set of about 640 pages, larger than the 256-entry software
   TLB, and checks every translation against the frame mmap returned.

   The only kernel values the stream depends on are the ones it is
   handed back (new process pointers, mapped frames); with a
   deterministic kernel the whole run is a function of the seed. *)

module Kernel = Atmo_core.Kernel
module Syscall = Atmo_spec.Syscall
module Errno = Atmo_util.Errno
module Page_state = Atmo_pmem.Page_state
module Pte = Atmo_hw.Pte_bits

type expect = Mapped of int | Unit | Ptr | Err of Errno.t

let expect_name = function
  | Mapped n -> Printf.sprintf "Rmapped(%d)" n
  | Unit -> "Runit"
  | Ptr -> "Rptr"
  | Err e -> "Rerr " ^ Errno.to_string e

let page = 4096
let slot_pages = 4
let base_4k = 0x4000_0000
let slots_4k = 512

(* Mapped 4 KiB slots oscillate around this many (about 640 pages). *)
let target_4k = 256
let huge = 0x20_0000
let base_2m = 0x8000_0000
let slots_2m = 3
let max_children = 4
let reads_per_op = 4

(* A set over [0, size) with O(1) insert, remove and uniform pick of a
   member or a non-member: members are [items.(0 .. n-1)]. *)
module Pool = struct
  type t = { items : int array; pos : int array; mutable n : int }

  let create size = { items = Array.init size Fun.id; pos = Array.init size Fun.id; n = 0 }
  let size t = Array.length t.items
  let mem t i = t.pos.(i) < t.n

  let swap t a b =
    let ia = t.items.(a) and ib = t.items.(b) in
    t.items.(a) <- ib;
    t.items.(b) <- ia;
    t.pos.(ib) <- a;
    t.pos.(ia) <- b

  let add t i =
    if not (mem t i) then begin
      swap t t.pos.(i) t.n;
      t.n <- t.n + 1
    end

  let remove t i =
    if mem t i then begin
      t.n <- t.n - 1;
      swap t t.pos.(i) t.n
    end

  let pick_in t rng = t.items.(Random.State.int rng t.n)
  let pick_out t rng = t.items.(t.n + Random.State.int rng (size t - t.n))
  let full t = t.n = size t
end

type effect =
  | Map4 of int * int  (** slot, pages *)
  | Unmap4 of int
  | Map2 of int
  | Unmap2 of int
  | Spawn
  | Kill of int
  | Nothing

type op = { call : Syscall.t; expect : expect; effect : effect }

type t = {
  rng : Random.State.t;
  thread : int;
  slots : Pool.t;  (** mapped 4 KiB slots *)
  pages_of : int array;  (** pages mapped at each mapped slot *)
  pages : Pool.t;  (** mapped 4 KiB pages (slot * slot_pages + i) *)
  frames : int array;  (** expected backing frame of each mapped page *)
  huges : Pool.t;  (** mapped 2 MiB slots *)
  mutable children : int list;  (** live child processes, newest first *)
}

let create ~seed ~thread =
  {
    rng = Random.State.make [| seed; 0x5eed |];
    thread;
    slots = Pool.create slots_4k;
    pages_of = Array.make slots_4k 0;
    pages = Pool.create (slots_4k * slot_pages);
    frames = Array.make (slots_4k * slot_pages) (-1);
    huges = Pool.create slots_2m;
    children = [];
  }

let slot_va s = base_4k + (s * slot_pages * page)
let page_va p = base_4k + (p * page)
let huge_va s = base_2m + (s * huge)
let coin g = Random.State.bool g.rng
let perm g = if coin g then Pte.perm_ro else Pte.perm_rw
let mk call expect effect = { call; expect; effect }

let map4 g =
  let s = Pool.pick_out g.slots g.rng in
  let count = 1 + Random.State.int g.rng slot_pages in
  mk
    (Syscall.Mmap { va = slot_va s; count; size = Page_state.S4k; perm = Pte.perm_rw })
    (Mapped count) (Map4 (s, count))

let unmap4 g =
  let s = Pool.pick_in g.slots g.rng in
  mk
    (Syscall.Munmap { va = slot_va s; count = g.pages_of.(s); size = Page_state.S4k })
    Unit (Unmap4 s)

let protect g =
  let p = Pool.pick_in g.pages g.rng in
  mk (Syscall.Mprotect { va = page_va p; perm = perm g }) Unit Nothing

let map2 s =
  mk
    (Syscall.Mmap { va = huge_va s; count = 1; size = Page_state.S2m; perm = Pte.perm_rw })
    (Mapped 1) (Map2 s)

let unmap2 s =
  mk (Syscall.Munmap { va = huge_va s; count = 1; size = Page_state.S2m }) Unit (Unmap2 s)

let huge_op g =
  let n = g.huges.Pool.n in
  if n = 0 || ((not (Pool.full g.huges)) && coin g) then map2 (Pool.pick_out g.huges g.rng)
  else unmap2 (Pool.pick_in g.huges g.rng)

let proc_op g =
  let live = List.length g.children in
  if live = 0 || (live < max_children && coin g) then mk Syscall.New_process Ptr Spawn
  else
    let p = List.nth g.children (Random.State.int g.rng live) in
    mk (Syscall.Terminate_process { proc = p }) Unit (Kill p)

let slot_op g =
  let n = g.slots.Pool.n in
  let map =
    if n = 0 then true
    else if Pool.full g.slots then false
    else Random.State.int g.rng 100 < if n < target_4k then 60 else 40
  in
  if map then map4 g else unmap4 g

(* Calls the kernel must refuse, each with the errno it must give. *)
let reject g =
  let has_free = not (Pool.full g.slots) and has_mapped = g.slots.Pool.n > 0 in
  match Random.State.int g.rng 5 with
  | 0 when has_free ->
    let s = Pool.pick_out g.slots g.rng in
    mk (Syscall.Munmap { va = slot_va s; count = 1; size = Page_state.S4k }) (Err Errno.Einval)
      Nothing
  | 1 when has_mapped ->
    let s = Pool.pick_in g.slots g.rng in
    mk
      (Syscall.Mmap { va = slot_va s; count = 1; size = Page_state.S4k; perm = Pte.perm_rw })
      (Err Errno.Eexist) Nothing
  | 2 ->
    let s = Random.State.int g.rng slots_4k in
    mk
      (Syscall.Mmap { va = slot_va s + 8; count = 1; size = Page_state.S4k; perm = Pte.perm_rw })
      (Err Errno.Einval) Nothing
  | 3 when has_free ->
    let s = Pool.pick_out g.slots g.rng in
    mk (Syscall.Mprotect { va = slot_va s; perm = Pte.perm_ro }) (Err Errno.Einval) Nothing
  | _ ->
    (* odd, so never the page-aligned pointer of a live object *)
    mk (Syscall.Terminate_process { proc = 1 }) (Err Errno.Esrch) Nothing

(* Mix: 8% rejected, 4% process lifecycle, 8% 2 MiB, 15% mprotect, 65%
   4 KiB map/unmap steered towards [target_4k] mapped slots. *)
let next g =
  let r = Random.State.int g.rng 100 in
  if r < 8 then reject g
  else if r < 12 then proc_op g
  else if r < 20 then huge_op g
  else if r < 35 && g.pages.Pool.n > 0 then protect g
  else slot_op g

(* The output check of one call: its result class, the page count of a
   mapping, and the errno of a rejected call. *)
let check_ret expect (ret : Syscall.ret) =
  let ok =
    match (expect, ret) with
    | Mapped n, Syscall.Rmapped l -> List.length l = n
    | Unit, Syscall.Runit | Ptr, Syscall.Rptr _ -> true
    | Err e, Syscall.Rerr e' -> Errno.equal e e'
    | _ -> false
  in
  if ok then Ok ()
  else Error (Fmt.str "vm-churn: returned %a, expected %s" Syscall.pp_ret ret (expect_name expect))

(* Apply a call's effect to the shadow; only called once [ret] has
   matched the expectation. *)
let commit g op (ret : Syscall.ret) =
  match (op.effect, ret) with
  | Map4 (s, count), Syscall.Rmapped frames ->
    Pool.add g.slots s;
    g.pages_of.(s) <- count;
    List.iteri
      (fun i f ->
        let p = (s * slot_pages) + i in
        Pool.add g.pages p;
        g.frames.(p) <- f)
      frames
  | Unmap4 s, _ ->
    for i = 0 to g.pages_of.(s) - 1 do
      let p = (s * slot_pages) + i in
      Pool.remove g.pages p;
      g.frames.(p) <- -1
    done;
    g.pages_of.(s) <- 0;
    Pool.remove g.slots s
  | Map2 s, _ -> Pool.add g.huges s
  | Unmap2 s, _ -> Pool.remove g.huges s
  | Spawn, Syscall.Rptr p -> g.children <- p :: g.children
  | Kill p, _ -> g.children <- List.filter (fun c -> c <> p) g.children
  | _ -> ()

(* One read: a random mapped page through the thread's address space;
   true iff it resolves to the frame mmap returned for it. *)
let read g k =
  let p = Pool.pick_in g.pages g.rng in
  let vaddr = page_va p + (Random.State.int g.rng page land lnot 7) in
  match Kernel.resolve_user k ~thread:g.thread ~vaddr with
  | Some tr -> tr.Atmo_hw.Mmu.frame = g.frames.(p)
  | None -> false

let mapped_pages g = g.pages.Pool.n
let mapped_vas g = Array.init g.pages.Pool.n (fun i -> page_va g.pages.Pool.items.(i))

(* The machine vm-churn runs on: 64 MiB, so the 4 KiB working set, page
   tables and three 2 MiB pages fit with room to spare. *)
let boot_params =
  { Kernel.default_boot with Kernel.frames = 16384; root_quota = 16000 }

(* Run [op] on [k], check its result and commit it; [Error] names the
   call whose result was wrong. *)
let apply g k op =
  let ret = Kernel.step k ~thread:g.thread op.call in
  match check_ret op.expect ret with
  | Ok () ->
    commit g op ret;
    Ok ret
  | Error e -> Error (Fmt.str "%s (call %a)" e Syscall.pp op.call)

(* Unregister the CPU-side TLB cache of the world's address space, which
   a discarded kernel never does itself; used on set-up probes so they
   leave no state behind. *)
let release k g =
  match Kernel.proc_of_thread k ~thread:g.thread with
  | None -> ()
  | Some proc ->
    let p = Atmo_pm.Perm_map.borrow k.Kernel.pm.Atmo_pm.Proc_mgr.proc_perms ~ptr:proc in
    Atmo_hw.Tlb.flush_asid k.Kernel.mem ~cr3:(Atmo_pt.Page_table.cr3 p.Atmo_pm.Process.pt)

(* Boot and fill the working set.  The three 2 MiB frames are allocated
   and released first, while physical memory is still unfragmented, so
   they stay on the allocator's 2 MiB free list and every later 2 MiB
   mmap is satisfiable. *)
let setup ~seed =
  match Kernel.boot boot_params with
  | Error e -> Error (Fmt.str "boot: %a" Errno.pp e)
  | Ok (k, thread) ->
    let g = create ~seed ~thread in
    let ( let* ) = Result.bind in
    let each f =
      List.fold_left (fun acc s -> let* () = acc in Result.map ignore (apply g k (f s))) (Ok ())
        (List.init slots_2m Fun.id)
    in
    let* () = each map2 in
    let* () = each unmap2 in
    let rec fill () =
      if g.slots.Pool.n >= target_4k then Ok () else let* _ = apply g k (map4 g) in fill ()
    in
    let* () = fill () in
    Ok (k, g)
