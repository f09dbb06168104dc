open Atmo_util
module Phys_mem = Atmo_hw.Phys_mem
open Page_state

type purpose = Kernel | User

(* The spec views partition the managed frames into six classes; the
   cache below keeps one set per class, indexed by [class_of]. *)
let class_names = [| "free4k"; "free2m"; "free1g"; "allocated"; "mapped"; "merged" |]
let nclasses = Array.length class_names

let class_of m =
  match m.state with
  | Free -> (match m.size with S4k -> 0 | S2m -> 1 | S1g -> 2)
  | Allocated -> 3
  | Mapped _ -> 4
  | Merged _ -> 5

let journal_cap = 64

type t = {
  mem : Phys_mem.t;
  first : int;  (* first managed frame index *)
  nframes : int;  (* total frames in the machine *)
  meta : meta array;  (* indexed by frame number *)
  free4k : Dll.t;
  free2m : Dll.t;
  free1g : Dll.t;
  (* The six frame-state sets, valid up to the journaled ranges.  A
     published array is never mutated, so a caller may hold it while
     the next query publishes a successor. *)
  mutable sets : Iset.t array;
  (* Bounded journal of frame ranges [lo, hi) whose metadata changed
     since the last query.  [j_stale] holds until the first query and
     after an overflow: the journal is then ignored and the next query
     rebuilds every set. *)
  j_lo : int array;
  j_hi : int array;
  mutable j_len : int;
  mutable j_stale : bool;
  (* Queries may come from several discharge domains at once over one
     shared world; the replay that publishes [sets] runs under this. *)
  j_lock : Mutex.t;
}

let frame_addr i = i * Phys_mem.page_size
let frame_of_addr a = a / Phys_mem.page_size

(* Allocator lifecycle events for the sanitizer's shadow map and the
   dirty tracker.  Every site bumps the intrinsic count, then builds
   its event only when the channel is armed. *)
type event =
  | Created of t
  | Claim of { alloc : t; addr : int; frames : int; purpose : purpose }
  | Free_request of { alloc : t; addr : int; what : string }
  | Release of { alloc : t; addr : int; frames : int }

let events : (event -> unit) Hook.t = Hook.create ()
let mutation_count () = Hook.count events
let fire ev = List.iter (fun (_, f) -> f ev) events.subs

let mem t = t.mem

let create mem ~reserved_frames =
  let nframes = Phys_mem.page_count mem in
  if reserved_frames < 0 || reserved_frames >= nframes then
    invalid_arg "Page_alloc.create: bad reserved_frames";
  let t =
    {
      mem;
      first = reserved_frames;
      nframes;
      meta = Array.init nframes (fun _ -> { state = Free; size = S4k });
      free4k = Dll.create ~capacity:nframes ~name:"free4k";
      free2m = Dll.create ~capacity:nframes ~name:"free2m";
      free1g = Dll.create ~capacity:nframes ~name:"free1g";
      sets = Array.make nclasses Iset.empty;
      j_lo = Array.make journal_cap 0;
      j_hi = Array.make journal_cap 0;
      j_len = 0;
      j_stale = true;
      j_lock = Mutex.create ();
    }
  in
  for i = reserved_frames to nframes - 1 do
    Dll.push_back t.free4k i
  done;
  Hook.note events;
  if events.armed then fire (Created t);
  t

let managed_frames t = t.nframes - t.first
let free_count_4k t = Dll.length t.free4k
let free_count_2m t = Dll.length t.free2m
let free_count_1g t = Dll.length t.free1g

let managed t i = i >= t.first && i < t.nframes

let head_meta t ~addr op =
  let i = frame_of_addr addr in
  if not (managed t i) then
    invalid_arg (Printf.sprintf "Page_alloc.%s: 0x%x unmanaged" op addr);
  if not (Phys_mem.is_page_aligned addr) then
    invalid_arg (Printf.sprintf "Page_alloc.%s: 0x%x unaligned" op addr);
  (i, t.meta.(i))

(* Record that frames [lo, hi) changed state class or may have.  No
   allocation: two array stores and a counter bump.  A range wider than
   a 2 MiB block (a 1 GiB merge or split) marks the cache stale instead:
   replaying it would cost more than the rebuild. *)
let journal t ~lo ~hi =
  if not t.j_stale then
    if t.j_len = journal_cap || hi - lo > frames_per S2m then t.j_stale <- true
    else begin
      t.j_lo.(t.j_len) <- lo;
      t.j_hi.(t.j_len) <- hi;
      t.j_len <- t.j_len + 1
    end

let zero_block t i size =
  for j = i to i + frames_per size - 1 do
    Phys_mem.zero_page t.mem ~addr:(frame_addr j)
  done

let order_of = function S4k -> 0 | S2m -> 1 | S1g -> 2

let alloc_ctr = Atmo_obs.Metrics.counter "pmem/alloc"
let free_ctr = Atmo_obs.Metrics.counter "pmem/free"
let merge_ctr = Atmo_obs.Metrics.counter "pmem/superpage_merge"

let claim t i size purpose =
  let m = t.meta.(i) in
  Hook.note events;
  if events.armed then
    fire (Claim { alloc = t; addr = frame_addr i; frames = frames_per size; purpose });
  m.size <- size;
  m.state <- (match purpose with Kernel -> Allocated | User -> Mapped 1);
  journal t ~lo:i ~hi:(i + 1);
  zero_block t i size;
  if Atmo_obs.Sink.tracing () then begin
    Atmo_obs.Sink.emit_page_alloc ~addr:(frame_addr i) ~order:(order_of size) ();
    Atmo_obs.Metrics.Counter.incr alloc_ctr
  end;
  frame_addr i

(* Merge [count] aligned free sub-blocks of [sub] size headed at [i] into
   one block of [super] size.  Constituent heads are unlinked from their
   free list in O(1) via the page-array node indices; every absorbed
   frame — sub-heads and their bodies alike — is re-pointed at the new
   super-head. *)
let absorb t ~head ~sub ~free_list ~count =
  let stride = frames_per sub in
  (* Every constituent is free, so no live translation should target the
     range — shooting it anyway keeps the TLB protocol airtight against
     a use-after-free mapping that the sanitizer would also flag. *)
  Atmo_hw.Tlb.shoot_frames t.mem ~lo:(frame_addr head)
    ~hi:(frame_addr (head + (count * stride)));
  for k = 0 to count - 1 do
    Dll.remove free_list (head + (k * stride))
  done;
  journal t ~lo:head ~hi:(head + (count * stride));
  for j = head + 1 to head + (count * stride) - 1 do
    t.meta.(j).state <- Merged head;
    t.meta.(j).size <- S4k
  done

(* Scan the page array for an aligned run of [count] free blocks of
   [sub] size and merge them (the paper's superpage formation). *)
let try_merge t ~sub ~super ~sub_list ~super_list =
  let stride = frames_per sub in
  let span = frames_per super in
  let aligned_start = (t.first + span - 1) / span * span in
  let rec scan head =
    if head + span > t.nframes then false
    else begin
      let all_free = ref true in
      (let k = ref 0 in
       while !all_free && !k < span / stride do
         let j = head + (!k * stride) in
         let m = t.meta.(j) in
         if not (m.state = Free && equal_size m.size sub) then all_free := false;
         incr k
      done);
      if !all_free then begin
        absorb t ~head ~sub ~free_list:sub_list ~count:(span / stride);
        t.meta.(head).state <- Free;
        t.meta.(head).size <- super;
        Dll.push_back super_list head;
        if Atmo_obs.Sink.tracing () then begin
          Atmo_obs.Sink.emit_superpage_merge ~head:(frame_addr head)
            ~order:(order_of super) ();
          Atmo_obs.Metrics.Counter.incr merge_ctr
        end;
        true
      end
      else scan (head + span)
    end
  in
  scan aligned_start

let try_merge_2m t =
  try_merge t ~sub:S4k ~super:S2m ~sub_list:t.free4k ~super_list:t.free2m

(* Single pass that merges every eligible aligned group — used before a
   1 GiB promotion, where the one-at-a-time scan would be quadratic in
   machine size. *)
let merge_all t ~sub ~super ~sub_list ~super_list =
  let stride = frames_per sub in
  let span = frames_per super in
  let aligned_start = (t.first + span - 1) / span * span in
  let merged = ref 0 in
  let head = ref aligned_start in
  while !head + span <= t.nframes do
    let all_free = ref true in
    (let k = ref 0 in
     while !all_free && !k < span / stride do
       let j = !head + (!k * stride) in
       let m = t.meta.(j) in
       if not (m.state = Free && equal_size m.size sub) then all_free := false;
       incr k
    done);
    if !all_free then begin
      absorb t ~head:!head ~sub ~free_list:sub_list ~count:(span / stride);
      t.meta.(!head).state <- Free;
      t.meta.(!head).size <- super;
      Dll.push_back super_list !head;
      if Atmo_obs.Sink.tracing () then begin
        Atmo_obs.Sink.emit_superpage_merge ~head:(frame_addr !head)
          ~order:(order_of super) ();
        Atmo_obs.Metrics.Counter.incr merge_ctr
      end;
      incr merged
    end;
    head := !head + span
  done;
  !merged

let try_merge_1g t =
  (* Form all possible 2 MiB blocks first so a fully-free gigabyte
     region can always be promoted. *)
  ignore (merge_all t ~sub:S4k ~super:S2m ~sub_list:t.free4k ~super_list:t.free2m);
  try_merge t ~sub:S2m ~super:S1g ~sub_list:t.free2m ~super_list:t.free1g

(* Split a free block headed at [i] of [super] size into free blocks of
   [sub] size; body frames are re-pointed at their new sub-heads. *)
let split t ~head ~super ~sub ~sub_list =
  let stride = frames_per sub in
  let span = frames_per super in
  Atmo_hw.Tlb.shoot_frames t.mem ~lo:(frame_addr head) ~hi:(frame_addr (head + span));
  journal t ~lo:head ~hi:(head + span);
  t.meta.(head).size <- sub;
  Dll.push_back sub_list head;
  let k = ref stride in
  while !k < span do
    let j = head + !k in
    t.meta.(j).state <- Free;
    t.meta.(j).size <- sub;
    Dll.push_back sub_list j;
    k := !k + stride
  done;
  if stride > 1 then
    for g = 0 to (span / stride) - 1 do
      let sub_head = head + (g * stride) in
      for b = sub_head + 1 to sub_head + stride - 1 do
        t.meta.(b).state <- Merged sub_head
      done
    done

let rec alloc_4k t ~purpose =
  match Dll.pop_front t.free4k with
  | Some i -> Some (claim t i S4k purpose)
  | None ->
    (match Dll.pop_front t.free2m with
     | Some head ->
       split t ~head ~super:S2m ~sub:S4k ~sub_list:t.free4k;
       alloc_4k t ~purpose
     | None ->
       (match Dll.pop_front t.free1g with
        | Some head ->
          split t ~head ~super:S1g ~sub:S2m ~sub_list:t.free2m;
          alloc_4k t ~purpose
        | None -> None))

let rec alloc_2m t ~purpose =
  match Dll.pop_front t.free2m with
  | Some i -> Some (claim t i S2m purpose)
  | None ->
    if try_merge_2m t then alloc_2m t ~purpose
    else
      (match Dll.pop_front t.free1g with
       | Some head ->
         split t ~head ~super:S1g ~sub:S2m ~sub_list:t.free2m;
         alloc_2m t ~purpose
       | None -> None)

let rec alloc_1g t ~purpose =
  match Dll.pop_front t.free1g with
  | Some i -> Some (claim t i S1g purpose)
  | None -> if try_merge_1g t then alloc_1g t ~purpose else None

let release t i =
  let m = t.meta.(i) in
  Hook.note events;
  if events.armed then
    fire (Release { alloc = t; addr = frame_addr i; frames = frames_per m.size });
  m.state <- Free;
  journal t ~lo:i ~hi:(i + 1);
  let list =
    match m.size with S4k -> t.free4k | S2m -> t.free2m | S1g -> t.free1g
  in
  Dll.push_back list i;
  if Atmo_obs.Sink.tracing () then begin
    Atmo_obs.Sink.emit_page_free ~addr:(frame_addr i) ~order:(order_of m.size) ();
    Atmo_obs.Metrics.Counter.incr free_ctr
  end

let free_kernel_page t ~addr =
  Hook.note events;
  if events.armed then fire (Free_request { alloc = t; addr; what = "free_kernel_page" });
  let i, m = head_meta t ~addr "free_kernel_page" in
  match m.state with
  | Allocated -> release t i
  | Free | Mapped _ | Merged _ ->
    invalid_arg
      (Format.asprintf "Page_alloc.free_kernel_page: 0x%x is %a" addr pp_state m.state)

let inc_ref t ~addr =
  let _, m = head_meta t ~addr "inc_ref" in
  match m.state with
  | Mapped n -> m.state <- Mapped (n + 1)
  | Free | Allocated | Merged _ ->
    invalid_arg
      (Format.asprintf "Page_alloc.inc_ref: 0x%x is %a" addr pp_state m.state)

let dec_ref t ~addr =
  Hook.note events;
  if events.armed then fire (Free_request { alloc = t; addr; what = "dec_ref" });
  let i, m = head_meta t ~addr "dec_ref" in
  match m.state with
  | Mapped 1 ->
    release t i;
    `Freed
  | Mapped n ->
    m.state <- Mapped (n - 1);
    `Live
  | Free | Allocated | Merged _ ->
    invalid_arg
      (Format.asprintf "Page_alloc.dec_ref: 0x%x is %a" addr pp_state m.state)

let ref_count t ~addr =
  let _, m = head_meta t ~addr "ref_count" in
  match m.state with Mapped n -> Some n | Free | Allocated | Merged _ -> None

let state_of t ~addr =
  let i = frame_of_addr addr in
  if managed t i then Some t.meta.(i).state else None

let size_of t ~addr =
  let i = frame_of_addr addr in
  if not (managed t i) then None
  else
    match t.meta.(i).state with
    | Merged _ -> None
    | Free | Allocated | Mapped _ -> Some t.meta.(i).size

let is_free t ~addr =
  match state_of t ~addr with Some Free -> true | _ -> false

(* Bring the cached sets up to date and return them: replay only the
   journaled frames, so sets no journaled frame entered or left stay
   physically the same value; rebuild everything when stale. *)
let current t =
  Mutex.protect t.j_lock (fun () ->
      if t.j_stale then begin
        let acc = Array.make nclasses [] in
        for i = t.nframes - 1 downto t.first do
          let c = class_of t.meta.(i) in
          acc.(c) <- frame_addr i :: acc.(c)
        done;
        t.sets <- Array.map Iset.of_list acc;
        t.j_stale <- false
      end
      else if t.j_len > 0 then begin
        let sets = Array.copy t.sets in
        for k = 0 to t.j_len - 1 do
          for i = t.j_lo.(k) to t.j_hi.(k) - 1 do
            let a = frame_addr i and c = class_of t.meta.(i) in
            for s = 0 to nclasses - 1 do
              sets.(s) <- (if s = c then Iset.add a sets.(s) else Iset.remove a sets.(s))
            done
          done
        done;
        t.sets <- sets
      end;
      t.j_len <- 0;
      t.sets)

let free_pages_4k t = (current t).(0)
let free_pages_2m t = (current t).(1)
let free_pages_1g t = (current t).(2)
let allocated_pages t = (current t).(3)
let mapped_pages t = (current t).(4)
let merged_pages t = (current t).(5)

let frames_of_block t ~addr =
  let i, m = head_meta t ~addr "frames_of_block" in
  (match m.state with
   | Merged _ -> invalid_arg "Page_alloc.frames_of_block: body frame"
   | Free | Allocated | Mapped _ -> ());
  let n = frames_per m.size in
  let acc = ref Iset.empty in
  for j = i to i + n - 1 do
    acc := Iset.add (frame_addr j) !acc
  done;
  !acc

let wf t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let* () = Dll.wf t.free4k in
  let* () = Dll.wf t.free2m in
  let* () = Dll.wf t.free1g in
  let check_list list size =
    let result = ref (Ok ()) in
    Dll.iter list (fun i ->
        match !result with
        | Error _ -> ()
        | Ok () ->
          let m = t.meta.(i) in
          if m.state <> Free then
            result := err "frame %d on %s list but state %a" i (Dll.name list) pp_state m.state
          else if not (equal_size m.size size) then
            result := err "frame %d on %s list but size %a" i (Dll.name list) pp_size m.size
          else if i mod frames_per size <> 0 then
            result := err "frame %d on %s list misaligned" i (Dll.name list));
    !result
  in
  let* () = check_list t.free4k S4k in
  let* () = check_list t.free2m S2m in
  let* () = check_list t.free1g S1g in
  (* The cached frame-state sets agree with the metadata: every element
     is a managed frame of its set's class, and the sizes add up to the
     managed frames, so the six sets partition them exactly.  A mutation
     the journal missed leaves a stale element or a wrong count. *)
  let* () =
    let sets = current t in
    let total = ref 0 and bad = ref None in
    Array.iteri
      (fun c set ->
        total := !total + Iset.cardinal set;
        Iset.iter
          (fun a ->
            let i = frame_of_addr a in
            if
              Option.is_none !bad
              && not (Phys_mem.is_page_aligned a && managed t i && class_of t.meta.(i) = c)
            then bad := Some (c, a))
          set)
      sets;
    match !bad with
    | Some (c, a) ->
      err "cached %s set holds 0x%x, which is %s" class_names.(c) a
        (match state_of t ~addr:a with
         | Some st -> Format.asprintf "%a" pp_state st
         | None -> "unmanaged")
    | None ->
      if !total <> managed_frames t then
        err "cached frame-state sets hold %d frames but %d are managed" !total
          (managed_frames t)
      else Ok ()
  in
  let result = ref (Ok ()) in
  let fail fmt = Format.kasprintf (fun s -> if !result = Ok () then result := Error s) fmt in
  for i = t.first to t.nframes - 1 do
    let m = t.meta.(i) in
    (match m.state with
     | Free ->
       let list =
         match m.size with S4k -> t.free4k | S2m -> t.free2m | S1g -> t.free1g
       in
       if not (Dll.mem list i) then
         fail "free frame %d (%a) not on its free list" i pp_size m.size
     | Allocated | Mapped _ ->
       if Dll.mem t.free4k i || Dll.mem t.free2m i || Dll.mem t.free1g i then
         fail "live frame %d on a free list" i;
       if i mod frames_per m.size <> 0 then
         fail "head frame %d misaligned for size %a" i pp_size m.size;
       (match m.state with
        | Mapped n when n <= 0 -> fail "mapped frame %d has refcount %d" i n
        | _ -> ())
     | Merged h ->
       if not (managed t h) then fail "merged frame %d has unmanaged head %d" i h
       else begin
         let hm = t.meta.(h) in
         (match hm.state with
          | Merged _ -> fail "merged frame %d points at merged head %d" i h
          | Free | Allocated | Mapped _ ->
            let span = frames_per hm.size in
            if not (h mod span = 0 && h < i && i < h + span) then
              fail "merged frame %d outside block of head %d (%a)" i h pp_size hm.size)
       end)
  done;
  let* () = !result in
  (* Heads own their bodies: every non-head frame inside a live superpage
     block must be Merged into exactly that head. *)
  let result = ref (Ok ()) in
  for i = t.first to t.nframes - 1 do
    let m = t.meta.(i) in
    match m.state with
    | (Free | Allocated | Mapped _) when m.size <> S4k ->
      let span = frames_per m.size in
      for j = i + 1 to min (i + span) t.nframes - 1 do
        match t.meta.(j).state with
        | Merged h when h = i -> ()
        | st ->
          if !result = Ok () then
            result :=
              Error
                (Format.asprintf "body frame %d of head %d is %a" j i pp_state st)
      done
    | _ -> ()
  done;
  !result
