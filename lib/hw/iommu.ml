type t = {
  mem : Phys_mem.t;
  contexts : (int, int) Hashtbl.t;  (* device id -> translation root *)
  iotlbs : (int, Tlb.t) Hashtbl.t;  (* device id -> its IOTLB *)
  mutable faults : int;
}

type dma_error = {
  e_device : int;
  e_iova : int;
  e_len : int;
  e_write : bool;
  e_reason : [ `No_domain | `Unmapped | `Readonly ];
}

let reason_name = function
  | `No_domain -> "no-domain"
  | `Unmapped -> "unmapped"
  | `Readonly -> "readonly"

let pp_dma_error ppf e =
  Format.fprintf ppf "device %d %s iova=0x%x len=%d: %s" e.e_device
    (if e.e_write then "write" else "read")
    e.e_iova e.e_len (reason_name e.e_reason)

(* Rejected DMA bursts, process-wide (like mmu/walk_loads the registry
   entry lives for the whole process; [Metrics.reset] zeroes it). *)
let blocked_counter = Atmo_obs.Metrics.counter "iommu/blocked"
let blocked () = Atmo_obs.Metrics.Counter.value blocked_counter

let create mem =
  { mem; contexts = Hashtbl.create 16; iotlbs = Hashtbl.create 16; faults = 0 }

let iotlb_of t ~device ~root =
  match Hashtbl.find_opt t.iotlbs device with
  | Some tlb -> tlb
  | None ->
    let tlb = Tlb.create t.mem ~asid:root ~kind:`Io in
    Hashtbl.replace t.iotlbs device tlb;
    tlb

let attach t ~device ~root =
  if not (Phys_mem.is_page_aligned root) then
    invalid_arg "Iommu.attach: root not page-aligned";
  (* A re-attach changes the domain under the device; its IOTLB must not
     carry translations from the old one. *)
  (match Hashtbl.find_opt t.iotlbs device with
   | Some tlb -> Tlb.flush tlb
   | None -> ());
  Hashtbl.remove t.iotlbs device;
  Hashtbl.replace t.contexts device root

let detach t ~device =
  (match Hashtbl.find_opt t.iotlbs device with
   | Some tlb -> Tlb.flush tlb
   | None -> ());
  Hashtbl.remove t.iotlbs device;
  Hashtbl.remove t.contexts device

let domain_of t ~device = Hashtbl.find_opt t.contexts device
let devices t = Hashtbl.fold (fun d _ acc -> d :: acc) t.contexts []
let faults t = t.faults

let iotlb_invlpg t ~device ~iova =
  match Hashtbl.find_opt t.iotlbs device with
  | None -> ()
  | Some tlb -> Tlb.invalidate_page tlb ~vaddr:iova

let iter_iotlbs t f = Hashtbl.iter (fun device tlb -> f ~device tlb) t.iotlbs

(* The IOTLB is deliberately NOT reached by CPU-side shootdowns (the
   [Tlb] registry): real IOMMUs have their own invalidation queue, and a
   kernel that unmaps a DMA buffer but forgets the IOTLB invalidation has
   a window where the device still reaches the freed frame.  Modelling
   that window is the point — [Atmo_san.Tlb_lint] catches it. *)
let translate t ~device ~iova =
  match Hashtbl.find_opt t.contexts device with
  | None ->
    t.faults <- t.faults + 1;
    None
  | Some root ->
    let walk () =
      match Mmu.walk t.mem ~cr3:root ~vaddr:iova with
      | None ->
        t.faults <- t.faults + 1;
        None
      | Some tr -> Some tr
    in
    if not (Tlb.enabled ()) then walk ()
    else
      let tlb = iotlb_of t ~device ~root in
      (match Tlb.lookup tlb ~vaddr:iova with
       | Some (frame, size, perm) ->
         Some
           {
             Mmu.paddr = frame + (iova land (size - 1));
             frame;
             size;
             perm;
           }
       | None ->
         (match walk () with
          | None -> None
          | Some tr ->
            Tlb.insert tlb ~vaddr:iova ~frame:tr.Mmu.frame ~size:tr.Mmu.size
              ~perm:tr.Mmu.perm;
            Some tr))

(* DMA bursts may cross frame boundaries; every touched frame must be
   mapped with suitable permissions or the whole burst is rejected
   before a single byte of [Phys_mem] is touched. *)
let span_check t ~device ~iova ~len ~need_write =
  let err reason off =
    t.faults <- t.faults + 1;
    Atmo_obs.Metrics.Counter.incr blocked_counter;
    Error
      { e_device = device; e_iova = iova + off; e_len = len; e_write = need_write;
        e_reason = reason }
  in
  let rec go off =
    if off >= len then Ok ()
    else
      match translate t ~device ~iova:(iova + off) with
      | None ->
        (* [translate] already charged [t.faults] for the miss itself *)
        t.faults <- t.faults - 1;
        err (if Hashtbl.mem t.contexts device then `Unmapped else `No_domain) off
      | Some tr ->
        if need_write && not tr.Mmu.perm.Pte_bits.write then err `Readonly off
        else
          let in_frame = (iova + off) land (Phys_mem.page_size - 1) in
          go (off + (Phys_mem.page_size - in_frame))
  in
  go 0

let dma_write_checked t ~device ~iova data =
  let len = Bytes.length data in
  match span_check t ~device ~iova ~len ~need_write:true with
  | Error e -> Error e
  | Ok () -> begin
    let rec go off =
      if off < len then begin
        match translate t ~device ~iova:(iova + off) with
        | None -> assert false (* span_check checked every frame *)
        | Some tr ->
          let in_frame = (iova + off) land (Phys_mem.page_size - 1) in
          let chunk = min (len - off) (Phys_mem.page_size - in_frame) in
          Phys_mem.blit_to t.mem ~addr:tr.Mmu.paddr (Bytes.sub data off chunk);
          go (off + chunk)
      end
    in
    go 0;
    Ok ()
  end

let dma_write t ~device ~iova data =
  match dma_write_checked t ~device ~iova data with Ok () -> true | Error _ -> false

let dma_read_checked t ~device ~iova ~len =
  match span_check t ~device ~iova ~len ~need_write:false with
  | Error e -> Error e
  | Ok () -> begin
    let dst = Bytes.make len '\000' in
    let rec go off =
      if off < len then begin
        match translate t ~device ~iova:(iova + off) with
        | None -> assert false
        | Some tr ->
          let in_frame = (iova + off) land (Phys_mem.page_size - 1) in
          let chunk = min (len - off) (Phys_mem.page_size - in_frame) in
          Bytes.blit (Phys_mem.blit_from t.mem ~addr:tr.Mmu.paddr ~len:chunk) 0 dst off chunk;
          go (off + chunk)
      end
    in
    go 0;
    Ok dst
  end

let dma_read t ~device ~iova ~len =
  match dma_read_checked t ~device ~iova ~len with Ok b -> Some b | Error _ -> None
