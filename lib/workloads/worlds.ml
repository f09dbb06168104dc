(* Harness worlds shared by the CLI, the benches, the tests and the kv
   demo.  Each is defined here once so the callers cannot drift apart. *)

module Kernel = Atmo_core.Kernel
module Syscall = Atmo_spec.Syscall
module Proc_mgr = Atmo_pm.Proc_mgr
module Message = Atmo_pm.Message
module Smp = Atmo_sim.Smp
module Clock = Atmo_hw.Clock
module Phys_mem = Atmo_hw.Phys_mem
module Iommu = Atmo_hw.Iommu
module Page_alloc = Atmo_pmem.Page_alloc
module Page_table = Atmo_pt.Page_table
module Fault = Atmo_devmodel.Fault
module Hostile = Atmo_devmodel.Hostile
module Nvme = Atmo_drivers.Nvme
module Virtio_blk = Atmo_drivers.Virtio_blk

(* ------------------------------------------------------------------ *)
(* Standalone DMA arena                                                *)

let dma_arena ~page_count ~device =
  let mem = Phys_mem.create ~page_count in
  let alloc = Page_alloc.create mem ~reserved_frames:0 in
  let iommu = Iommu.create mem in
  let pt =
    match Page_table.create mem alloc with
    | Ok pt -> pt
    | Error e -> Fmt.failwith "dma arena: page table: %a" Page_table.pp_error e
  in
  let map_page iova =
    let frame =
      match Page_alloc.alloc_4k alloc ~purpose:Page_alloc.User with
      | Some f -> f
      | None -> Fmt.failwith "dma arena: out of frames"
    in
    match Page_table.map_4k pt ~vaddr:iova ~frame ~perm:Atmo_hw.Pte_bits.perm_rw with
    | Ok () -> ()
    | Error _ -> Fmt.failwith "dma arena: map failed at 0x%x" iova
  in
  let next_iova = ref 0x20_0000 in
  let span bytes =
    let base = !next_iova in
    let pages = (bytes + Phys_mem.page_size - 1) / Phys_mem.page_size in
    for i = 0 to pages - 1 do
      map_page (base + (i * Phys_mem.page_size))
    done;
    next_iova := base + (pages * Phys_mem.page_size);
    base
  in
  Iommu.attach iommu ~device ~root:(Page_table.cr3 pt);
  (mem, iommu, span)

(* ------------------------------------------------------------------ *)
(* Seeded hostile device sweep                                         *)

let setup what = function
  | Ok () -> ()
  | Error e -> Fmt.failwith "hostile sweep: %s setup: %s" what (Fault.error_to_string e)

module type NIC = sig
  type t

  val create :
    Phys_mem.t -> Iommu.t -> device:int -> clock:Clock.t -> cost:Atmo_sim.Cost.t -> t

  val setup_rx : t -> ring_iova:int -> buffers:(int * int) array -> (unit, Fault.error) result
  val setup_tx : t -> ring_iova:int -> buffers:(int * int) array -> (unit, Fault.error) result
  val set_hostile : t -> Hostile.t option -> unit
  val wire_deliver : t -> bytes -> bool
  val wire_collect : t -> bytes list
  val rx_burst : t -> max:int -> bytes list
  val tx_burst : t -> bytes list -> int
  val error_count : t -> int
end

let sweep_frame = Bytes.make 96 '\x5a'

let nic_sweep (module N : NIC) ~name ~device ~seed ~steps =
  let clock = Clock.create () in
  let slots = 8 in
  let mem, iommu, span = dma_arena ~page_count:128 ~device in
  let nic = N.create mem iommu ~device ~clock ~cost:Atmo_sim.Cost.default in
  let buffers () = Array.init slots (fun _ -> (span 2048, 2048)) in
  setup name (N.setup_rx nic ~ring_iova:(span Phys_mem.page_size) ~buffers:(buffers ()));
  setup name (N.setup_tx nic ~ring_iova:(span Phys_mem.page_size) ~buffers:(buffers ()));
  N.set_hostile nic (Some (Hostile.create ~seed ()));
  for i = 1 to steps do
    ignore (N.wire_deliver nic sweep_frame);
    ignore (N.rx_burst nic ~max:slots);
    if i mod 4 = 0 then begin
      ignore (N.tx_burst nic [ sweep_frame ]);
      ignore (N.wire_collect nic)
    end
  done;
  N.set_hostile nic None;
  for _ = 1 to 4 do
    ignore (N.rx_burst nic ~max:slots)
  done;
  N.error_count nic

let hostile_nic_sweep ~seed ~steps ~kind =
  match kind with
  | `Ixgbe -> nic_sweep (module Atmo_drivers.Ixgbe) ~name:"ixgbe" ~device:11 ~seed ~steps
  | `Virtio ->
    nic_sweep (module Atmo_drivers.Virtio_net) ~name:"virtio-net" ~device:14 ~seed ~steps

module type BLK = sig
  type t
  type completion

  val set_hostile : t -> Hostile.t option -> unit
  val submit_read : t -> lba:int -> (int, Fault.error) result
  val submit_write : t -> lba:int -> data:bytes -> (int, Fault.error) result
  val poll : t -> completion list
  val wait_all : t -> completion list
  val error_count : t -> int
end

let blk_sweep (type d) (module B : BLK with type t = d) (dev : d) ~seed ~steps =
  let block = Bytes.make Nvme.block_bytes 'b' in
  B.set_hostile dev (Some (Hostile.create ~seed ()));
  for i = 1 to steps do
    let lba = i mod 256 in
    (match
       if i mod 3 = 0 then Result.map ignore (B.submit_write dev ~lba ~data:block)
       else Result.map ignore (B.submit_read dev ~lba)
     with
     | Ok () -> ()
     | Error _ -> ignore (B.wait_all dev));
    if i mod 8 = 0 then ignore (B.poll dev)
  done;
  ignore (B.wait_all dev);
  B.set_hostile dev None;
  ignore (B.wait_all dev);
  B.error_count dev

let hostile_blk_sweep ~seed ~steps ~kind =
  let cost = Atmo_sim.Cost.default in
  let clock = Clock.create () in
  match kind with
  | `Nvme ->
    let dev = Nvme.create ~clock ~cost ~capacity_blocks:256 in
    Nvme.set_device dev 12;
    blk_sweep (module Nvme) dev ~seed ~steps
  | `Virtio ->
    let mem, iommu, span = dma_arena ~page_count:128 ~device:13 in
    let dev = Virtio_blk.create mem iommu ~device:13 ~clock ~cost ~capacity_blocks:256 in
    let depth = 16 in
    let _, _, _, ring_bytes = Atmo_drivers.Virtio_ring.layout ~qsz:(3 * depth) ~base:0 in
    let ring_iova = span ring_bytes in
    let arena_iova = span (depth * Virtio_blk.slot_bytes) in
    setup "virtio-blk" (Virtio_blk.setup dev ~ring_iova ~arena_iova ~depth);
    blk_sweep (module Virtio_blk) dev ~seed ~steps

let hostile_sweep ~seed ~steps =
  let ixgbe = hostile_nic_sweep ~seed ~steps ~kind:`Ixgbe in
  let virtio_net = hostile_nic_sweep ~seed:(seed + 1) ~steps ~kind:`Virtio in
  let nvme = hostile_blk_sweep ~seed:(seed + 2) ~steps ~kind:`Nvme in
  let virtio_blk = hostile_blk_sweep ~seed:(seed + 3) ~steps ~kind:`Virtio in
  ixgbe + virtio_net + nvme + virtio_blk

(* ------------------------------------------------------------------ *)
(* Ping-pong                                                           *)

type ping_pong = { receiver : int; endpoint : int; programs : Smp.program list }

let ping_pong k ~init =
  let ptr what = function
    | Syscall.Rptr p -> p
    | r -> Fmt.failwith "ping_pong: %s -> %a" what Syscall.pp_ret r
  in
  let receiver = ptr "new_thread" (Kernel.step k ~thread:init Syscall.New_thread) in
  let endpoint =
    ptr "new_endpoint" (Kernel.step k ~thread:init (Syscall.New_endpoint { slot = 0 }))
  in
  Proc_mgr.share_endpoint k.Kernel.pm ~thread:receiver ~slot:0 ~endpoint;
  let programs =
    [
      { Smp.thread = receiver; think_cycles = 600;
        call_of = (fun _ -> Syscall.Recv { slot = 0 }) };
      { Smp.thread = init; think_cycles = 800;
        call_of = (fun i -> Syscall.Send { slot = 0; msg = Message.scalars_only [ i ] }) };
    ]
  in
  { receiver; endpoint; programs }

(* ------------------------------------------------------------------ *)
(* The scripted kernel workload                                        *)

type guard = { guard : 'a. (unit -> 'a) -> 'a }

let unguarded = { guard = (fun f -> f ()) }

type script = { world : ping_pong; smp : Smp.stats; kernel_cycles : int; drv_cycles : int }

let run_script { guard } k ~init ~iterations =
  let cost = Atmo_sim.Cost.default in
  let world = guard (fun () -> ping_pong k ~init) in
  let t2 = world.receiver in
  let smp =
    match Smp.run k ~cost ~cpus:2 ~programs:world.programs ~iterations with
    | Ok s -> s
    | Error msg -> Fmt.failwith "scripted: smp phase failed: %s" msg
  in
  (* past the SMP phase a virtual clock continues where its timeline
     stopped; each harness step advances it by the call's model cost *)
  let vnow = ref smp.Smp.wall_cycles in
  let tracing = Atmo_obs.Sink.tracing () in
  if tracing then Atmo_obs.Sink.set_clock (fun () -> !vnow);
  let step thread call =
    let r = guard (fun () -> Kernel.step k ~thread call) in
    let c = Smp.syscall_cycles cost call in
    vnow := !vnow + c;
    if tracing then Atmo_obs.Metrics.observe ("lat/syscall/" ^ Syscall.name call) c;
    r
  in
  let fail what r = Fmt.failwith "scripted: %s -> %a" what Syscall.pp_ret r in
  (* memory: small pages with user-level MMU walks (and one miss),
     permission tightening, then a 2 MiB mapping that forces superpage
     formation out of free 4 KiB frames *)
  let s4k = Atmo_pmem.Page_state.S4k and s2m = Atmo_pmem.Page_state.S2m in
  let rw = Atmo_hw.Pte_bits.perm_rw and ro = Atmo_hw.Pte_bits.perm_ro in
  ignore (step init (Syscall.Mmap { va = 0x4000_0000; count = 8; size = s4k; perm = rw }));
  for i = 0 to 7 do
    ignore (Kernel.resolve_user k ~thread:init ~vaddr:(0x4000_0000 + (i * 0x1000)))
  done;
  ignore (Kernel.resolve_user k ~thread:init ~vaddr:0x7fff_0000);
  ignore (step init (Syscall.Mprotect { va = 0x4000_0000; perm = ro }));
  ignore (step init (Syscall.Munmap { va = 0x4000_0000; count = 8; size = s4k }));
  ignore (step init (Syscall.Mmap { va = 0x8000_0000; count = 1; size = s2m; perm = rw }));
  ignore (step init (Syscall.Munmap { va = 0x8000_0000; count = 1; size = s2m }));
  (* one last rendezvous in the other direction: the sender goes
     first, the receiver harvests it *)
  ignore (step init (Syscall.Send { slot = 0; msg = Message.scalars_only [ 99 ] }));
  ignore (step t2 (Syscall.Recv { slot = 0 }));
  (* devices: an IOMMU domain with a live DMA window, and an interrupt
     routed through the shared endpoint to the parked receiver *)
  ignore (step init (Syscall.Mmap { va = 0x5000_0000; count = 1; size = s4k; perm = rw }));
  (match step init (Syscall.Assign_device { device = 7 }) with
   | Syscall.Runit -> ()
   | r -> fail "assign_device" r);
  ignore (step init (Syscall.Io_map { device = 7; iova = 0x1_0000; va = 0x5000_0000 }));
  ignore (step init (Syscall.Register_irq { device = 7; slot = 0 }));
  ignore (step t2 (Syscall.Recv { slot = 0 }));
  ignore (step init (Syscall.Irq_fire { device = 7 }));
  ignore (step init (Syscall.Io_unmap { device = 7; iova = 0x1_0000 }));
  (* containers: delegate quota, then revoke it wholesale *)
  (match step init (Syscall.New_container { quota = 64; cpus = Atmo_util.Iset.empty }) with
   | Syscall.Rptr c -> ignore (step init (Syscall.Terminate_container { container = c }))
   | r -> fail "new_container" r);
  (* NVMe: driver-private buffers on a device clock that continues the
     virtual one *)
  let dclock = Clock.create () in
  Clock.advance dclock !vnow;
  if tracing then Atmo_obs.Sink.set_clock (fun () -> Clock.now dclock);
  let nvme = Nvme.create ~clock:dclock ~cost ~capacity_blocks:1024 in
  Nvme.set_device nvme 7;
  let block = Bytes.make Nvme.block_bytes 'a' in
  for lba = 0 to 7 do
    ignore (Nvme.submit_write nvme ~lba ~data:block)
  done;
  ignore (Nvme.wait_all nvme);
  for lba = 0 to 3 do
    ignore (Nvme.submit_read nvme ~lba)
  done;
  ignore (Nvme.wait_all nvme);
  { world; smp; kernel_cycles = !vnow; drv_cycles = Clock.now dclock }

(* the SMP phase and the script both swap the sink's clock while a
   recorder is installed; the caller gets its own clock back *)
let scripted guard k ~init ~iterations =
  let clock = Atmo_obs.Sink.clock () in
  Fun.protect
    ~finally:(fun () -> Atmo_obs.Sink.set_clock clock)
    (fun () -> run_script guard k ~init ~iterations)
