(* Layer micro-loops for the traced run: each times calls into one
   layer's public functions on a small fixed set-up and reports a
   per-call median.  Calls that take well under a microsecond are timed
   in batches and divided, so clock overhead stays out of the figure. *)

module Kernel = Atmo_core.Kernel
module Syscall = Atmo_spec.Syscall
module Page_state = Atmo_pmem.Page_state
module Pte = Atmo_hw.Pte_bits
module Message = Atmo_pm.Message
module Proc_mgr = Atmo_pm.Proc_mgr
module Perm_map = Atmo_pm.Perm_map
module Thread = Atmo_pm.Thread
module Nvme = Atmo_drivers.Nvme
module Maglev = Atmo_net.Maglev
module Kv_store = Atmo_net.Kv_store
module Catalog = Atmo_verif.Catalog
module Refine_harness = Atmo_verif.Refine_harness

let now = Bclock.now_ns

let boot () =
  match Kernel.boot Kernel.default_boot with
  | Ok v -> v
  | Error e -> Fmt.failwith "boot: %a" Atmo_util.Errno.pp e

let ptr what = function
  | Syscall.Rptr p -> p
  | r -> Fmt.failwith "%s -> %a" what Syscall.pp_ret r

let expect what ok r = if not (ok r) then Fmt.failwith "%s -> %a" what Syscall.pp_ret r

let is_unit = function Syscall.Runit -> true | _ -> false
let is_mapped = function Syscall.Rmapped _ -> true | _ -> false
let is_blocked = function Syscall.Rblocked -> true | _ -> false
let is_msg = function Syscall.Rmsg _ -> true | _ -> false

(* Samples of one call kind, in ns. *)
type series = { mutable xs : float list }

let series () = { xs = [] }
let push s ns = s.xs <- float_of_int ns :: s.xs
let p50 s = Stats.of_list s.xs

let timed s f =
  let t0 = now () in
  let r = f () in
  push s (now () - t0);
  r

(* [Kernel.step] per call kind for the address-space and process calls:
   map, protect and unmap one page; every eighth round also create and
   terminate a child process. *)
let step_costs ~rounds =
  let k, init = boot () in
  let step call = Kernel.step k ~thread:init call in
  let mm = series () and mu = series () and mp = series () in
  let np = series () and tp = series () in
  for i = 0 to rounds - 1 do
    let va = 0x4000_0000 + (i mod 64 * 4096) in
    expect "mmap" is_mapped
      (timed mm (fun () ->
           step (Syscall.Mmap { va; count = 1; size = Page_state.S4k; perm = Pte.perm_rw })));
    expect "mprotect" is_unit
      (timed mp (fun () -> step (Syscall.Mprotect { va; perm = Pte.perm_ro })));
    expect "munmap" is_unit
      (timed mu (fun () -> step (Syscall.Munmap { va; count = 1; size = Page_state.S4k })));
    if i mod 8 = 0 then begin
      let p = ptr "new_process" (timed np (fun () -> step Syscall.New_process)) in
      expect "terminate_process" is_unit
        (timed tp (fun () -> step (Syscall.Terminate_process { proc = p })))
    end
  done;
  [
    ("core.step_ns.mmap", p50 mm); ("core.step_ns.munmap", p50 mu);
    ("core.step_ns.mprotect", p50 mp); ("core.step_ns.new_process", p50 np);
    ("core.step_ns.terminate_process", p50 tp);
  ]

(* The kv demo's IPC shape on a booted kernel: a server thread in its
   own container shares the request (slot 0) and reply (slot 1)
   endpoints with init.  One round is a Send that parks and the Recv
   that completes the rendezvous. *)
let ipc ~rounds =
  let k, init = boot () in
  let pm = k.Kernel.pm in
  let step thread call = Kernel.step k ~thread call in
  let container =
    ptr "new_container"
      (step init (Syscall.New_container { quota = 64; cpus = Atmo_util.Iset.empty }))
  in
  let ok what = function Ok v -> v | Error e -> Fmt.failwith "%s: %a" what Atmo_util.Errno.pp e in
  let proc = ok "new_process" (Proc_mgr.new_process pm ~container ~parent:None) in
  let srv = ok "new_thread" (Proc_mgr.new_thread pm ~proc) in
  List.iter
    (fun slot ->
      let ep = ptr "new_endpoint" (step init (Syscall.New_endpoint { slot })) in
      Perm_map.update pm.Proc_mgr.thrd_perms ~ptr:srv (fun th -> Thread.set_slot th slot (Some ep)))
    [ 0; 1 ];
  let msg = Message.scalars_only [ 1; 2; 3 ] in
  let send = series () and recv = series () and round = series () in
  let half ~sender ~receiver ~slot =
    let t0 = now () in
    expect "send" is_blocked (step sender (Syscall.Send { slot; msg }));
    let t1 = now () in
    expect "recv" is_msg (step receiver (Syscall.Recv { slot }));
    let t2 = now () in
    push send (t1 - t0);
    push recv (t2 - t1);
    push round (t2 - t0)
  in
  for _ = 1 to rounds do
    half ~sender:init ~receiver:srv ~slot:0;
    half ~sender:srv ~receiver:init ~slot:1
  done;
  [ ("core.step_ns.send", p50 send); ("core.step_ns.recv", p50 recv);
    ("core.ipc_round_ns", p50 round) ]

(* Median ns per call of [f i] over [batches] batches of [per] calls. *)
let batched ~batches ~per f =
  let s = series () in
  for b = 0 to batches - 1 do
    let t0 = now () in
    for i = 0 to per - 1 do
      f ((b * per) + i)
    done;
    s.xs <- (float_of_int (now () - t0) /. float_of_int per) :: s.xs
  done;
  p50 s

(* [Kernel.resolve_user] over the vm-churn working set. *)
let resolve ~seed =
  match Churn.setup ~seed with
  | Error e -> failwith e
  | Ok (k, g) ->
    let vas = Churn.mapped_vas g in
    let rng = Random.State.make [| seed |] in
    let order = Array.init 4096 (fun _ -> vas.(Random.State.int rng (Array.length vas))) in
    let miss = ref 0 in
    let ns =
      batched ~batches:64 ~per:4096 (fun i ->
          match Kernel.resolve_user k ~thread:g.Churn.thread ~vaddr:order.(i land 4095) with
          | Some _ -> ()
          | None -> incr miss)
    in
    if !miss > 0 then Fmt.failwith "resolve_user: %d mapped page(s) did not resolve" !miss;
    ns

(* One block read on the kv demo's NVMe model: submit_read + wait_all. *)
let nvme ~reads =
  let d =
    Nvme.create ~clock:(Atmo_hw.Clock.create ()) ~cost:Atmo_sim.Cost.default ~capacity_blocks:1024
  in
  Nvme.set_device d 7;
  let block = Bytes.make Nvme.block_bytes 'v' in
  for lba = 1 to Check.kv_keys do
    match Nvme.submit_write d ~lba ~data:block with
    | Ok _ -> ()
    | Error e -> Fmt.failwith "nvme write: %s" (Atmo_devmodel.Fault.error_to_string e)
  done;
  ignore (Nvme.wait_all d);
  let s = series () in
  for i = 0 to reads - 1 do
    let t0 = now () in
    (match Nvme.submit_read d ~lba:(1 + (i mod Check.kv_keys)) with
     | Ok _ -> ()
     | Error e -> Fmt.failwith "nvme read: %s" (Atmo_devmodel.Fault.error_to_string e));
    if Nvme.wait_all d = [] then failwith "nvme read: no completion";
    push s (now () - t0)
  done;
  p50 s

let kv_key i = Bytes.of_string (Printf.sprintf "k%05d" (i mod Check.kv_keys))

(* One frame through the kv demo's NIC datapath: ixgbe tx_burst, the
   wire, rx DMA and rx_burst, on a private IOMMU domain laid out as the
   demo lays out its own (8 slots of 2 KiB per ring). *)
let ixgbe ~transfers =
  let module Phys_mem = Atmo_hw.Phys_mem in
  let module Ixgbe = Atmo_drivers.Ixgbe in
  let device = 3 in
  let mem = Phys_mem.create ~page_count:64 in
  let alloc = Atmo_pmem.Page_alloc.create mem ~reserved_frames:0 in
  let iommu = Atmo_hw.Iommu.create mem in
  let pt =
    match Atmo_pt.Page_table.create mem alloc with
    | Ok pt -> pt
    | Error _ -> failwith "ixgbe: device page table"
  in
  let next = ref 0x20_0000 in
  let span bytes =
    let base = !next in
    let pages = (bytes + Phys_mem.page_size - 1) / Phys_mem.page_size in
    for i = 0 to pages - 1 do
      let frame =
        match Atmo_pmem.Page_alloc.alloc_4k alloc ~purpose:Atmo_pmem.Page_alloc.User with
        | Some f -> f
        | None -> failwith "ixgbe: arena out of frames"
      in
      match
        Atmo_pt.Page_table.map_4k pt
          ~vaddr:(base + (i * Phys_mem.page_size))
          ~frame ~perm:Pte.perm_rw
      with
      | Ok () -> ()
      | Error _ -> failwith "ixgbe: arena map"
    done;
    next := base + (pages * Phys_mem.page_size);
    base
  in
  Atmo_hw.Iommu.attach iommu ~device ~root:(Atmo_pt.Page_table.cr3 pt);
  let nic =
    Ixgbe.create mem iommu ~device ~clock:(Atmo_hw.Clock.create ()) ~cost:Atmo_sim.Cost.default
  in
  let ring () = span Phys_mem.page_size in
  let bufs () = Array.init 8 (fun _ -> (span 2048, 2048)) in
  let ok what = function
    | Ok () -> ()
    | Error e -> Fmt.failwith "ixgbe %s: %s" what (Atmo_devmodel.Fault.error_to_string e)
  in
  let rx_ring = ring () in
  let rx_bufs = bufs () in
  let tx_ring = ring () in
  let tx_bufs = bufs () in
  ok "setup_rx" (Ixgbe.setup_rx nic ~ring_iova:rx_ring ~buffers:rx_bufs);
  ok "setup_tx" (Ixgbe.setup_tx nic ~ring_iova:tx_ring ~buffers:tx_bufs);
  let flow =
    Atmo_net.Packet.flow_of_ints ~src:0x0a00_0001 ~dst:0x0a00_0002 ~sport:7777 ~dport:11211
  in
  let payload = Kv_store.encode_request (Kv_store.Get (kv_key 1)) in
  let frame = Atmo_net.Packet.build flow ~payload in
  let s = series () in
  for _ = 1 to transfers do
    let t0 = now () in
    let sent = Ixgbe.tx_burst nic [ frame ] in
    List.iter (fun f -> ignore (Ixgbe.wire_deliver nic f)) (Ixgbe.wire_collect nic);
    let got = Ixgbe.rx_burst nic ~max:8 in
    push s (now () - t0);
    if sent <> 1 || List.length got <> 1 then failwith "ixgbe: frame lost"
  done;
  p50 s

(* Maglev steering and a shard GET, over the kv demo's 32 keys. *)
let net () =
  let backends = [ "kv0"; "kv1"; "kv2" ] in
  let maglev = Maglev.create ~backends ~table_size:31 in
  let hashes = Array.init Check.kv_keys (fun i -> Atmo_net.Fnv.hash64 (kv_key i)) in
  let keys = Array.init Check.kv_keys kv_key in
  let store = Kv_store.create ~entries:256 in
  Array.iteri
    (fun i key ->
      if not (Kv_store.set store ~key ~value:(Bytes.of_string (Check.kv_value i))) then
        failwith "kv_store: preload overflowed")
    keys;
  let sink = ref 0 in
  let lookup =
    batched ~batches:64 ~per:4096 (fun i ->
        sink := !sink + String.length (Maglev.lookup maglev hashes.(i land 31)))
  in
  let get =
    batched ~batches:64 ~per:4096 (fun i ->
        match Kv_store.get store ~key:keys.(i land 31) with
        | Some v -> sink := !sink + Bytes.length v
        | None -> failwith "kv_store: preloaded key missing")
  in
  ignore (Sys.opaque_identity !sink);
  [ ("net.maglev_lookup_ns", lookup); ("net.kv_get_ns", get) ]

(* A seeded replay of [Refine_harness.step_checked]'s five calls on the
   verifier's scale-6 world, each timed on its own. *)
let verif_replay ~seed ~steps =
  match Catalog.build_world ~scale:6 with
  | Error e -> failwith ("build_world: " ^ e)
  | Ok (k, _) ->
    let rng = Random.State.make [| seed; 6 |] in
    let abs = series () and stp = series () and spec = series () and wf = series () in
    let rec go i =
      if i < steps then
        match Refine_harness.random_thread rng k with
        | None -> ()
        | Some thread ->
          let call = Refine_harness.random_call rng k ~thread in
          let pre = timed abs (fun () -> Atmo_core.Abstraction.abstract k) in
          let ret = timed stp (fun () -> Kernel.step k ~thread call) in
          let post = timed abs (fun () -> Atmo_core.Abstraction.abstract k) in
          (match
             timed spec (fun () -> Atmo_spec.Syscall_spec.check ~pre ~post ~thread call ret)
           with
           | Ok () -> ()
           | Error m -> Fmt.failwith "replay: %a violates its spec: %s" Syscall.pp call m);
          (match timed wf (fun () -> Atmo_core.Invariants.total_wf k) with
           | Ok () -> ()
           | Error m -> Fmt.failwith "replay: total_wf after %a: %s" Syscall.pp call m);
          go (i + 1)
    in
    go 0;
    [
      ("verif.abstract_ns", p50 abs); ("verif.step_ns", p50 stp);
      ("verif.spec_check_ns", p50 spec); ("verif.total_wf_ns", p50 wf);
    ]

(* The obs layer's cost per kv request: paired trials of the same batch
   with the sink disabled, flight-recording, and flight-recording under
   the monitor, in alternating order.  Returns the per-layer metrics and
   the disabled run's host µs per request net of set-up (the base of the
   kv reconciliation) with its IPC rendezvous per request. *)
type obs = {
  metrics : (string * float) list;
  kv_us_per_req : float;
  rendezvous_per_req : float;
}

let obs ~trials =
  let r = float_of_int Kvrun.monitored_requests in
  let setup =
    Stats.of_list
      (List.init 5 (fun _ -> float_of_int (Kvrun.run ~requests:0 Kvrun.Plain).Kvrun.ns))
  in
  let plain = series () and flight = series () and monitor = series () in
  let ticks = ref 0 and records = ref 0 and dropped = ref 0 and rdv = ref 0 in
  for i = 0 to trials - 1 do
    let modes = [ Kvrun.Plain; Kvrun.Flight_only; Kvrun.Monitored ] in
    let runs =
      List.map
        (fun m -> (m, Kvrun.run ~requests:Kvrun.monitored_requests m))
        (if i mod 2 = 0 then modes else List.rev modes)
    in
    let ns m = (List.assoc m runs).Kvrun.ns in
    let mon = List.assoc Kvrun.Monitored runs in
    let pl = List.assoc Kvrun.Plain runs in
    push plain (ns Kvrun.Plain);
    push flight (ns Kvrun.Flight_only - ns Kvrun.Plain);
    push monitor (ns Kvrun.Monitored - ns Kvrun.Flight_only);
    ticks := !ticks + mon.Kvrun.ticks;
    records := !records + mon.Kvrun.records;
    dropped := !dropped + mon.Kvrun.dropped;
    rdv := !rdv + pl.Kvrun.counters.Counters.fastpath + pl.Kvrun.counters.Counters.slowpath
  done;
  let reqs = r *. float_of_int trials in
  {
    metrics =
      [
        ("obs.flight_us_per_req", p50 flight /. r /. 1e3);
        ("obs.monitor_us_per_req", p50 monitor /. r /. 1e3);
        ("obs.ticks_per_req", float_of_int !ticks /. reqs);
        ("obs.records_per_req", float_of_int !records /. reqs);
        ("obs.dropped", float_of_int !dropped);
      ];
    kv_us_per_req = (p50 plain -. setup) /. r /. 1e3;
    rendezvous_per_req = float_of_int !rdv /. reqs;
  }
