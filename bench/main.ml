(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6) from this reproduction's mechanisms — the verification
   obligation suites for Tables 1-2 / Figures 2-3 and the calibrated
   cycle model plus the functional data paths for Table 3 / Figures 4-7.
   See EXPERIMENTS.md for the paper-vs-measured record.

   Usage: main.exe [table1|table2|table3|fig2|...|fig7|bechamel|all] *)

module Cost = Atmo_sim.Cost
module Pipeline = Atmo_sim.Pipeline
module Clock = Atmo_hw.Clock
module Runner = Atmo_verif.Runner
module Catalog = Atmo_verif.Catalog
module Effort = Atmo_verif.Effort
module Obligation = Atmo_verif.Obligation
module Incremental = Atmo_verif.Incremental
module Kernel = Atmo_core.Kernel
module Syscall = Atmo_spec.Syscall
module Message = Atmo_pm.Message
module Page_state = Atmo_pmem.Page_state
module Pte = Atmo_hw.Pte_bits
module Worlds = Atmo_workloads.Worlds

let cost = Cost.default
let line fmt = Format.printf (fmt ^^ "@.")
let section title = line "@.== %s ==@." title

(* Host time on bechamel's monotonic clock, in nanoseconds. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Host seconds for [reps] runs of [f], and the last run's result. *)
let time_reps ~reps f =
  let t0 = now_ns () in
  let last = ref (f ()) in
  for _ = 2 to reps do
    last := f ()
  done;
  (float_of_int (now_ns () - t0) /. 1e9, !last)

(* Machine-readable result files: every bench with an acceptance floor
   writes BENCH_<name>.json; [report] merges them into
   BENCH_summary.json and enforces the floors. *)
module J = Atmo_util.Minijson

let write_bench_json file obj =
  J.to_file file (J.Obj obj);
  line "  wrote %s" file

(* ------------------------------------------------------------------ *)
(* Table 1: proof effort across systems                                *)

let table1 () =
  section "Table 1: proof effort for existing verification projects";
  line "%-12s %-10s %-14s %10s" "Name" "Language" "Spec Lang." "Ratio";
  List.iter
    (fun (r : Effort.row) ->
      line "%-12s %-10s %-14s %9.1f:1" r.Effort.system r.Effort.language
        r.Effort.spec_language r.Effort.ratio)
    Effort.table1;
  match Effort.measure_repo ~root:"." with
  | Some s ->
    line "";
    line "this reproduction (measured): %d spec/check lines, %d exec lines, %d test lines"
      s.Effort.spec_lines s.Effort.exec_lines s.Effort.test_lines;
    line "check-to-code ratio: %.2f:1 (the paper's Atmosphere: 3.32:1)" s.Effort.ratio
  | None -> line "(repo sources not reachable; skipping measured ratio)"

(* ------------------------------------------------------------------ *)
(* Table 2: verification time                                          *)

let parallel_threads =
  (* the paper reports 1- and 8-thread verification; parallel discharge
     only makes sense when the host actually has cores to give *)
  min 8 (Domain.recommended_domain_count ())

let run_suite name obls =
  let r1 = Runner.run ~threads:1 obls in
  let par =
    if parallel_threads >= 2 then
      let r = Runner.run ~threads:parallel_threads obls in
      Printf.sprintf "%d threads %8.1f ms" parallel_threads (r.Runner.wall_s *. 1000.)
    else "(single-core host: parallel discharge skipped)"
  in
  let status = if Runner.all_ok r1 then "ok" else "FAIL" in
  line "%-22s %4d obligations   1 thread %8.1f ms   %s   %s" name
    (List.length obls) (r1.Runner.wall_s *. 1000.) par status;
  List.iter
    (fun (f : Obligation.result) ->
      line "    FAILED %s: %s" f.Obligation.name
        (Option.value ~default:"?" f.Obligation.detail))
    (Runner.failures r1);
  r1

let table2 () =
  section "Table 2: verification time (discharge of the obligation suites)";
  line "(paper, CloudLab c220g5, 1 thread / 8 threads:";
  line "   NrOS page table 1m52s / 51s      (5329 proof, 400 exec, 13.3)";
  line "   Atmo page table 33s / -          (2168 proof, 496 exec, 4.37)";
  line "   Mimalloc 8m12s / 1m40s           (13703 proof, 3178 exec, 4.3)";
  line "   VeriSMo 61m24s / 12m11s          (16101 proof, 7915 exec, 2.0)";
  line "   Atmosphere 3m29s / 1m07s         (20098 proof, 6048 exec, 3.32)";
  line " Mimalloc and VeriSMo are external artifacts: reported only.";
  line " This reproduction discharges executable obligations instead of SMT";
  line " queries, so absolute times differ; the flat-vs-recursive ordering is";
  line " the result under test.)";
  line "";
  let pt = Catalog.build_pt ~mappings:4096 in
  let nros = Catalog.pt_obligations_recursive pt in
  let flat = Catalog.pt_obligations_flat pt in
  let r_nros = run_suite "NrOS-style page table" nros in
  let r_flat = run_suite "Atmo page table (flat)" flat in
  (match Catalog.build_world ~scale:6 with
   | Error msg -> line "full suite failed to build: %s" msg
   | Ok (k, init) ->
     let suite = Catalog.suite_for ~scale:6 k in
     Incremental.arm ();
     Fun.protect ~finally:Incremental.disarm (fun () ->
         let r_full = Incremental.run ~threads:1 suite in
         line "%-22s %4d obligations   1 thread %8.1f ms   %s" "Atmosphere (full)"
           (List.length suite)
           (r_full.Runner.wall_s *. 1000.)
           (if Runner.all_ok r_full then "ok" else "FAIL");
         (* the incremental column: one yield, then re-check only what
            the transition dirtied (see `bench verif` for the gated run) *)
         ignore (Kernel.step k ~thread:init Syscall.Yield);
         let r_inc = Incremental.run ~threads:1 suite in
         line
           "%-22s %4d obligations   1 thread %8.1f ms   re-checked %d, reused %d cached"
           "Atmosphere (incremental)" (List.length suite)
           (r_inc.Runner.wall_s *. 1000.)
           r_inc.Runner.rechecked r_inc.Runner.reused));
  line "";
  (* compare the two obligations both formulations share *)
  let time_of r names =
    List.fold_left
      (fun acc (x : Obligation.result) ->
        if List.exists (fun n -> x.Obligation.name = n) names then
          acc +. x.Obligation.elapsed_s
        else acc)
      0. r.Runner.results
  in
  let flat_t = time_of r_flat [ "pt/refinement"; "pt/structure" ] in
  let nros_t = time_of r_nros [ "nros_pt/refinement"; "nros_pt/structure" ] in
  line "flat / recursive page-table check-time ratio: %.2fx faster flat"
    (nros_t /. Float.max 1e-9 flat_t);
  line "(paper: Atmosphere's page table verifies >3x faster than NrOS's on one thread)";
  (* the same ablation on the container tree: ghost-field (flat)
     invariants vs structural re-derivation *)
  (match Catalog.build_tree ~depth:40 ~fanout:4 with
   | Error msg -> line "tree world failed: %s" msg
   | Ok tree ->
     let r_tf = run_suite "container tree (flat)" (Catalog.pm_tree_obligations_flat tree) in
     let r_tr =
       run_suite "container tree (recursive)" (Catalog.pm_tree_obligations_recursive tree)
     in
     line "container-tree ablation: flat %.2f ms vs recursive %.2f ms"
       (Runner.total_check_time r_tf *. 1000.)
       (Runner.total_check_time r_tr *. 1000.);
     line "(exhaustive evaluation of the flat forall-c-forall-d quantifiers is not";
     line " necessarily cheaper than one structural derivation: the paper's flat";
     line " advantage is about SMT proof effort, which the page-table ablation above";
     line " mirrors; see EXPERIMENTS.md)")

(* ------------------------------------------------------------------ *)
(* Ablation: the big-lock design under SMP                             *)

let ablation () =
  section "Ablation: multiprocessor scaling under the big kernel lock (§3)";
  line "(the paper chooses a big lock to simplify verification; this measures";
  line " what that choice costs: kernel-heavy work saturates at the lock,";
  line " user-heavy work scales with CPUs)";
  line "";
  let boot_params =
    { Kernel.default_boot with Kernel.cpus = Atmo_util.Iset.of_range ~lo:0 ~hi:8 }
  in
  let run ~cpus ~think =
    match Kernel.boot boot_params with
    | Error _ -> None
    | Ok (k, init) ->
      let threads =
        init
        :: List.init (cpus - 1) (fun _ ->
               match Kernel.step k ~thread:init Syscall.New_thread with
               | Syscall.Rptr t -> t
               | _ -> init)
      in
      let programs =
        List.map
          (fun thread ->
            { Atmo_sim.Smp.thread; think_cycles = think; call_of = (fun _ -> Syscall.Yield) })
          threads
      in
      (match Atmo_sim.Smp.run k ~cost ~cpus ~programs ~iterations:200 with
       | Ok s -> Some s
       | Error _ -> None)
  in
  let show label think =
    line "-- %s (think %d cycles per kernel entry) --" label think;
    List.iter
      (fun cpus ->
        match run ~cpus ~think with
        | Some s ->
          line "  %d CPU%s %8.2f M syscalls/s   lock wait %5.1f%% of wall" cpus
            (if cpus = 1 then " " else "s")
            (Atmo_sim.Smp.throughput s /. 1e6)
            (100. *. float_of_int s.Atmo_sim.Smp.lock_wait_cycles
             /. float_of_int (max 1 (s.Atmo_sim.Smp.wall_cycles * cpus)))
        | None -> line "  %d CPUs: run failed" cpus)
      [ 1; 2; 4; 8 ]
  in
  show "kernel-heavy" 100;
  show "balanced" 2_000;
  show "user-heavy" 20_000

(* ------------------------------------------------------------------ *)
(* Table 3: IPC and mapping latency                                    *)

let table3 () =
  section "Table 3: latency of communication and typical system calls (cycles)";
  line "%-14s %12s %8s" "System call" "Atmosphere" "seL4";
  line "%-14s %12d %8d" "Call/reply" (Cost.atmo_call_reply cost)
    (Atmo_baselines.Sel4.call_reply_cycles cost);
  line "%-14s %12d %8d" "Map a page" cost.Cost.map_page
    (Atmo_baselines.Sel4.map_page_cycles cost);
  line "(paper: call/reply 1058 vs 1026; map 1984 vs 2650)";
  (* sanity: drive the functional kernel through the same paths, and
     record per-pair host latency in an Atmo_obs histogram so the table
     reports the distribution, not just the mean *)
  (match Kernel.boot Kernel.default_boot with
   | Error _ -> ()
   | Ok (k, init) ->
     let hist = Atmo_obs.Metrics.Histogram.make "bench/mmap_pair_ns" in
     let t0 = now_ns () in
     let n = 20000 in
     (match Kernel.step k ~thread:init (Syscall.New_endpoint { slot = 0 }) with
      | Syscall.Rptr _ ->
        for _ = 1 to n do
          let p0 = now_ns () in
          ignore
            (Kernel.step k ~thread:init
               (Syscall.Mmap
                  { va = 0x4000_0000; count = 1; size = Page_state.S4k; perm = Pte.perm_rw }));
          ignore
            (Kernel.step k ~thread:init
               (Syscall.Munmap { va = 0x4000_0000; count = 1; size = Page_state.S4k }));
          Atmo_obs.Metrics.Histogram.observe hist (now_ns () - p0)
        done;
        line "(functional model: %d mmap+munmap pairs in %.1f ms)" n
          (float_of_int (now_ns () - t0) /. 1e6);
        line "host latency per pair (ns, log2 buckets): p50 %d  p90 %d  p99 %d  max %d"
          (Atmo_obs.Metrics.Histogram.p50 hist)
          (Atmo_obs.Metrics.Histogram.p90 hist)
          (Atmo_obs.Metrics.Histogram.p99 hist)
          (Atmo_obs.Metrics.Histogram.max_value hist)
      | _ -> ()))

(* ------------------------------------------------------------------ *)
(* Figure 2: per-function verification time                            *)

let fig2 () =
  section "Figure 2: verification time for each function (per-obligation discharge)";
  match Catalog.full_suite ~scale:6 with
  | Error msg -> line "suite failed to build: %s" msg
  | Ok suite ->
    let report = Runner.run ~threads:1 suite in
    let sorted =
      List.sort
        (fun (a : Obligation.result) b -> compare b.Obligation.elapsed_s a.Obligation.elapsed_s)
        report.Runner.results
    in
    let worst = match sorted with [] -> 1e-9 | r :: _ -> r.Obligation.elapsed_s in
    List.iter
      (fun (r : Obligation.result) ->
        let bar = int_of_float (40. *. r.Obligation.elapsed_s /. worst) in
        line "%-32s %9.3f ms %s%s" r.Obligation.name (r.Obligation.elapsed_s *. 1000.)
          (String.make (max bar 1) '#')
          (if r.Obligation.ok then "" else "  FAIL"))
      sorted;
    line "";
    line "total: %.1f ms over %d obligations (paper: all functions < 20 s, most < 4 s)"
      (Runner.total_check_time report *. 1000.)
      (List.length sorted);
    (* scaling: discharge time as the kernel state grows — the flat
       formulations keep this near-linear *)
    line "";
    line "state-invariant discharge time vs world scale:";
    List.iter
      (fun scale ->
        match Catalog.build_world ~scale with
        | Error msg -> line "  scale %2d: %s" scale msg
        | Ok (k, _) ->
          let r = Runner.run ~threads:1 (Catalog.kernel_obligations k) in
          line "  scale %2d (%3d containers): %7.2f ms" scale
            (Atmo_pm.Perm_map.cardinal k.Kernel.pm.Atmo_pm.Proc_mgr.cntr_perms)
            (Runner.total_check_time r *. 1000.))
      [ 2; 4; 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* Figure 3: development history                                       *)

let fig3 () =
  section "Figure 3: commit history (reconstruction of the three versions)";
  line "%-6s %-8s %10s %10s" "month" "version" "exec LoC" "proof LoC";
  List.iter
    (fun (p : Effort.month_point) ->
      line "%-6d v%-7d %10d %10d  %s" p.Effort.month p.Effort.version p.Effort.exec_loc
        p.Effort.proof_loc
        (String.make (p.Effort.proof_loc / 600) '*'))
    Effort.fig3_series;
  line "(clean-slate rewrites at months 2 and 10; v3 starts from ~50%% of v2's code)"

(* ------------------------------------------------------------------ *)
(* Figure 4: ixgbe driver performance                                  *)

let packet_configs =
  [ Pipeline.Atmo_driver; Pipeline.Atmo_c2; Pipeline.Atmo_c1 1; Pipeline.Atmo_c1 32 ]

let fig4 () =
  section "Figure 4: ixgbe driver performance (64B UDP, Mpps per core)";
  let app = 56 (* echo-style benchmark app per packet *) in
  let drv = cost.Cost.driver_per_packet in
  let cap = cost.Cost.nic_line_rate_pps in
  line "%-14s %8.2f Mpps" "linux"
    (Atmo_baselines.Linux_model.packet_pps cost ~app_cycles:app /. 1e6);
  line "%-14s %8.2f Mpps" "dpdk"
    (Atmo_baselines.Dpdk_model.packet_pps cost ~app_cycles:app /. 1e6);
  List.iter
    (fun config ->
      line "%-14s %8.2f Mpps" (Pipeline.name config)
        (Pipeline.throughput ~cost ~app_cycles:app ~driver_cycles:drv ~device_cap:cap
           config
         /. 1e6))
    packet_configs;
  line "(paper: linux 0.89; dpdk/atmo-driver/atmo-c2 at 14.2 line rate;";
  line " atmo-c1-b1 2.3; atmo-c1-b32 11.1)";
  (* exercise the functional NIC path: frames through rings and IOMMU *)
  let frames = 2000 in
  let clock = Clock.create () in
  let mem, iommu, span = Worlds.dma_arena ~page_count:1024 ~device:0 in
  let nic = Atmo_drivers.Ixgbe.create mem iommu ~device:0 ~clock ~cost in
  let ring_iova = span 4096 in
  let buffers = Array.init 64 (fun _ -> (span 2048, 2048)) in
  match Atmo_drivers.Ixgbe.setup_rx nic ~ring_iova ~buffers with
  | Error e -> line "ixgbe setup failed: %s" (Atmo_devmodel.Fault.error_to_string e)
  | Ok () ->
    let flow = Atmo_net.Packet.flow_of_ints ~src:1 ~dst:2 ~sport:1000 ~dport:53 in
    let received = ref 0 in
    for _ = 1 to frames do
      ignore
        (Atmo_drivers.Ixgbe.wire_deliver nic
           (Atmo_net.Packet.build flow ~payload:(Bytes.make 22 'x')));
      received := !received + List.length (Atmo_drivers.Ixgbe.rx_burst nic ~max:32)
    done;
    line "(functional path: %d/%d frames through descriptor rings + IOMMU, %d drops)"
      !received frames
      (Atmo_drivers.Ixgbe.rx_drops nic)

(* ------------------------------------------------------------------ *)
(* Figure 5: NVMe driver performance                                   *)

let fig5 () =
  section "Figure 5: NVMe driver performance (4KiB sequential, KIOPS per core)";
  let app = 300 (* submission + completion handling per IO *) in
  let drv = cost.Cost.spdk_per_io (* polled NVMe driver per IO *) in
  let show op cap penalty =
    line "-- sequential %s --" op;
    List.iter
      (fun batch ->
        line "  batch %-3d  linux %8.1f   spdk %8.1f   %s" batch
          ((if op = "read" then Atmo_baselines.Linux_model.nvme_read_iops cost ~batch
            else Atmo_baselines.Linux_model.nvme_write_iops cost ~batch)
           /. 1e3)
          ((if op = "read" then Atmo_baselines.Dpdk_model.nvme_read_iops cost ~batch
            else Atmo_baselines.Dpdk_model.nvme_write_iops cost ~batch)
           /. 1e3)
          (String.concat "   "
             (List.map
                (fun config ->
                  let capped = cap /. penalty in
                  Printf.sprintf "%s %8.1f" (Pipeline.name config)
                    (Pipeline.throughput ~cost ~app_cycles:app ~driver_cycles:drv
                       ~device_cap:capped config
                     /. 1e3))
                [ Pipeline.Atmo_driver; Pipeline.Atmo_c2; Pipeline.Atmo_c1 batch ])))
      [ 1; 32 ]
  in
  show "read" cost.Cost.nvme_read_cap_iops 1.0;
  show "write" cost.Cost.nvme_write_cap_iops (1. +. cost.Cost.nvme_atmo_write_penalty);
  line "(paper: reads linux 13K/141K, atmo=spdk at device max;";
  line " writes linux within 3%% of 256K, atmo ~232K: 10%% overhead)";
  (* functional device: submit/poll through the queue-pair model *)
  let clock = Clock.create () in
  let dev = Atmo_drivers.Nvme.create ~clock ~cost ~capacity_blocks:4096 in
  let block = Bytes.make Atmo_drivers.Nvme.block_bytes 'd' in
  let writes = 256 in
  for lba = 0 to writes - 1 do
    ignore (Atmo_drivers.Nvme.submit_write dev ~lba ~data:block)
  done;
  let completed = List.length (Atmo_drivers.Nvme.wait_all dev) in
  line "(functional path: %d/%d writes completed in %.2f virtual ms)" completed writes
    (Clock.seconds clock *. 1e3)

(* ------------------------------------------------------------------ *)
(* Figure 6: Maglev and httpd                                          *)

let maglev_work = 150 (* per-packet lookup + header rewrite *)

let fig6 () =
  section "Figure 6: Maglev load balancer (Mpps) and httpd (Krps)";
  let drv = cost.Cost.driver_per_packet in
  let cap = cost.Cost.nic_line_rate_pps in
  line "-- maglev --";
  line "%-14s %8.2f Mpps" "linux"
    (Atmo_baselines.Linux_model.packet_pps cost ~app_cycles:maglev_work /. 1e6);
  line "%-14s %8.2f Mpps" "dpdk"
    (Atmo_baselines.Dpdk_model.packet_pps cost ~app_cycles:maglev_work /. 1e6);
  List.iter
    (fun config ->
      line "%-14s %8.2f Mpps" (Pipeline.name config)
        (Pipeline.throughput ~cost ~app_cycles:maglev_work ~driver_cycles:drv
           ~device_cap:cap config
         /. 1e6))
    [ Pipeline.Atmo_c2; Pipeline.Atmo_c1 1; Pipeline.Atmo_c1 32 ];
  line "(paper: linux 1.0; dpdk 9.72; atmo-c2 13.3; atmo-c1-b1 1.66; atmo-c1-b32 8.8)";
  (* functional maglev: steer real frames, report balance *)
  let backends = List.init 8 (fun i -> Printf.sprintf "backend-%d" i) in
  let lb = Atmo_net.Maglev.create ~backends ~table_size:65537 in
  let counts = Hashtbl.create 8 in
  for i = 0 to 9999 do
    let flow =
      Atmo_net.Packet.flow_of_ints ~src:(0x0a000000 + i) ~dst:0x0b000001
        ~sport:(1024 + (i mod 50000)) ~dport:80
    in
    let frame = Atmo_net.Packet.build flow ~payload:Bytes.empty in
    match Atmo_net.Maglev.lookup_packet lb frame with
    | Some b -> Hashtbl.replace counts b (1 + Option.value ~default:0 (Hashtbl.find_opt counts b))
    | None -> ()
  done;
  let mn = Hashtbl.fold (fun _ v acc -> min v acc) counts max_int in
  let mx = Hashtbl.fold (fun _ v acc -> max v acc) counts 0 in
  line "(functional path: 10000 flows over %d backends, min/max per backend %d/%d)"
    (List.length backends) mn mx;
  line "";
  line "-- httpd --";
  let request_work = 20000 in
  line "%-14s %8.1f Krps" "nginx(linux)"
    (Atmo_baselines.Nginx_model.requests_per_second cost ~request_work /. 1e3);
  line "%-14s %8.1f Krps" "atmo-httpd"
    (cost.Cost.frequency_hz
     /. float_of_int (request_work + cost.Cost.atmo_httpd_overhead)
     /. 1e3);
  line "(paper: nginx 70.9 Krps; httpd 99.4 Krps)";
  (* functional httpd: serve real requests round-robin over connections *)
  let server =
    Atmo_net.Httpd.create ~routes:[ ("/", "<html>hello</html>"); ("/about", "<html>atmo</html>") ]
  in
  let conns = List.init 20 (fun _ -> Atmo_net.Httpd.open_conn server) in
  List.iteri
    (fun i c ->
      for _ = 0 to 4 do
        Atmo_net.Httpd.submit c
          (Printf.sprintf "GET %s HTTP/1.1\r\nHost: x\r\n\r\n"
             (if i mod 2 = 0 then "/" else "/about"))
      done)
    conns;
  let served = ref 0 in
  for _round = 0 to 5 do
    served := !served + Atmo_net.Httpd.poll_round server conns
  done;
  line "(functional path: %d requests served over %d connections)" !served
    (List.length conns)

(* ------------------------------------------------------------------ *)
(* Figure 7: key-value store                                           *)

let fig7 () =
  section "Figure 7: key-value store (Mops, GET-heavy)";
  let kv_cycles ~table_entries ~kv_bytes =
    (* base lookup + per-byte handling + locality penalty for the table
       that exceeds the last-level cache *)
    180 + (2 * 2 * kv_bytes) + (if table_entries > 4_000_000 then 60 else 0)
  in
  let drv = cost.Cost.driver_per_packet in
  let cap = cost.Cost.nic_line_rate_pps in
  List.iter
    (fun table_entries ->
      line "-- table with %dM entries --" (table_entries / 1_000_000);
      List.iter
        (fun kv_bytes ->
          let app = kv_cycles ~table_entries ~kv_bytes in
          line "  <%2dB,%2dB>  linux-dpdk %6.2f   atmo-c2 %6.2f   atmo-c1-b32 %6.2f"
            kv_bytes kv_bytes
            (Atmo_baselines.Dpdk_model.packet_pps cost ~app_cycles:app /. 1e6)
            (Pipeline.throughput ~cost ~app_cycles:app ~driver_cycles:drv
               ~device_cap:cap Pipeline.Atmo_c2
             /. 1e6)
            (Pipeline.throughput ~cost ~app_cycles:app ~driver_cycles:drv
               ~device_cap:cap (Pipeline.Atmo_c1 32)
             /. 1e6))
        [ 8; 16; 32 ])
    [ 1_000_000; 8_000_000 ];
  line "(shape: atmo-c2 >= dpdk > atmo-c1-b32; larger kv sizes and the 8M table cost";
  line " throughput via per-byte work and cache locality, as in the paper)";
  (* functional store: zipfian GET-heavy traffic against the real table *)
  let store = Atmo_net.Kv_store.create ~entries:100_003 in
  let w = Atmo_net.Workload.create ~seed:11 ~keys:50_000 (Atmo_net.Workload.Zipfian 0.99) in
  let hits = ref 0 and sets = ref 0 and gets = ref 0 in
  List.iter
    (fun op ->
      match op with
      | Atmo_net.Workload.Set k ->
        incr sets;
        ignore
          (Atmo_net.Kv_store.set store
             ~key:(Atmo_net.Workload.key_bytes k ~size:16)
             ~value:(Bytes.make 16 'v'))
      | Atmo_net.Workload.Get k ->
        incr gets;
        if Atmo_net.Kv_store.get store ~key:(Atmo_net.Workload.key_bytes k ~size:16) <> None
        then incr hits)
    (Atmo_net.Workload.ops w ~read_ratio:0.9 ~count:100_000);
  let max_probe, mean_probe = Atmo_net.Kv_store.probe_stats store in
  line
    "(functional path: 100000 zipfian(0.99) ops, %d sets %d gets %d hits; probes max %d mean %.2f at load %.2f)"
    !sets !gets !hits max_probe mean_probe
    (float_of_int (Atmo_net.Kv_store.length store)
     /. float_of_int (Atmo_net.Kv_store.capacity store))

(* ------------------------------------------------------------------ *)
(* Observability overhead: the flight recorder on vs off               *)

(* Always-on tracing at production cost, measured on the kv-store demo:
   with the sink disabled every tracepoint is one mask load; with the
   flight recorder installed the zero-alloc in-arena emit path must stay
   within 2x of the untraced run (overhead_pct <= 100, gated by
   [report]).  The ring is sized from a calibration run so not a single
   event is dropped (events_dropped = 0, also gated), and the per-kind
   emit counters must account for every record exactly.  Tracing costs
   host time only: the kv virtual clock and per-request latencies must
   be bit-identical on vs off. *)
(* The kv pair [obs] and [span] time: [reps] runs with the sink
   disabled, then [reps] in a flight session of [slots] slots per CPU;
   [inspect] reads the sink before the session closes. *)
let kv_traced_pair ~requests ~reps ~slots inspect =
  let module Kv = Atmo_workloads.Kv_demo in
  let off_s, off = time_reps ~reps (fun () -> Kv.run ~requests ()) in
  Atmo_obs.Session.with_flight ~slots (fun _ ->
      let on_s, on = time_reps ~reps (fun () -> Kv.run ~requests ()) in
      (off_s, off, on_s, on, inspect ()))

let obs () =
  section "Observability: tracing overhead on vs off (host time; model cycles)";
  let module Kv = Atmo_workloads.Kv_demo in
  let requests = 200 in
  let reps = 10 in
  (* calibration: one traced run into a throwaway ring; the exact
     per-kind emit counters give the full-run event rate, from which the
     measured ring is sized so all [reps] runs fit with zero drops even
     if every event lands on one CPU *)
  let per_rep =
    Atmo_obs.Session.with_flight ~slots:65536 (fun _ ->
        ignore (Kv.run ~requests ());
        Atmo_obs.Sink.emitted_total ())
  in
  let slots = ref 1024 in
  while !slots < per_rep * reps do
    slots := !slots * 2
  done;
  line "calibration: %d events per run -> ring of %d slots/cpu for %d runs" per_rep
    !slots reps;
  let off_s, off, on_s, on, (records, dropped, emitted_total, pairs) =
    kv_traced_pair ~requests ~reps ~slots:!slots (fun () ->
        (* each packed span pair decodes into a begin and an end record,
           so the lossless-accounting identity is records = emitted + pairs *)
        ( Atmo_obs.Sink.records (),
          Atmo_obs.Sink.dropped (),
          Atmo_obs.Sink.emitted_total (),
          Atmo_obs.Sink.emitted_count ~tag:Atmo_obs.Event.tag_span_pair ))
  in
  let live = List.length records in
  let accounting = live = emitted_total + pairs && dropped = 0 in
  line "disabled sink: %8.2f ms for %d runs" (off_s *. 1000.) reps;
  line "flight sink:   %8.2f ms for %d runs  (%d events live, %d dropped)"
    (on_s *. 1000.) reps live dropped;
  line "host-time overhead when enabled: %.1f%%"
    (100. *. (on_s -. off_s) /. Float.max 1e-9 off_s);
  line "lossless accounting: %d records = %d emitted + %d span pairs, 0 dropped: %b"
    live emitted_total pairs accounting;
  let identical =
    off.Kv.end_cycles = on.Kv.end_cycles && off.Kv.latencies = on.Kv.latencies
  in
  line "cycle model: end %d vs %d, latencies identical: %b  -> identical: %b"
    off.Kv.end_cycles on.Kv.end_cycles
    (off.Kv.latencies = on.Kv.latencies)
    identical;
  line "(tracing must never move simulated time: 'identical: true' is the contract)";
  write_bench_json "BENCH_obs.json"
    [
      ("bench", J.Str "obs_overhead");
      ("requests", J.Num (float_of_int requests));
      ("runs", J.Num (float_of_int reps));
      ("ring_slots", J.Num (float_of_int !slots));
      ("disabled_ms", J.Num (off_s *. 1000.));
      ("flight_ms", J.Num (on_s *. 1000.));
      ("overhead_pct", J.Num (100. *. (on_s -. off_s) /. Float.max 1e-9 off_s));
      ("events_live", J.Num (float_of_int live));
      ("events_dropped", J.Num (float_of_int dropped));
      ("accounting_exact", J.Bool accounting);
      ("cycle_identity", J.Bool identical);
    ]

(* ------------------------------------------------------------------ *)
(* Sanitizer overhead: atmo-san armed vs off                           *)

(* Same contract as the flight recorder: when disarmed the hooks are a
   single flag load, and when armed the shadow checks cost host time
   only — the simulated cycle model must not move.  A clean workload
   must also report zero violations. *)
let san () =
  section "Sanitizer: atmo-san overhead on vs off (host time; model cycles)";
  let workload () =
    match Kernel.boot Kernel.default_boot with
    | Error _ -> None
    | Ok (k, init) ->
      let { Worlds.programs; _ } = Worlds.ping_pong k ~init in
      (match Atmo_sim.Smp.run k ~cost ~cpus:2 ~programs ~iterations:500 with
       | Ok s -> Some (s.Atmo_sim.Smp.wall_cycles, s.Atmo_sim.Smp.lock_wait_cycles)
       | Error _ -> None)
  in
  let reps = 30 in
  Atmo_san.Runtime.disarm ();
  let off_s, off_cycles = time_reps ~reps workload in
  Atmo_san.Runtime.arm ();
  let on_s, on_cycles = time_reps ~reps workload in
  let checked = Atmo_san.Memsan.checked () in
  let violations = Atmo_san.Report.count () in
  Atmo_san.Runtime.disarm ();
  line "sanitizer off: %8.2f ms for %d runs" (off_s *. 1000.) reps;
  line "sanitizer on:  %8.2f ms for %d runs  (%d accesses checked, %d violations)"
    (on_s *. 1000.) reps checked violations;
  line "host-time overhead when armed: %.1f%%"
    (100. *. (on_s -. off_s) /. Float.max 1e-9 off_s);
  let identical =
    match (off_cycles, on_cycles) with
    | Some (w0, l0), Some (w1, l1) ->
      line "cycle model (wall, lock-wait): off (%d, %d)  on (%d, %d)  identical: %b" w0 l0
        w1 l1
        (w0 = w1 && l0 = l1);
      w0 = w1 && l0 = l1
    | _ ->
      line "cycle model: workload failed";
      false
  in
  line "(checking must never move simulated time, and a clean run must stay clean)";
  write_bench_json "BENCH_san.json"
    [
      ("bench", J.Str "san_overhead");
      ("runs", J.Num (float_of_int reps));
      ("disarmed_ms", J.Num (off_s *. 1000.));
      ("armed_ms", J.Num (on_s *. 1000.));
      ("overhead_pct", J.Num (100. *. (on_s -. off_s) /. Float.max 1e-9 off_s));
      ("accesses_checked", J.Num (float_of_int checked));
      ("violations", J.Num (float_of_int violations));
      ("cycle_identity", J.Bool identical);
    ]

(* ------------------------------------------------------------------ *)
(* Software TLB: walk-vs-hit cost, end-to-end on/off, bit-identity     *)

let tlb () =
  section "Software TLB: walk cost vs hit cost, on/off end-to-end, bit-identity";
  let module Tlb = Atmo_hw.Tlb in
  let module Mmu = Atmo_hw.Mmu in
  let module Page_table = Atmo_pt.Page_table in
  (* -- translation cost: page-table loads per warm resolve ----------- *)
  let pages = 32 and passes = 20 in
  let with_pt f =
    let mem = Atmo_hw.Phys_mem.create ~page_count:4096 in
    let alloc = Atmo_pmem.Page_alloc.create mem ~reserved_frames:0 in
    match Page_table.create mem alloc with
    | Error _ -> 0
    | Ok pt ->
      for i = 0 to pages - 1 do
        match Atmo_pmem.Page_alloc.alloc_4k alloc ~purpose:Atmo_pmem.Page_alloc.User with
        | Some frame ->
          ignore
            (Page_table.map_4k pt ~vaddr:(0x4000_0000 + (i * 4096)) ~frame
               ~perm:Pte.perm_rw)
        | None -> ()
      done;
      f pt
  in
  let loads_of_loop pt =
    let before = Mmu.walk_steps () in
    for _pass = 1 to passes do
      for i = 0 to pages - 1 do
        ignore (Page_table.resolve pt ~vaddr:(0x4000_0000 + (i * 4096)))
      done
    done;
    Mmu.walk_steps () - before
  in
  Tlb.set_enabled false;
  let loads_off = with_pt loads_of_loop in
  Tlb.set_enabled true;
  let loads_on = with_pt loads_of_loop in
  let n = pages * passes in
  line "warm resolve loop (%d translations):" n;
  line "  TLB off: %6d page-table loads  (%.2f per translation)" loads_off
    (float_of_int loads_off /. float_of_int n);
  line "  TLB on:  %6d page-table loads  (%.2f per translation)" loads_on
    (float_of_int loads_on /. float_of_int n);
  line "  reduction: %.1fx fewer loads  (acceptance floor: 5x)"
    (float_of_int loads_off /. Float.max 1. (float_of_int loads_on));
  let s = Tlb.cpu_stats () in
  line "  cpu tlb counters: %d hits, %d misses, %d evictions, %d invlpgs, %d flushes"
    s.Tlb.hits s.Tlb.misses s.Tlb.evictions s.Tlb.invlpgs s.Tlb.flushes;
  (* -- IPC round-trip with the TLB on vs off ------------------------- *)
  let workload () =
    match Kernel.boot Kernel.default_boot with
    | Error _ -> None
    | Ok (k, init) ->
      let t2 = (Worlds.ping_pong k ~init).Worlds.receiver in
      (* a user arena the loop translates every round, as a data-carrying
         IPC path would *)
      ignore
        (Kernel.step k ~thread:init
           (Syscall.Mmap { va = 0x4000_0000; count = 8; size = Page_state.S4k;
                           perm = Pte.perm_rw }));
      let programs =
        [
          { Atmo_sim.Smp.thread = t2; think_cycles = 600;
            call_of = (fun _ -> Syscall.Recv { slot = 0 }) };
          { Atmo_sim.Smp.thread = init; think_cycles = 800;
            call_of =
              (fun i ->
                for p = 0 to 7 do
                  ignore
                    (Kernel.resolve_user k ~thread:init
                       ~vaddr:(0x4000_0000 + (p * 4096)))
                done;
                Syscall.Send { slot = 0; msg = Message.scalars_only [ i ] }) };
        ]
      in
      (match Atmo_sim.Smp.run k ~cost ~cpus:2 ~programs ~iterations:500 with
       | Ok st -> Some (st.Atmo_sim.Smp.wall_cycles, st.Atmo_sim.Smp.lock_wait_cycles)
       | Error _ -> None)
  in
  let reps = 30 in
  Tlb.set_enabled false;
  let w0 = Mmu.walk_steps () in
  let off_s, off_cycles = time_reps ~reps workload in
  let off_loads = Mmu.walk_steps () - w0 in
  Tlb.set_enabled true;
  let w1 = Mmu.walk_steps () in
  let on_s, on_cycles = time_reps ~reps workload in
  let on_loads = Mmu.walk_steps () - w1 in
  line "IPC round-trip with per-round user translations (%d runs):" reps;
  line "  TLB off: %8.2f ms  %9d page-table loads" (off_s *. 1000.) off_loads;
  line "  TLB on:  %8.2f ms  %9d page-table loads  (%.1fx fewer)" (on_s *. 1000.)
    on_loads
    (float_of_int off_loads /. Float.max 1. (float_of_int on_loads));
  let ipc_identical =
    match (off_cycles, on_cycles) with
    | Some (wa, la), Some (wb, lb) ->
      line "  cycle model (wall, lock-wait): off (%d, %d)  on (%d, %d)  identical: %b" wa
        la wb lb
        (wa = wb && la = lb);
      wa = wb && la = lb
    | _ ->
      line "  cycle model: workload failed";
      false
  in
  (* -- ixgbe forwarding with the IOTLB on vs off --------------------- *)
  let forward () =
    let frames = 2000 in
    let clock = Clock.create () in
    let mem, iommu, span = Worlds.dma_arena ~page_count:1024 ~device:0 in
    let nic = Atmo_drivers.Ixgbe.create mem iommu ~device:0 ~clock ~cost in
    let ring_iova = span 4096 in
    let buffers = Array.init 64 (fun _ -> (span 2048, 2048)) in
    match Atmo_drivers.Ixgbe.setup_rx nic ~ring_iova ~buffers with
    | Error _ -> None
    | Ok () ->
      let flow = Atmo_net.Packet.flow_of_ints ~src:1 ~dst:2 ~sport:1000 ~dport:53 in
      let received = ref 0 in
      let t0 = now_ns () in
      for _ = 1 to frames do
        ignore
          (Atmo_drivers.Ixgbe.wire_deliver nic
             (Atmo_net.Packet.build flow ~payload:(Bytes.make 22 'x')));
        received := !received + List.length (Atmo_drivers.Ixgbe.rx_burst nic ~max:32)
      done;
      Some (!received, frames, float_of_int (now_ns () - t0) /. 1e9)
  in
  Tlb.set_enabled false;
  let fwd_off = forward () in
  Tlb.set_enabled true;
  let fwd_on = forward () in
  let fwd_identical =
    match (fwd_off, fwd_on) with
    | Some (r0, f0, t0), Some (r1, f1, t1) ->
      line "ixgbe forwarding through the IOMMU:";
      line "  IOTLB off: %d/%d frames in %6.2f ms" r0 f0 (t0 *. 1000.);
      line "  IOTLB on:  %d/%d frames in %6.2f ms  (delivery identical: %b)" r1 f1
        (t1 *. 1000.) (r0 = r1);
      r0 = r1
    | _ ->
      line "ixgbe forwarding failed";
      false
  in
  (* -- bit-identity: randomized replay, hot vs cold ------------------ *)
  let rng = Random.State.make [| 0x71B |] in
  let identical =
    with_pt (fun pt ->
        let ok = ref true in
        for _step = 1 to 2000 do
          let vaddr =
            0x4000_0000 + (Random.State.int rng (pages * 2) * 4096)
            + Random.State.int rng 4096
          in
          if Random.State.int rng 10 = 0 then
            ignore (Page_table.unmap pt ~vaddr:(vaddr land lnot 4095));
          let hot = Page_table.resolve pt ~vaddr in
          let cold = Page_table.resolve_cold pt ~vaddr in
          let same =
            match (hot, cold) with
            | None, None -> true
            | Some (a : Mmu.translation), Some b ->
              a.Mmu.paddr = b.Mmu.paddr && a.Mmu.frame = b.Mmu.frame
              && a.Mmu.size = b.Mmu.size
            | _ -> false
          in
          if not same then ok := false
        done;
        if !ok then 1 else 0)
  in
  line "bit-identity (randomized map/unmap replay, hot vs cold): %s"
    (if identical = 1 then "identical" else "DIVERGED");
  write_bench_json "BENCH_tlb.json"
    [
      ("bench", J.Str "tlb");
      ("warm_loads_off", J.Num (float_of_int loads_off));
      ("warm_loads_on", J.Num (float_of_int loads_on));
      ( "load_reduction",
        J.Num (float_of_int loads_off /. Float.max 1. (float_of_int loads_on)) );
      ("ipc_cycle_identity", J.Bool ipc_identical);
      ("ixgbe_delivery_identity", J.Bool fwd_identical);
      ("replay_identity", J.Bool (identical = 1));
    ]

(* ------------------------------------------------------------------ *)
(* IPC fastpath: ping-pong with the fastpath on vs off                 *)

(* One round = the receiver parks in Recv, the sender rendezvous-sends
   and the CPU switches to the receiver.  The park is identical work in
   both configurations; the rendezvous send is the operation the
   fastpath rebuilds, so the bench reports it separately: total map
   operations (permission-map borrows/updates, each one host-level
   Imap traffic), the same past the 2-operation capability decode both
   paths share (thread borrow + endpoint borrow), allocation, and the
   per-round latency distribution.  The oracle test proves the two
   configurations leave bit-identical kernels, so every delta here is
   pure mechanism cost.  Emits BENCH_ipc.json for machines. *)
let ipc () =
  section "IPC ping-pong: fastpath on vs off (host time; map ops; allocation)";
  let rounds = 20000 in
  let decode_ops = 2 (* thread borrow + endpoint borrow, both paths *) in
  let borrow_total () =
    List.fold_left
      (fun acc (name, c) ->
        if String.length name >= 11 && String.sub name 0 11 = "pm/borrows/" then
          acc + Atmo_obs.Metrics.Counter.value c
        else acc)
      0
      (Atmo_obs.Metrics.all_counters ())
  in
  let counter name = Atmo_obs.Metrics.Counter.value (Atmo_obs.Metrics.counter name) in
  let run ~fastpath =
    Kernel.set_fastpath fastpath;
    match Kernel.boot Kernel.default_boot with
    | Error _ -> None
    | Ok (k, init) ->
      let t2 = (Worlds.ping_pong k ~init).Worlds.receiver in
      let hist =
        Atmo_obs.Metrics.Histogram.make
          (if fastpath then "bench/ipc_round_fast_ns" else "bench/ipc_round_slow_ns")
      in
      let fast0 = counter "ipc/fastpath" and slow0 = counter "ipc/slowpath" in
      (* pass 1: latency only, nothing but the two syscalls in the
         timed region *)
      let t0 = now_ns () in
      for i = 0 to rounds - 1 do
        let p0 = now_ns () in
        ignore (Kernel.step k ~thread:t2 (Syscall.Recv { slot = 0 }));
        ignore
          (Kernel.step k ~thread:init
             (Syscall.Send { slot = 0; msg = Message.scalars_only [ i ] }));
        Atmo_obs.Metrics.Histogram.observe hist (now_ns () - p0)
      done;
      let wall_ms = float_of_int (now_ns () - t0) /. 1e6 in
      let fast_hits = counter "ipc/fastpath" - fast0 in
      let slow_hits = counter "ipc/slowpath" - slow0 in
      (* pass 2: map-operation and allocation accounting *)
      let round_borrows0 = borrow_total () in
      let send_borrows = ref 0 and send_alloc = ref 0. in
      for i = 0 to rounds - 1 do
        ignore (Kernel.step k ~thread:t2 (Syscall.Recv { slot = 0 }));
        let b0 = borrow_total () in
        let a0 = Gc.minor_words () in
        ignore
          (Kernel.step k ~thread:init
             (Syscall.Send { slot = 0; msg = Message.scalars_only [ i ] }));
        send_alloc := !send_alloc +. (Gc.minor_words () -. a0);
        send_borrows := !send_borrows + (borrow_total () - b0)
      done;
      Some
        ( hist,
          wall_ms,
          fast_hits,
          slow_hits,
          borrow_total () - round_borrows0,
          !send_borrows,
          !send_alloc )
  in
  let off = run ~fastpath:false in
  let on = run ~fastpath:true in
  Kernel.set_fastpath true;
  match (on, off) with
  | Some (h1, w1, f1, s1, rb1, sb1, sa1), Some (h0, w0, f0, s0, rb0, sb0, sa0) ->
    let module H = Atmo_obs.Metrics.Histogram in
    let per r = float_of_int r /. float_of_int rounds in
    let show label h w f s rb sb sa =
      line "  %-13s %8.2f ms  p50 %5d ns  p90 %5d ns  p99 %6d ns" label w (H.p50 h)
        (H.p90 h) (H.p99 h);
      line "  %-13s fastpath %d  slowpath %d  map ops/round %.1f" "" f s (per rb);
      line "  %-13s rendezvous send: map ops %.1f  minor words %.1f" "" (per sb)
        (sa /. float_of_int rounds)
    in
    line "%d ping-pong rounds per configuration (round = park Recv + rendezvous Send):"
      rounds;
    show "fastpath off:" h0 w0 f0 s0 rb0 sb0 sa0;
    show "fastpath on: " h1 w1 f1 s1 rb1 sb1 sa1;
    let m0 = per sb0 -. float_of_int decode_ops in
    let m1 = per sb1 -. float_of_int decode_ops in
    let ratio_m = m0 /. Float.max 1e-9 m1 in
    let ratio_s = per sb0 /. Float.max 1e-9 (per sb1) in
    let ratio_a = sa0 /. Float.max 1. sa1 in
    line "  rendezvous machinery past the %d-op capability decode: %.1f vs %.1f map ops"
      decode_ops m0 m1;
    line "  -> %.2fx fewer map operations in the rendezvous machinery (floor: 2x)"
      ratio_m;
    line "  -> %.2fx fewer map operations, %.2fx fewer minor words per rendezvous send"
      ratio_s ratio_a;
    let num x = J.Num x and int x = J.Num (float_of_int x) in
    let config h w f s rb sb sa =
      J.Obj
        [
          ("wall_ms", num w);
          ("p50_ns", int (H.p50 h));
          ("p90_ns", int (H.p90 h));
          ("p99_ns", int (H.p99 h));
          ("fastpath_hits", int f);
          ("slowpath_hits", int s);
          ("round_map_ops", num (per rb));
          ("send_map_ops", num (per sb));
          ("send_minor_words", num (sa /. float_of_int rounds));
        ]
    in
    write_bench_json "BENCH_ipc.json"
      [
        ("bench", J.Str "ipc_pingpong");
        ("rounds", int rounds);
        ("decode_map_ops", int decode_ops);
        ("fastpath_off", config h0 w0 f0 s0 rb0 sb0 sa0);
        ("fastpath_on", config h1 w1 f1 s1 rb1 sb1 sa1);
        ("rendezvous_machinery_map_op_reduction", num ratio_m);
        ("send_map_op_reduction", num ratio_s);
        ("send_alloc_reduction", num ratio_a);
      ]
  | _ -> line "ipc workload failed to boot"

(* ------------------------------------------------------------------ *)
(* Span layer: the kv-store demo traced vs untraced                    *)

(* The request-path tracing of the span layer rides the same contract
   as the raw tracepoints: with the sink disabled every span site is a
   flag load, so the kv workload's virtual clock and per-request
   latencies must be bit-identical with tracing on.  The latency
   distribution is aggregated from per-shard histograms through
   [Histogram.merge] — the same mechanism [report] uses. *)
let span () =
  section "Span layer: kv-store demo traced vs untraced (host time; model cycles)";
  let module Kv = Atmo_workloads.Kv_demo in
  let requests = 200 in
  let reps = 10 in
  let off_s, off, on_s, on, (records, dropped) =
    kv_traced_pair ~requests ~reps ~slots:8192 (fun () ->
        (Atmo_obs.Sink.records (), Atmo_obs.Sink.dropped ()))
  in
  let count p = List.length (List.filter p records) in
  let spans =
    count (fun (r : Atmo_obs.Event.record) ->
        match r.Atmo_obs.Event.ev with Atmo_obs.Event.Span_begin _ -> true | _ -> false)
  in
  let edges =
    count (fun (r : Atmo_obs.Event.record) ->
        match r.Atmo_obs.Event.ev with Atmo_obs.Event.Causal _ -> true | _ -> false)
  in
  let identical =
    off.Kv.end_cycles = on.Kv.end_cycles && off.Kv.latencies = on.Kv.latencies
  in
  (* per-shard latency histograms, merged for the aggregate quantiles *)
  let module H = Atmo_obs.Metrics.Histogram in
  let shard0 = H.make "bench/kv_lat_shard0" and shard1 = H.make "bench/kv_lat_shard1" in
  List.iteri
    (fun i l -> H.observe (if i land 1 = 0 then shard0 else shard1) l)
    on.Kv.latencies;
  let agg = H.make "bench/kv_lat" in
  H.merge ~into:agg shard0;
  H.merge ~into:agg shard1;
  line "%d GET requests per run, %d runs per configuration:" requests reps;
  line "  disabled sink: %8.2f ms" (off_s *. 1000.);
  line "  flight sink:   %8.2f ms  (%d spans, %d causal edges live; %d dropped)"
    (on_s *. 1000.) spans edges dropped;
  line "  host-time overhead when traced: %.1f%%"
    (100. *. (on_s -. off_s) /. Float.max 1e-9 off_s);
  line "  request latency (model cycles, merged shards): p50 %d  p99 %d  (n=%d)"
    (H.p50 agg) (H.p99 agg) (H.count agg);
  line "  cycle model: end %d vs %d, latencies identical: %b  -> identical: %b"
    off.Kv.end_cycles on.Kv.end_cycles
    (off.Kv.latencies = on.Kv.latencies)
    identical;
  line "(span instrumentation must never move simulated time)";
  write_bench_json "BENCH_span.json"
    [
      ("bench", J.Str "span_overhead");
      ("requests", J.Num (float_of_int requests));
      ("runs", J.Num (float_of_int reps));
      ("disabled_ms", J.Num (off_s *. 1000.));
      ("flight_ms", J.Num (on_s *. 1000.));
      ("overhead_pct", J.Num (100. *. (on_s -. off_s) /. Float.max 1e-9 off_s));
      ("spans_live", J.Num (float_of_int spans));
      ("causal_edges_live", J.Num (float_of_int edges));
      ("end_cycles", J.Num (float_of_int on.Kv.end_cycles));
      ("lat_p50_cycles", J.Num (float_of_int (H.p50 agg)));
      ("lat_p99_cycles", J.Num (float_of_int (H.p99 agg)));
      ("cycle_identity", J.Bool identical);
    ]

(* ------------------------------------------------------------------ *)
(* slo: online monitor cost over flight-only, streaming-vs-post-mortem *)
(* quantile agreement, and slow-request exemplar coverage              *)

(* The monitor rides the span layer's production-cost contract: armed
   on top of the flight sink it adds one histogram observe plus one
   threshold compare per request-root close and one snapshot diff per
   window boundary — nothing per event.  Three gates: (a) host-time
   overhead of flight+monitor stays within 15 points of flight alone;
   (b) the ring drops nothing, every request is rolled up exactly
   once, and the cycle model never moves; (c) the streaming
   p50/p99/p999 agree with the post-mortem profiler to the log2
   bucket, and every injected slow request yields a complete
   exemplar trail. *)
let slo () =
  section "SLO monitor: overhead vs flight-only, online vs post-mortem quantiles";
  let module Kv = Atmo_workloads.Kv_demo in
  let module O = Atmo_obs in
  let requests = 200 in
  let reps = 10 in
  (* Overhead is measured with production-shaped windows: an SLO
     evaluation window spans many requests (here ~24 at ~174k cycles
     each), so tick cost amortises the way it would in deployment.
     The agreement run below uses much finer windows to stress the
     rollup machinery itself. *)
  let window_cycles = 4_194_304 in
  let spec =
    match O.Slo.parse "lat/request:p99<=262143@8" with
    | Ok s -> s
    | Error m -> failwith m
  in
  (* Host time on a shared machine is noisy, so the flight-only and
     flight+monitor passes run back-to-back inside each trial and the
     gated number is the smallest paired difference — slow host drift
     cancels inside a pair, and the minimum is the least-perturbed
     measurement of the true added cost.  Pass order alternates
     between trials so drift that penalises whichever pass runs
     second cannot bias every pair the same way. *)
  let trials = 9 in
  (* 1. disabled sink: the cycle-model baseline *)
  let off_s = ref infinity and off = ref None in
  for _ = 1 to trials do
    let s, r = time_reps ~reps (fun () -> Kv.run ~requests ()) in
    off_s := Float.min !off_s s;
    off := Some r
  done;
  let off_s = !off_s and off = Option.get !off in
  (* 2+3. paired flight-only / flight+monitor trials; the monitor is
     re-armed per run so every run pays the full window-tick and
     slow-ledger cost.  Each pass is a fresh session with its own ring,
     provisioned for one pass, so the drop gate measures admission
     under adequate provisioning rather than reuse wraparound; a pass
     reports its drops and the requests it rolled up. *)
  let ticks_per_run = ref 0 in
  let fl_s = ref infinity and mon_s = ref infinity and delta_s = ref infinity in
  let fl = ref None and mon = ref None in
  let flight_drops = ref 0 and monitor_drops = ref 0 and rolled = ref 0 in
  let pass drops run =
    O.Session.with_flight ~slots:65536 (fun recorder ->
        let sr = time_reps ~reps run in
        drops := !drops + O.Flight.total_dropped recorder;
        rolled := !rolled + O.Metrics.Histogram.count (O.Metrics.histogram "lat/request");
        sr)
  in
  let flight_pass () = pass flight_drops (fun () -> Kv.run ~requests ()) in
  let monitor_pass () =
    pass monitor_drops (fun () ->
        let m = O.Monitor.arm ~windows:64 ~window_cycles ~now:0 ~specs:[ spec ] () in
        let r = Kv.run ~requests () in
        O.Monitor.finish m ~now:r.Kv.end_cycles;
        ticks_per_run := O.Timeseries.ticks (O.Monitor.series m);
        r)
  in
  for trial = 1 to trials do
    let (s_fl, r_fl), (s_mon, r_mon) =
      if trial mod 2 = 1 then
        let f = flight_pass () in
        (f, monitor_pass ())
      else
        let m = monitor_pass () in
        (flight_pass (), m)
    in
    fl_s := Float.min !fl_s s_fl;
    mon_s := Float.min !mon_s s_mon;
    delta_s := Float.min !delta_s (s_mon -. s_fl);
    fl := Some r_fl;
    mon := Some r_mon
  done;
  let fl_s = !fl_s and mon_s = !mon_s in
  let fl = Option.get !fl and mon = Option.get !mon and rolled = !rolled in
  let identical =
    off.Kv.end_cycles = fl.Kv.end_cycles
    && fl.Kv.end_cycles = mon.Kv.end_cycles
    && off.Kv.latencies = fl.Kv.latencies
    && fl.Kv.latencies = mon.Kv.latencies
  in
  let pct a b = 100. *. (a -. b) /. Float.max 1e-9 b in
  let fl_pct = pct fl_s off_s and mon_pct = pct mon_s off_s in
  let delta_pts = Float.max 0. (100. *. !delta_s /. off_s) in
  line "%d GET requests per run, %d runs per pass, %d paired trials:" requests reps
    trials;
  line "  disabled sink:   %8.2f ms" (off_s *. 1000.);
  line "  flight sink:     %8.2f ms  (%+.1f%% vs disabled)" (fl_s *. 1000.) fl_pct;
  line
    "  flight+monitor:  %8.2f ms  (%+.1f%% vs disabled; best paired delta %+.1f points; %d tick(s)/run)"
    (mon_s *. 1000.) mon_pct delta_pts !ticks_per_run;
  line "  drops: flight %d, monitored %d; requests rolled up %d/%d; identical: %b"
    !flight_drops !monitor_drops rolled
    (2 * requests * reps * trials)
    identical;
  (* 4. agreement run: one seeded pass with injected slow requests, a
     wrap-free ring and ring of windows, compared online vs offline *)
  let slow_every = 20 and slow_cycles = 200_000 in
  let injected = requests / slow_every in
  let agreement, captured, complete, compliant =
    O.Session.with_flight ~slots:65536 (fun _ ->
        let m = O.Monitor.arm ~windows:512 ~window_cycles:32768 ~now:0 ~specs:[ spec ] () in
        let agree = Kv.run ~requests ~slow_every ~slow_cycles () in
        O.Monitor.finish m ~now:agree.Kv.end_cycles;
        let series = O.Monitor.series m in
        let merged =
          O.Timeseries.merged series ~name:"lat/request" ~n:(O.Timeseries.capacity series)
        in
        let online q = O.Metrics.Snapshot.quantile merged q in
        (* post-mortem: the profiler's request-root durations, exact ranks *)
        let prof = O.Profile.build (O.Sink.records ()) in
        let request_code = O.Span.code O.Span.Request in
        let durs =
          List.filter_map
            (fun (s : O.Profile.span) ->
              if s.O.Profile.kind = request_code && s.O.Profile.ended then
                Some (O.Profile.duration s)
              else None)
            (O.Profile.spans prof)
          |> List.sort compare |> Array.of_list
        in
        let offline q =
          if Array.length durs = 0 then 0
          else
            let rank = int_of_float (ceil (q *. float_of_int (Array.length durs))) in
            durs.(max 0 (min (Array.length durs - 1) (rank - 1)))
        in
        let bucket = O.Metrics.Histogram.bucket_of in
        let agree_q q =
          let on = online q and post = offline q in
          let ok = abs (bucket on - bucket post) <= 1 in
          line "  p%-5g online %8d (bucket %2d)  post-mortem %8d (bucket %2d)  %s"
            (q *. 100.) on (bucket on) post (bucket post)
            (if ok then "agree" else "DISAGREE");
          ok
        in
        line "agreement run: %d requests, %d injected slow (+%d cycles), %d windows closed:"
          requests injected slow_cycles (O.Timeseries.ticks series);
        let a50 = agree_q 0.50 and a99 = agree_q 0.99 and a999 = agree_q 0.999 in
        let exemplars = O.Monitor.capture_exemplars ~max_exemplars:64 m in
        let complete =
          List.for_all (fun (e : O.Exemplar.t) -> e.O.Exemplar.complete) exemplars
        in
        let verdict = List.hd (O.Monitor.verdicts m) in
        line "  exemplars: %d captured for %d injected slow requests (all complete: %b)"
          (List.length exemplars) injected complete;
        line "  verdict: %a" O.Slo.pp_verdict verdict;
        (a50 && a99 && a999, List.length exemplars, complete, verdict.O.Slo.compliant))
  in
  write_bench_json "BENCH_slo.json"
    [
      ("bench", J.Str "slo_monitor");
      ("requests", J.Num (float_of_int requests));
      ("runs", J.Num (float_of_int reps));
      ("disabled_ms", J.Num (off_s *. 1000.));
      ("flight_ms", J.Num (fl_s *. 1000.));
      ("monitor_ms", J.Num (mon_s *. 1000.));
      ("flight_overhead_pct", J.Num fl_pct);
      ("monitor_overhead_pct", J.Num mon_pct);
      ("overhead_delta_pts", J.Num delta_pts);
      ("events_dropped", J.Num (float_of_int !monitor_drops));
      ("requests_rolled_up", J.Num (float_of_int rolled));
      ("rollup_exact", J.Bool (rolled = 2 * requests * reps * trials));
      ("cycle_identity", J.Bool identical);
      ("quantile_agreement", J.Bool agreement);
      ("injected_slow", J.Num (float_of_int injected));
      ("exemplars_captured", J.Num (float_of_int captured));
      ("exemplar_coverage", J.Bool (captured = injected && complete));
      ("slo_violated_as_expected", J.Bool (not compliant));
    ]

(* ------------------------------------------------------------------ *)
(* dev: device-backend identity and hostile-mode resilience            *)

(* One NIC behind a first-class interface so the pump is shared. *)
type nic_iface = {
  nic_deliver : bytes -> bool;
  nic_rx : max:int -> bytes list;
  nic_errors : unit -> int;
  nic_set_hostile : Atmo_devmodel.Hostile.t option -> unit;
  nic_clock : Clock.t;
}

let nic_slots = 32

let mk_bench_nic kind =
  let clock = Clock.create () in
  match kind with
  | `Ixgbe ->
    let module N = Atmo_drivers.Ixgbe in
    let mem, iommu, span = Worlds.dma_arena ~page_count:128 ~device:11 in
    let nic = N.create mem iommu ~device:11 ~clock ~cost in
    let buffers = Array.init nic_slots (fun _ -> (span 2048, 2048)) in
    (match N.setup_rx nic ~ring_iova:(span 4096) ~buffers with
     | Ok () -> ()
     | Error _ -> failwith "bench dev: ixgbe setup");
    { nic_deliver = (fun f -> N.wire_deliver nic f);
      nic_rx = (fun ~max -> N.rx_burst nic ~max);
      nic_errors = (fun () -> N.error_count nic);
      nic_set_hostile = (fun h -> N.set_hostile nic h);
      nic_clock = clock }
  | `Virtio ->
    let module N = Atmo_drivers.Virtio_net in
    let mem, iommu, span = Worlds.dma_arena ~page_count:128 ~device:14 in
    let nic = N.create mem iommu ~device:14 ~clock ~cost in
    let buffers = Array.init nic_slots (fun _ -> (span 2048, 2048)) in
    (match N.setup_rx nic ~ring_iova:(span 4096) ~buffers with
     | Ok () -> ()
     | Error _ -> failwith "bench dev: virtio setup");
    { nic_deliver = (fun f -> N.wire_deliver nic f);
      nic_rx = (fun ~max -> N.rx_burst nic ~max);
      nic_errors = (fun () -> N.error_count nic);
      nic_set_hostile = (fun h -> N.set_hostile nic h);
      nic_clock = clock }

(* Pump [frames] 64-byte frames through the RX path in bursts of 8;
   returns (frames harvested, model cycles at the end, typed errors). *)
let pump_nic iface ~frames =
  let frame = Bytes.make 64 '\x42' in
  let received = ref 0 in
  for i = 1 to frames do
    ignore (iface.nic_deliver frame);
    if i mod 8 = 0 then received := !received + List.length (iface.nic_rx ~max:8)
  done;
  (* drain until quiescent: hostile duplicates can trail the last burst *)
  let rec drain () =
    let got = List.length (iface.nic_rx ~max:nic_slots) in
    if got > 0 then begin
      received := !received + got;
      drain ()
    end
  in
  drain ();
  (!received, Clock.now iface.nic_clock, iface.nic_errors ())

let dev () =
  section "Device backends: virtio vs ixgbe identity; hostile-mode resilience";
  let module Kv = Atmo_workloads.Kv_demo in
  let module Model = Atmo_devmodel.Model in
  let module Hostile = Atmo_devmodel.Hostile in
  Model.reset ();
  let frames = 5000 in
  (* fault-free throughput identity: same frames, same cycle total *)
  let ixg_rx, ixg_cycles, _ = pump_nic (mk_bench_nic `Ixgbe) ~frames in
  let vio_rx, vio_cycles, _ = pump_nic (mk_bench_nic `Virtio) ~frames in
  let delivery_identity = ixg_rx = vio_rx && ixg_cycles = vio_cycles in
  line "fault-free RX, %d frames:" frames;
  line "  ixgbe:      %5d harvested, %8d cycles" ixg_rx ixg_cycles;
  line "  virtio-net: %5d harvested, %8d cycles  -> identity: %b" vio_rx vio_cycles
    delivery_identity;
  (* kv workload identity across block and NIC backends *)
  let base = Kv.run () in
  let vblk = Kv.run ~blk:`Virtio () in
  let kv_blk_identity =
    base.Kv.end_cycles = vblk.Kv.end_cycles
    && base.Kv.latencies = vblk.Kv.latencies
    && base.Kv.replies = vblk.Kv.replies
  in
  let nixg = Kv.run ~nic:`Ixgbe () in
  let nvio = Kv.run ~nic:`Virtio () in
  let kv_nic_identity =
    nixg.Kv.end_cycles = nvio.Kv.end_cycles
    && nixg.Kv.latencies = nvio.Kv.latencies
    && nixg.Kv.replies = nvio.Kv.replies
    && nixg.Kv.replies = base.Kv.replies
  in
  line "kv workload: nvme vs virtio-blk bit-identical: %b" kv_blk_identity;
  line "kv workload: ixgbe vs virtio-net bit-identical: %b (replies match IPC-only run)"
    kv_nic_identity;
  (* hostile mode: a fixed fault budget may cost at most the budget in
     delivered frames, and the ledgers must balance at quiescence *)
  let budget = 64 in
  let hostile_run kind seed =
    let iface = mk_bench_nic kind in
    iface.nic_set_hostile (Some (Hostile.create ~budget ~seed ()));
    let rx, cycles, errors = pump_nic iface ~frames in
    iface.nic_set_hostile None;
    ignore (iface.nic_rx ~max:nic_slots);
    (rx, cycles, errors)
  in
  let hixg_rx, hixg_cycles, hixg_err = hostile_run `Ixgbe 42 in
  let hvio_rx, hvio_cycles, hvio_err = hostile_run `Virtio 43 in
  let ratio_of rx = float_of_int rx /. float_of_int frames in
  let hostile_ratio = Float.min (ratio_of hixg_rx) (ratio_of hvio_rx) in
  line "hostile RX (budget %d fault injections), %d frames:" budget frames;
  line "  ixgbe:      %5d harvested (%.4f), %8d cycles, %3d typed errors" hixg_rx
    (ratio_of hixg_rx) hixg_cycles hixg_err;
  line "  virtio-net: %5d harvested (%.4f), %8d cycles, %3d typed errors" hvio_rx
    (ratio_of hvio_rx) hvio_cycles hvio_err;
  (* every model registered above must pass Driver_lint at quiescence *)
  let lint_clean =
    match Kernel.boot Kernel.default_boot with
    | Error _ -> false
    | Ok (k, _) ->
      Atmo_san.Report.clear ();
      let fresh = Atmo_san.Driver_lint.lint k in
      Atmo_san.Report.clear ();
      fresh = 0
  in
  line "driver lint at quiescence over %d device model(s): %s"
    (List.length (Model.all ()))
    (if lint_clean then "clean" else "VIOLATIONS");
  Model.reset ();
  write_bench_json "BENCH_dev.json"
    [
      ("bench", J.Str "dev_backends");
      ("frames", J.Num (float_of_int frames));
      ("ixgbe_rx", J.Num (float_of_int ixg_rx));
      ("virtio_rx", J.Num (float_of_int vio_rx));
      ("ixgbe_cycles", J.Num (float_of_int ixg_cycles));
      ("virtio_cycles", J.Num (float_of_int vio_cycles));
      ("virtio_ixgbe_delivery_identity", J.Bool delivery_identity);
      ("kv_blk_identity", J.Bool kv_blk_identity);
      ("kv_nic_identity", J.Bool kv_nic_identity);
      ("hostile_budget", J.Num (float_of_int budget));
      ("hostile_typed_errors", J.Num (float_of_int (hixg_err + hvio_err)));
      ("hostile_delivery_ratio", J.Num hostile_ratio);
      ("hostile_lint_clean", J.Bool lint_clean);
    ]

(* ------------------------------------------------------------------ *)
(* verif: incremental dirty-set re-check vs full discharge             *)

let verif () =
  section "Incremental verification: dirty-set re-check vs full discharge";
  line "(arm the dirty tracker, discharge the full suite once, apply one";
  line " syscall, then re-discharge: only obligations whose read set";
  line " intersects the transition's dirty set may run; verdicts must be";
  line " bit-identical to an oracle full re-check)";
  line "";
  match Catalog.build_world ~scale:3 with
  | Error msg ->
    line "world failed to build: %s" msg;
    exit 1
  | Ok (k, init) ->
    let suite = Catalog.suite_for ~scale:3 k in
    let n = List.length suite in
    Incremental.arm ();
    Fun.protect ~finally:Incremental.disarm (fun () ->
        let r_full = Incremental.run ~threads:1 suite in
        line "full discharge:        %4d obligations  %8.1f ms  %s" n
          (r_full.Runner.wall_s *. 1000.)
          (if Runner.all_ok r_full then "ok" else "FAIL");
        ignore (Kernel.step k ~thread:init Syscall.Yield);
        let dirty = Incremental.dirty_ids () in
        line "transition: yield      dirty = {%s}" (String.concat "; " dirty);
        let r_inc = Incremental.run ~threads:1 suite in
        line "incremental re-check:  %4d obligations  %8.1f ms  re-checked %d, reused %d"
          n
          (r_inc.Runner.wall_s *. 1000.)
          r_inc.Runner.rechecked r_inc.Runner.reused;
        (* oracle: a full re-discharge of the same state must agree on
           every (name, verdict, detail) triple *)
        let r_oracle = Runner.run ~threads:1 suite in
        let verdicts (r : Runner.report) =
          List.map
            (fun (x : Obligation.result) ->
              (x.Obligation.name, x.Obligation.ok, x.Obligation.detail))
            r.Runner.results
        in
        let identical = verdicts r_inc = verdicts r_oracle in
        let fraction = float_of_int r_inc.Runner.rechecked /. float_of_int (max 1 n) in
        let speedup =
          r_full.Runner.wall_s /. Float.max 1e-6 r_inc.Runner.wall_s
        in
        line "verdicts vs oracle full re-check: %s"
          (if identical then "bit-identical" else "DIVERGED");
        line "re-check fraction: %.1f%% (budget 20%%)   speedup: %.1fx (floor 5x)"
          (100. *. fraction) speedup;
        write_bench_json "BENCH_verif.json"
          [
            ("bench", J.Str "incremental_verif");
            ("obligations", J.Num (float_of_int n));
            ("full_ms", J.Num (r_full.Runner.wall_s *. 1000.));
            ("incremental_ms", J.Num (r_inc.Runner.wall_s *. 1000.));
            ("speedup", J.Num speedup);
            ("rechecked", J.Num (float_of_int r_inc.Runner.rechecked));
            ("reused", J.Num (float_of_int r_inc.Runner.reused));
            ("recheck_fraction", J.Num fraction);
            ("recheck_within_budget", J.Bool (fraction <= 0.20));
            ("verdicts_identical", J.Bool identical);
            ("all_ok", J.Bool (Runner.all_ok r_inc && Runner.all_ok r_oracle));
          ])

(* ------------------------------------------------------------------ *)
(* smp: the broken-up big lock — scaling curve plus the on/off oracle  *)

(* The kv-style IPC workload: 8 sender/receiver pairs, one endpoint
   each, ~500 user cycles of think per kernel entry.  Under the big
   lock, kernel time serializes machine-wide and the curve saturates
   near 1.5x; under the fine-grained regime each pair serializes only
   on its endpoint shard and its CPUs, so the curve tracks the CPU
   count.  Both regimes drive the identical kernel — the oracle
   asserts bit-identical returns, scheduling decisions and abstract
   state at every point of the curve. *)
let smp_pairs = 8
let smp_think = 500

let smp_build_world () =
  let boot_params =
    { Kernel.default_boot with Kernel.cpus = Atmo_util.Iset.of_range ~lo:0 ~hi:8 }
  in
  match Kernel.boot boot_params with
  | Error e -> Error (Format.asprintf "boot: %a" Atmo_util.Errno.pp e)
  | Ok (k, init) ->
    let pm = k.Kernel.pm in
    let new_thread () =
      match Kernel.step k ~thread:init Syscall.New_thread with
      | Syscall.Rptr t -> t
      | r -> failwith (Format.asprintf "new_thread -> %a" Syscall.pp_ret r)
    in
    let programs =
      List.concat
        (List.init smp_pairs (fun p ->
             let receiver = new_thread () in
             let sender = new_thread () in
             let ep =
               match Kernel.step k ~thread:init (Syscall.New_endpoint { slot = p }) with
               | Syscall.Rptr e -> e
               | r -> failwith (Format.asprintf "new_endpoint -> %a" Syscall.pp_ret r)
             in
             List.iter
               (fun thread -> Atmo_pm.Proc_mgr.share_endpoint pm ~thread ~slot:0 ~endpoint:ep)
               [ receiver; sender ];
             [
               { Atmo_sim.Smp.thread = receiver; think_cycles = smp_think;
                 call_of = (fun _ -> Syscall.Recv { slot = 0 }) };
               { Atmo_sim.Smp.thread = sender; think_cycles = smp_think;
                 call_of =
                   (fun i ->
                     Syscall.Send { slot = 0; msg = Message.scalars_only [ (p * 1000) + i ] }) };
             ]))
    in
    Ok (k, programs)

(* One run: fresh world, one regime, one CPU count.  The digest folds
   every observed step — entering CPU, iteration, thread, pretty-printed
   return and the per-CPU currents snapshot — so two digests agree iff
   the kernel made the same decisions in the same order. *)
let smp_run ~regime ~cpus ~iterations =
  match smp_build_world () with
  | Error msg -> Error msg
  | Ok (k, programs) ->
    let digest = Buffer.create 4096 in
    let observe ~cpu ~iter ~thread ret =
      Buffer.add_string digest
        (Format.asprintf "%d/%d/%x:%a|" cpu iter thread Syscall.pp_ret ret);
      List.iter
        (fun c ->
          Buffer.add_string digest
            (match c with Some t -> Printf.sprintf "%x," t | None -> "-,"))
        (Atmo_pm.Proc_mgr.currents_list k.Kernel.pm);
      Buffer.add_char digest ';'
    in
    (match
       Atmo_sim.Smp.run ~regime ~steal_seed:42 ~observe k ~cost ~cpus ~programs
         ~iterations
     with
     | Error msg -> Error msg
     | Ok stats ->
       Ok (stats, Buffer.contents digest, Atmo_core.Abstraction.abstract k))

let smp () =
  section "SMP: per-CPU run queues + sharded endpoint locks vs the big lock";
  line "(kv workload: %d IPC pairs, think %d cycles; both regimes drive the"
    smp_pairs smp_think;
  line " identical kernel — only the lock cycle-model differs, so the on/off";
  line " oracle demands bit-identical returns, scheduling and abstract state)";
  line "";
  let iterations = 100 in
  let cpu_points = [ 1; 2; 4; 8 ] in
  let results =
    List.filter_map
      (fun cpus ->
        match
          ( smp_run ~regime:Atmo_sim.Smp.Big_lock ~cpus ~iterations,
            smp_run ~regime:Atmo_sim.Smp.Fine_grained ~cpus ~iterations )
        with
        | Ok big, Ok fine -> Some (cpus, big, fine)
        | Error msg, _ | _, Error msg ->
          line "  %d CPUs: run failed: %s" cpus msg;
          None)
      cpu_points
  in
  match results with
  | [] ->
    line "smp bench failed: no data points";
    exit 1
  | (_, (base_big, _, _), (base_fine, _, _)) :: _ ->
    let tp s = Atmo_sim.Smp.throughput s in
    let speedup base s = tp s /. Float.max 1e-9 (tp base) in
    line "%4s  %28s  %28s  %s" "CPUs" "big lock" "fine-grained" "oracle";
    let oracle_all = ref true in
    let curve =
      List.map
        (fun (cpus, (sb, db, ab), (sf, df, af)) ->
          let identical =
            db = df && Atmo_spec.Abstract_state.equal ab af
            && sb.Atmo_sim.Smp.placement = sf.Atmo_sim.Smp.placement
          in
          if not identical then oracle_all := false;
          line "%4d  %10.2f M/s (%5.2fx)      %10.2f M/s (%5.2fx)      %s" cpus
            (tp sb /. 1e6) (speedup base_big sb) (tp sf /. 1e6)
            (speedup base_fine sf)
            (if identical then "identical" else "DIVERGED");
          ( cpus,
            J.Obj
              [
                ("big_msyscalls_s", J.Num (tp sb /. 1e6));
                ("fine_msyscalls_s", J.Num (tp sf /. 1e6));
                ("big_speedup", J.Num (speedup base_big sb));
                ("fine_speedup", J.Num (speedup base_fine sf));
                ("fine_steals", J.Num (float_of_int sf.Atmo_sim.Smp.steals));
                ( "fine_lock_wait_by_cpu",
                  J.Arr
                    (Array.to_list
                       (Array.map
                          (fun w -> J.Num (float_of_int w))
                          sf.Atmo_sim.Smp.lock_wait_by_cpu)) );
                ("oracle_identical", J.Bool identical);
              ] ))
        results
    in
    let speedup_at cpus regime_sel =
      List.find_map
        (fun (c, (sb, _, _), (sf, _, _)) ->
          if c = cpus then
            Some
              (match regime_sel with
               | `Big -> speedup base_big sb
               | `Fine -> speedup base_fine sf)
          else None)
        results
    in
    let fine8 = Option.value ~default:0. (speedup_at 8 `Fine) in
    let big8 = Option.value ~default:0. (speedup_at 8 `Big) in
    line "";
    line "8-CPU speedup: big lock %.2fx (saturates at the lock), fine-grained %.2fx"
      big8 fine8;
    line "oracle across the curve: %s"
      (if !oracle_all then "bit-identical" else "DIVERGED");
    write_bench_json "BENCH_smp.json"
      [
        ("bench", J.Str "smp_scaling");
        ("workload", J.Str (Printf.sprintf "kv ipc, %d pairs, think %d" smp_pairs smp_think));
        ("iterations", J.Num (float_of_int iterations));
        ( "curve",
          J.Obj (List.map (fun (c, v) -> (string_of_int c, v)) curve) );
        ("big_speedup_8cpu", J.Num big8);
        ("fine_speedup_8cpu", J.Num fine8);
        ("oracle_identity", J.Bool !oracle_all);
      ]

(* ------------------------------------------------------------------ *)
(* report: merge BENCH_*.json, enforce floors, diff the last summary   *)

let report () =
  section "Bench report: merge BENCH_*.json, enforce floors, diff the last summary";
  let files =
    [ "BENCH_obs.json"; "BENCH_san.json"; "BENCH_tlb.json"; "BENCH_ipc.json";
      "BENCH_span.json"; "BENCH_dev.json"; "BENCH_verif.json"; "BENCH_smp.json";
      "BENCH_slo.json" ]
  in
  let loaded =
    List.filter_map
      (fun f ->
        if Sys.file_exists f then (
          match J.of_file f with
          | Ok v -> Some (f, v)
          | Error m ->
            line "  %s: unreadable (%s); skipped" f m;
            None)
        else begin
          line "  %s: missing (run its bench to regenerate); skipped" f;
          None
        end)
      files
  in
  let key_of f = String.sub f 6 (String.length f - 11) (* BENCH_<key>.json *) in
  let prev =
    if Sys.file_exists "BENCH_summary.json" then
      match J.of_file "BENCH_summary.json" with Ok v -> Some v | Error _ -> None
    else None
  in
  let summary = J.Obj (List.map (fun (f, v) -> (key_of f, v)) loaded) in
  (* advisory deltas: every numeric leaf against the previous summary *)
  let rec leaves prefix v acc =
    match v with
    | J.Obj kvs ->
      List.fold_left (fun acc (k, x) -> leaves (prefix ^ "." ^ k) x acc) acc kvs
    | J.Num n -> (prefix, n) :: acc
    | _ -> acc
  in
  (match prev with
   | None -> line "  no previous BENCH_summary.json; skipping deltas"
   | Some p ->
     let old_leaves = leaves "" p [] in
     let shown = ref 0 in
     List.iter
       (fun (k, n) ->
         match List.assoc_opt k old_leaves with
         | Some o when Float.abs o > 1e-9 ->
           let d = 100. *. (n -. o) /. Float.abs o in
           if Float.abs d >= 5. then begin
             incr shown;
             line "  delta %-50s %12.3f -> %12.3f  (%+.1f%%)" k o n d
           end
         | _ -> ())
       (List.rev (leaves "" summary []));
     if !shown = 0 then line "  no numeric field moved by 5%% or more"
     else line "  (%d field(s) moved >= 5%%; host-time deltas are advisory)" !shown);
  J.to_file "BENCH_summary.json" summary;
  line "  wrote BENCH_summary.json (%d bench file(s) merged)" (List.length loaded);
  (* hard floors: a regression here fails the gate; a bench whose file
     is missing was already reported skipped above *)
  let failures = ref 0 in
  let floor_num name p ~min_v =
    match J.to_float (J.path p summary) with
    | None -> line "  floor %-42s SKIP (field absent)" name
    | Some v ->
      if v >= min_v then line "  floor %-42s ok    (%.3f >= %.3f)" name v min_v
      else begin
        incr failures;
        line "  floor %-42s FAIL  (%.3f < %.3f)" name v min_v
      end
  in
  let floor_max name p ~max_v =
    match J.to_float (J.path p summary) with
    | None -> line "  floor %-42s SKIP (field absent)" name
    | Some v ->
      if v <= max_v then line "  floor %-42s ok    (%.3f <= %.3f)" name v max_v
      else begin
        incr failures;
        line "  floor %-42s FAIL  (%.3f > %.3f)" name v max_v
      end
  in
  let floor_true name p =
    match J.to_bool (J.path p summary) with
    | None -> line "  floor %-42s SKIP (field absent)" name
    | Some true -> line "  floor %-42s ok" name
    | Some false ->
      incr failures;
      line "  floor %-42s FAIL" name
  in
  floor_true "obs cycle identity" [ "obs"; "cycle_identity" ];
  floor_max "obs traced overhead <= 100%" [ "obs"; "overhead_pct" ] ~max_v:100.0;
  floor_max "obs zero drops" [ "obs"; "events_dropped" ] ~max_v:0.0;
  floor_true "obs lossless accounting" [ "obs"; "accounting_exact" ];
  floor_true "san cycle identity" [ "san"; "cycle_identity" ];
  floor_true "span cycle identity" [ "span"; "cycle_identity" ];
  floor_true "tlb replay identity" [ "tlb"; "replay_identity" ];
  floor_num "tlb load reduction >= 5x" [ "tlb"; "load_reduction" ] ~min_v:5.0;
  floor_num "ipc map-op reduction >= 2x"
    [ "ipc"; "rendezvous_machinery_map_op_reduction" ]
    ~min_v:2.0;
  floor_true "dev virtio/ixgbe delivery identity" [ "dev"; "virtio_ixgbe_delivery_identity" ];
  floor_true "dev kv blk identity" [ "dev"; "kv_blk_identity" ];
  floor_true "dev kv nic identity" [ "dev"; "kv_nic_identity" ];
  floor_num "dev hostile delivery >= 0.9" [ "dev"; "hostile_delivery_ratio" ] ~min_v:0.9;
  floor_true "dev hostile lint clean" [ "dev"; "hostile_lint_clean" ];
  floor_true "verif incremental verdict identity" [ "verif"; "verdicts_identical" ];
  floor_true "verif incremental all ok" [ "verif"; "all_ok" ];
  floor_true "verif re-check within 20% budget" [ "verif"; "recheck_within_budget" ];
  floor_num "verif incremental speedup >= 5x" [ "verif"; "speedup" ] ~min_v:5.0;
  floor_true "smp big-vs-fine oracle identity" [ "smp"; "oracle_identity" ];
  floor_num "smp fine-grained 8-cpu speedup >= 2.5x"
    [ "smp"; "fine_speedup_8cpu" ] ~min_v:2.5;
  floor_true "slo cycle identity" [ "slo"; "cycle_identity" ];
  floor_max "slo monitor delta <= 15 points" [ "slo"; "overhead_delta_pts" ] ~max_v:15.0;
  floor_max "slo zero drops" [ "slo"; "events_dropped" ] ~max_v:0.0;
  floor_true "slo rollup accounting exact" [ "slo"; "rollup_exact" ];
  floor_true "slo online/post-mortem quantile agreement" [ "slo"; "quantile_agreement" ];
  floor_true "slo exemplar coverage of injected slow" [ "slo"; "exemplar_coverage" ];
  floor_true "slo injected breach detected" [ "slo"; "slo_violated_as_expected" ];
  if !failures > 0 then begin
    line "  %d floor(s) FAILED" !failures;
    exit 1
  end
  else line "  all floors hold"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure           *)

let bechamel () =
  section "Bechamel micro-benchmarks (one per table/figure; wall time of the real code)";
  let open Bechamel in
  let pt = Catalog.build_pt ~mappings:512 in
  let lb =
    Atmo_net.Maglev.create
      ~backends:(List.init 8 (fun i -> Printf.sprintf "b%d" i))
      ~table_size:65537
  in
  let store = Atmo_net.Kv_store.create ~entries:65_537 in
  for i = 0 to 9_999 do
    ignore
      (Atmo_net.Kv_store.set store
         ~key:(Bytes.of_string (Printf.sprintf "k%05d" i))
         ~value:(Bytes.make 16 'v'))
  done;
  let ipc_world =
    match Kernel.boot Kernel.default_boot with
    | Ok (k, init) ->
      (match Kernel.step k ~thread:init (Syscall.New_endpoint { slot = 0 }) with
       | Syscall.Rptr _ -> Some (k, init)
       | _ -> None)
    | Error _ -> None
  in
  let flow = Atmo_net.Packet.flow_of_ints ~src:1 ~dst:2 ~sport:1234 ~dport:80 in
  let frame = Atmo_net.Packet.build flow ~payload:(Bytes.make 22 'x') in
  let http_req = "GET /index.html HTTP/1.1\r\nHost: atmo\r\nConnection: keep-alive\r\n\r\n" in
  let tests =
    [
      Test.make ~name:"table2/pt-flat-check"
        (Staged.stage (fun () -> ignore (Atmo_pt.Pt_refine.all pt)));
      Test.make ~name:"table2/pt-recursive-check"
        (Staged.stage (fun () -> ignore (Atmo_pt.Nros_pt.all pt)));
      Test.make ~name:"table3/ipc-send-nb"
        (Staged.stage (fun () ->
             match ipc_world with
             | Some (k, init) ->
               ignore
                 (Kernel.step k ~thread:init
                    (Syscall.Send_nb { slot = 0; msg = Message.scalars_only [ 1 ] }))
             | None -> ()));
      Test.make ~name:"fig2/kernel-total-wf"
        (Staged.stage (fun () ->
             match ipc_world with
             | Some (k, _) -> ignore (Atmo_core.Invariants.total_wf k)
             | None -> ()));
      Test.make ~name:"fig4/packet-parse-hash"
        (Staged.stage (fun () -> ignore (Atmo_net.Packet.five_tuple_hash frame)));
      Test.make ~name:"fig5/nvme-submit-poll"
        (Staged.stage (fun () ->
             let clock = Clock.create () in
             let dev = Atmo_drivers.Nvme.create ~clock ~cost ~capacity_blocks:64 in
             ignore (Atmo_drivers.Nvme.submit_read dev ~lba:1);
             ignore (Atmo_drivers.Nvme.wait_all dev)));
      Test.make ~name:"fig6/maglev-lookup"
        (Staged.stage (fun () -> ignore (Atmo_net.Maglev.lookup lb 0xdeadbeefL)));
      Test.make ~name:"fig6/http-parse"
        (Staged.stage (fun () -> ignore (Atmo_net.Http.parse_request http_req)));
      Test.make ~name:"fig7/kv-get"
        (Staged.stage (fun () ->
             ignore (Atmo_net.Kv_store.get store ~key:(Bytes.of_string "k00042"))));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:(Some 500) () in
  let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"atmo" tests) in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let merged = Analyze.merge ols [ instance ] [ results ] in
  Hashtbl.iter
    (fun _witness tbl ->
      let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) tbl [] in
      List.iter
        (fun (name, result) ->
          match Analyze.OLS.estimates result with
          | Some (t :: _) -> line "%-36s %12.1f ns/op" name t
          | Some [] | None -> line "%-36s (no estimate)" name)
        (List.sort compare rows))
    merged

(* ------------------------------------------------------------------ *)

let all () =
  table1 ();
  table2 ();
  ablation ();
  table3 ();
  fig2 ();
  fig3 ();
  fig4 ();
  fig5 ();
  fig6 ();
  fig7 ();
  obs ();
  san ();
  tlb ();
  ipc ();
  span ();
  slo ();
  dev ();
  verif ();
  smp ();
  bechamel ()

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match which with
  | "table1" -> table1 ()
  | "table2" -> table2 ()
  | "table3" -> table3 ()
  | "fig2" -> fig2 ()
  | "fig3" -> fig3 ()
  | "fig4" -> fig4 ()
  | "fig5" -> fig5 ()
  | "fig6" -> fig6 ()
  | "fig7" -> fig7 ()
  | "ablation" -> ablation ()
  | "obs" -> obs ()
  | "san" -> san ()
  | "tlb" -> tlb ()
  | "ipc" -> ipc ()
  | "span" -> span ()
  | "slo" -> slo ()
  | "dev" -> dev ()
  | "verif" -> verif ()
  | "smp" -> smp ()
  | "report" -> report ()
  | "bechamel" -> bechamel ()
  | "all" -> all ()
  | other ->
    Format.eprintf "unknown benchmark %S@." other;
    exit 1
