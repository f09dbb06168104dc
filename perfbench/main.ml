(* perfbench: one workload, one run.

     main.exe --workload kv|kv-monitored|vm-churn|verify --seed N
              --seconds S --trace 0|1

   Prints a human-readable report, then as its last line one JSON
   object {correct, attempted, failed, metrics}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  Exits 1 when
   an output check fails, 2 on bad arguments. *)

open Perfbench

let e2e_units =
  [
    ("setup_s", "s"); ("throughput_ops_s", "1/s"); ("latency_p50_us", "us");
    ("alloc_words_per_op", "words"); ("peak_heap_mb", "MB");
  ]

(* Every per-layer metric, printed by every traced run.  Layer costs come
   from micro-loops and one measured suite discharge at each domain count,
   the same kind of figure on every workload; per-op counters are those of
   the traced workload (0 where it does not reach the layer). *)
let layer_units =
  [
    ("core.step_ns.mmap", "ns"); ("core.step_ns.munmap", "ns"); ("core.step_ns.mprotect", "ns");
    ("core.step_ns.new_process", "ns"); ("core.step_ns.terminate_process", "ns");
    ("core.step_ns.send", "ns"); ("core.step_ns.recv", "ns"); ("core.ipc_round_ns", "ns");
    ("core.fastpath_ratio", "ratio"); ("core.resolve_ns", "ns");
    ("hw.tlb_hit_ratio", "ratio"); ("hw.walk_loads_per_op", "count");
    ("hw.iotlb_hit_ratio", "ratio"); ("pm.borrows_per_op", "count");
    ("pm.mutations_per_op", "count"); ("pm.read_retries", "count");
    ("pmem.mutations_per_op", "count"); ("pt.mutations_per_op", "count");
    ("drivers.nvme_read_ns", "ns"); ("drivers.ixgbe_transfer_ns", "ns");
    ("net.maglev_lookup_ns", "ns"); ("net.kv_get_ns", "ns");
    ("obs.flight_us_per_req", "us"); ("obs.monitor_us_per_req", "us");
    ("obs.ticks_per_req", "count"); ("obs.records_per_req", "count"); ("obs.dropped", "count");
    ("verif.group_ms.pt-flat", "ms"); ("verif.group_ms.pm", "ms"); ("verif.group_ms.pm-rec", "ms");
    ("verif.group_ms.kernel", "ms"); ("verif.group_ms.refine", "ms");
    ("verif.group_ms.spec", "ms"); ("verif.spec_obligation_ms_p50", "ms");
    ("verif.parallel_speedup", "ratio"); ("verif.minor_gcs_per_suite", "count");
    ("verif.major_gcs_per_suite", "count"); ("verif.abstract_ns", "ns");
    ("verif.step_ns", "ns"); ("verif.spec_check_ns", "ns"); ("verif.total_wf_ns", "ns");
    ("verif.steps_per_spec_obligation", "count"); ("verif.report_order_mismatch", "count");
    ("sim.latency_p50_cycles", "cycles"); ("sim.latency_p99_cycles", "cycles");
    ("bench.latency_p99_us", "us"); ("bench.trace_overhead_pct", "%");
    ("recon.kv_coverage", "ratio"); ("recon.verify_coverage", "ratio");
  ]

let workloads = [ "kv"; "kv-monitored"; "vm-churn"; "verify" ]
let say = Workloads.say

(* The layer micro-loops every traced run measures, and the kv
   reconciliation they make possible. *)
let layer_costs ~seed =
  let steps = Layers.step_costs ~rounds:2000 in
  let ipc = Layers.ipc ~rounds:2000 in
  let resolve = Layers.resolve ~seed in
  let nvme = Layers.nvme ~reads:5000 in
  let nic = Layers.ixgbe ~transfers:5000 in
  let net = Layers.net () in
  let obs = Layers.obs ~trials:8 in
  let replay = Layers.verif_replay ~seed ~steps:40 in
  let cost n = List.assoc n (ipc @ net) in
  let round = cost "core.ipc_round_ns" in
  let covered =
    (obs.Layers.rendezvous_per_req *. round) +. nvme +. (2. *. nic)
    +. cost "net.maglev_lookup_ns" +. cost "net.kv_get_ns"
  in
  let coverage = covered /. (obs.Layers.kv_us_per_req *. 1e3) in
  say
    "reconcile kv: %.2f rendezvous x ipc_round %.0f ns + nvme_read %.0f ns + 2 x \
     ixgbe_transfer %.0f ns + maglev_lookup %.0f ns + kv_get %.0f ns = %.2f us of %.2f us per \
     request (base: untraced kv, %d-GET batches, net of set-up) -> coverage %.3f"
    obs.Layers.rendezvous_per_req round nvme nic (cost "net.maglev_lookup_ns")
    (cost "net.kv_get_ns")
    (covered /. 1e3) obs.Layers.kv_us_per_req Kvrun.monitored_requests coverage;
  steps @ ipc
  @ [ ("core.resolve_ns", resolve); ("drivers.nvme_read_ns", nvme);
      ("drivers.ixgbe_transfer_ns", nic) ]
  @ net @ obs.Layers.metrics @ replay
  @ [ ("recon.kv_coverage", coverage) ]

let run_workload ~workload ~seed ~seconds ~traced =
  match workload with
  | "kv" -> Workloads.kv_family ~mode:Kvrun.Plain ~seconds ~traced
  | "kv-monitored" -> Workloads.kv_family ~mode:Kvrun.Monitored ~seconds ~traced
  | "vm-churn" -> Workloads.churn ~seed ~seconds ~traced
  | _ -> Workloads.verify ~seconds ~traced

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let main ~workload ~seed ~seconds ~traced =
  say "perfbench %s: seed %d, %d s, trace %d, clock resolution %d ns, %d domain(s) available"
    workload seed seconds (Bool.to_int traced) (Bclock.resolution_ns ())
    (Domain.recommended_domain_count ());
  (* micro-loops first, on a fresh heap, so their figures do not depend
     on what the workload left behind *)
  let layer, layer_error =
    if not traced then ([], None)
    else begin
      let t0 = Bclock.now_ns () in
      match
        let costs = layer_costs ~seed in
        costs @ Workloads.verif_suite ~layer:costs
      with
      | l ->
        say "layer measurements took %.1f s" (Bclock.seconds_since t0);
        (l, None)
      | exception (Failure e | Workloads.Check_failed e) -> ([], Some e)
    end
  in
  let o = run_workload ~workload ~seed ~seconds:(float_of_int seconds) ~traced in
  let o = if layer_error = None then o else { o with Workloads.error = layer_error } in
  let produced = o.Workloads.metrics @ layer in
  let units = if traced then layer_units else e2e_units in
  (* a produced metric outside the declared list is a bench bug; a
     declared one this workload does not reach reads 0 *)
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n units) then failwith ("undeclared metric " ^ n))
    produced;
  let values =
    List.map (fun (n, u) -> (n, Option.value ~default:0. (List.assoc_opt n produced), u)) units
  in
  say "%-34s %22s  %s" "METRIC" "VALUE" "UNIT";
  List.iter (fun (n, v, u) -> say "%-34s %22.6f  %s" n v u) values;
  if traced then begin
    Spans.pp_table Format.std_formatter ();
    let file = Printf.sprintf "_build/perfbench-spans-%s.json" workload in
    if Sys.file_exists "_build" then begin
      Spans.write_chrome file;
      say "wrote %s" file
    end
  end;
  let correct = o.Workloads.error = None in
  Option.iter (fun e -> say "OUTPUT CHECK FAILED: %s" e) o.Workloads.error;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct o.Workloads.attempted o.Workloads.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
          values));
  if correct then 0 else 1

let usage () =
  prerr_endline
    "usage: main.exe --workload kv|kv-monitored|vm-churn|verify --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  let seed = int "seed" and seconds = int "seconds" in
  let traced = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  if seconds < 1 then usage ();
  exit (main ~workload ~seed ~seconds ~traced)
