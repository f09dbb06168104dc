(* The broken-up big lock: per-CPU run queues, work stealing, sharded
   endpoint locks — the concurrency edges of the fine-grained regime
   and the big-lock/fine-grained oracle. *)

module Kernel = Atmo_core.Kernel
module Syscall = Atmo_spec.Syscall
module Message = Atmo_pm.Message
module Proc_mgr = Atmo_pm.Proc_mgr
module Sched_queue = Atmo_pm.Sched_queue
module Smp = Atmo_sim.Smp
module Report = Atmo_san.Report
module Lockcheck = Atmo_san.Lockcheck

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let cost = Atmo_sim.Cost.default

let new_thread k init =
  match Kernel.step k ~thread:init Syscall.New_thread with
  | Syscall.Rptr t -> t
  | r -> Alcotest.failf "new_thread -> %a" Syscall.pp_ret r

(* ------------------------------------------------------------------ *)
(* Sched_queue / Proc_mgr concurrency edges                            *)

let test_steal_from_empty () =
  let k, _init = Helpers.boot () in
  let pm = k.Kernel.pm in
  Proc_mgr.set_sched_cpus pm 2;
  (* park the boot thread so nothing is schedulable anywhere *)
  (match Proc_mgr.current pm with
   | Some _ -> Proc_mgr.preempt_current pm
   | None -> ());
  Proc_mgr.remove_from_run_queue pm
    ~thread:(Option.value ~default:0 (Proc_mgr.current pm));
  let drain () = while Proc_mgr.dequeue_next pm <> None do () done in
  drain ();
  Proc_mgr.set_cpu pm 1;
  checkb "nothing to steal: dequeue yields None" true (Proc_mgr.dequeue_next pm = None);
  checkb "cpu 1 stays idle" true (Proc_mgr.current_of pm ~cpu:1 = None);
  Proc_mgr.set_cpu pm 0

let test_self_steal_guard () =
  let k, init = Helpers.boot () in
  let pm = k.Kernel.pm in
  (* single queue: an idle dequeue must not "steal" from itself *)
  (match Proc_mgr.current pm with
   | Some _ -> ()
   | None -> ignore (Proc_mgr.dequeue_next pm));
  let t2 = new_thread k init in
  checkb "t2 queued on its home" true (Proc_mgr.queued_anywhere pm ~thread:t2);
  let steals_before = List.length (Proc_mgr.steal_ledger pm) in
  (match Proc_mgr.dequeue_next pm with
   | Some _ -> ()
   | None -> Alcotest.fail "own queue had work");
  checki "taking from the own queue is not a steal" steals_before
    (List.length (Proc_mgr.steal_ledger pm))

let test_steal_migrates_home () =
  let k, init = Helpers.boot () in
  let pm = k.Kernel.pm in
  Proc_mgr.set_sched_cpus pm 2;
  let t2 = new_thread k init in
  checki "t2 homed on cpu 0" 0 (Proc_mgr.home_of pm ~thread:t2);
  checkb "t2 waits on queue 0" true (Sched_queue.mem (Proc_mgr.queue pm ~cpu:0) t2);
  (* cpu 1 runs dry and steals from the back of cpu 0's queue *)
  Proc_mgr.set_cpu pm 1;
  checkb "cpu 1 steals t2" true (Proc_mgr.dequeue_next pm = Some t2);
  Proc_mgr.set_cpu pm 0;
  checkb "stolen thread is current on the thief" true
    (Proc_mgr.current_of pm ~cpu:1 = Some t2);
  checki "home followed the thief" 1 (Proc_mgr.home_of pm ~thread:t2);
  checkb "the ledger logged (thief, victim, thread)" true
    (List.exists (fun (th, v, t) -> th = 1 && v = 0 && t = t2) (Proc_mgr.steal_ledger pm))

let test_terminate_racing_steal () =
  let k, init = Helpers.boot () in
  let pm = k.Kernel.pm in
  Proc_mgr.set_sched_cpus pm 2;
  let t2 = new_thread k init in
  Proc_mgr.set_cpu pm 1;
  checkb "stolen" true (Proc_mgr.dequeue_next pm = Some t2);
  Proc_mgr.set_cpu pm 0;
  (* correct teardown scrubs the ledger: no stale reference, lint clean *)
  Proc_mgr.destroy_thread pm ~thread:t2;
  checkb "ledger scrubbed on destroy" true
    (not (List.exists (fun (_, _, t) -> t = t2) (Proc_mgr.steal_ledger pm)));
  checkb "thief slot cleared" true (Proc_mgr.current_of pm ~cpu:1 = None);
  Report.clear ();
  checki "sched lint clean after the race" 0 (Atmo_san.Sched_lint.lint k)

let test_lost_steal_detected () =
  let k, init = Helpers.boot () in
  let pm = k.Kernel.pm in
  Proc_mgr.set_sched_cpus pm 2;
  let t2 = new_thread k init in
  Proc_mgr.set_cpu pm 1;
  checkb "stolen" true (Proc_mgr.dequeue_next pm = Some t2);
  Proc_mgr.set_cpu pm 0;
  (* buggy teardown: the ledger entry outlives the thread *)
  Proc_mgr.set_lost_steal_plant pm true;
  Fun.protect
    ~finally:(fun () -> Proc_mgr.set_lost_steal_plant pm false)
    (fun () -> Proc_mgr.destroy_thread pm ~thread:t2);
  Report.clear ();
  checkb "lint fires" true (Atmo_san.Sched_lint.lint k > 0);
  checkb "as Lost_steal" true
    (List.exists (fun r -> r.Report.rule = Report.Lost_steal) (Report.reports ()));
  Report.clear ()

let test_double_enqueue_detected () =
  let k, init = Helpers.boot () in
  let pm = k.Kernel.pm in
  Proc_mgr.set_sched_cpus pm 2;
  let t2 = new_thread k init in
  checkb "t2 on queue 0" true (Sched_queue.mem (Proc_mgr.queue pm ~cpu:0) t2);
  Report.clear ();
  checki "clean before the plant" 0 (Atmo_san.Sched_lint.lint k);
  (* each deque stays individually well-formed — only the global
     census sees the thread owning two queue slots *)
  Sched_queue.push_back (Proc_mgr.queue pm ~cpu:1) t2;
  checkb "queue 0 still wf" true (Sched_queue.wf (Proc_mgr.queue pm ~cpu:0) = Ok ());
  checkb "queue 1 still wf" true (Sched_queue.wf (Proc_mgr.queue pm ~cpu:1) = Ok ());
  checkb "census fires" true (Atmo_san.Sched_lint.lint k > 0);
  checkb "as Queue_corrupt" true
    (List.exists (fun r -> r.Report.rule = Report.Queue_corrupt) (Report.reports ()));
  Report.clear ()

let test_topology_resize_requeues () =
  let k, init = Helpers.boot () in
  let pm = k.Kernel.pm in
  Proc_mgr.set_sched_cpus pm 4;
  let ts = List.init 6 (fun _ -> new_thread k init) in
  List.iteri
    (fun i t ->
      Proc_mgr.set_home pm ~thread:t ~cpu:(i mod 4))
    ts;
  Proc_mgr.set_sched_cpus pm 4;
  (* shrinking must strand nobody: every thread still reachable *)
  Proc_mgr.set_sched_cpus pm 1;
  List.iter
    (fun t -> checkb "requeued after shrink" true (Proc_mgr.queued_anywhere pm ~thread:t))
    ts;
  Report.clear ();
  checki "lint clean after resize" 0 (Atmo_san.Sched_lint.lint k)

(* ------------------------------------------------------------------ *)
(* Lock hierarchy                                                      *)

let test_lock_hierarchy () =
  Report.clear ();
  Lockcheck.arm ();
  Fun.protect ~finally:Lockcheck.disarm (fun () ->
      (* in-order footprint: cpu-queue < endpoint < map-writer *)
      Lockcheck.with_classes ~site:"test.ok" ~cpu:0
        [ Lockcheck.Cpu_queue 0; Lockcheck.Endpoint_shard 2; Lockcheck.Map_writer ]
        (fun () -> ());
      checki "ordered acquisition is clean" 0 (Report.count ());
      (* inversion: queue after shard *)
      Lockcheck.with_classes ~site:"test.bad" ~cpu:0
        [ Lockcheck.Endpoint_shard 2; Lockcheck.Cpu_queue 0 ]
        (fun () -> ());
      checkb "inversion recorded" true
        (List.exists (fun r -> r.Report.rule = Report.Lock_order) (Report.reports ()));
      Report.clear ();
      (* equal rank never nests either: shard-to-shard deadlocks *)
      Lockcheck.with_classes ~site:"test.eq" ~cpu:0
        [ Lockcheck.Endpoint_shard 1; Lockcheck.Endpoint_shard 2 ]
        (fun () -> ());
      checkb "equal-rank nesting recorded" true
        (List.exists (fun r -> r.Report.rule = Report.Lock_order) (Report.reports ()));
      Report.clear ())

(* ------------------------------------------------------------------ *)
(* The on/off oracle: regimes differ in cycles only                    *)

let ipc_world () =
  let k, init = Helpers.boot () in
  let pm = k.Kernel.pm in
  let receiver = new_thread k init in
  let sender = new_thread k init in
  let ep =
    match Kernel.step k ~thread:init (Syscall.New_endpoint { slot = 0 }) with
    | Syscall.Rptr e -> e
    | r -> Alcotest.failf "new_endpoint -> %a" Syscall.pp_ret r
  in
  List.iter
    (fun thread -> Proc_mgr.share_endpoint pm ~thread ~slot:0 ~endpoint:ep)
    [ receiver; sender ];
  ( k,
    [
      { Smp.thread = receiver; think_cycles = 400;
        call_of = (fun _ -> Syscall.Recv { slot = 0 }) };
      { Smp.thread = sender; think_cycles = 400;
        call_of = (fun i -> Syscall.Send { slot = 0; msg = Message.scalars_only [ i ] }) };
    ] )

let oracle_run regime =
  let k, programs = ipc_world () in
  let digest = Buffer.create 256 in
  let observe ~cpu ~iter ~thread ret =
    Buffer.add_string digest
      (Format.asprintf "%d/%d/%x:%a;" cpu iter thread Syscall.pp_ret ret);
    List.iter
      (fun c ->
        Buffer.add_string digest
          (match c with Some t -> Printf.sprintf "%x," t | None -> "-,"))
      (Proc_mgr.currents_list k.Kernel.pm)
  in
  match Smp.run ~regime ~steal_seed:7 ~observe k ~cost ~cpus:2 ~programs ~iterations:25 with
  | Error msg -> Alcotest.failf "smp run: %s" msg
  | Ok stats -> (stats, Buffer.contents digest, Atmo_core.Abstraction.abstract k)

let test_oracle_identity () =
  let sb, db, ab = oracle_run Smp.Big_lock in
  let sf, df, af = oracle_run Smp.Fine_grained in
  checkb "returns and scheduling decisions bit-identical" true (db = df);
  checkb "abstract states equal" true (Atmo_spec.Abstract_state.equal ab af);
  checkb "placements equal" true (sb.Smp.placement = sf.Smp.placement);
  checki "same syscall count" sb.Smp.syscalls_executed sf.Smp.syscalls_executed;
  (* the regimes must actually differ where they are allowed to:
     the fine-grained kv pair waits less than the serialized big lock *)
  checkb "fine-grained waits no more than the big lock" true
    (sf.Smp.lock_wait_cycles <= sb.Smp.lock_wait_cycles)

let test_per_cpu_wait_split () =
  let s, _, _ = oracle_run Smp.Fine_grained in
  checki "split covers every cpu" s.Smp.cpus (Array.length s.Smp.lock_wait_by_cpu);
  checki "split sums to the total" s.Smp.lock_wait_cycles
    (Array.fold_left ( + ) 0 s.Smp.lock_wait_by_cpu)

let test_metrics_dump_deterministic () =
  (* the per-CPU counter family is pre-created in CPU order at run
     start: two runs dump the same names in the same order *)
  let dump () =
    Atmo_obs.Metrics.reset ();
    let _ = oracle_run Smp.Fine_grained in
    List.filter
      (fun l ->
        String.length l >= 12 && String.sub l 0 12 = "counter smp/")
      (String.split_on_char '\n' (Atmo_obs.Metrics.dump ()))
  in
  let a = dump () and b = dump () in
  checkb "same smp/ counter lines, same order" true (a = b);
  let has prefix =
    List.exists
      (fun l -> String.length l >= String.length prefix
                && String.sub l 0 (String.length prefix) = prefix)
      a
  in
  checkb "per-cpu family present" true
    (has "counter smp/lock_wait/0 " && has "counter smp/lock_wait/1 ")

let () =
  Alcotest.run "smp"
    [
      ( "queues",
        [
          Alcotest.test_case "steal from empty" `Quick test_steal_from_empty;
          Alcotest.test_case "self-steal guard" `Quick test_self_steal_guard;
          Alcotest.test_case "steal migrates home" `Quick test_steal_migrates_home;
          Alcotest.test_case "terminate racing steal" `Quick test_terminate_racing_steal;
          Alcotest.test_case "lost steal detected" `Quick test_lost_steal_detected;
          Alcotest.test_case "double enqueue detected" `Quick test_double_enqueue_detected;
          Alcotest.test_case "topology resize requeues" `Quick test_topology_resize_requeues;
        ] );
      ( "locks",
        [ Alcotest.test_case "hierarchy enforced" `Quick test_lock_hierarchy ] );
      ( "oracle",
        [
          Alcotest.test_case "big vs fine identity" `Quick test_oracle_identity;
          Alcotest.test_case "per-cpu wait split" `Quick test_per_cpu_wait_split;
          Alcotest.test_case "metrics dump deterministic" `Quick
            test_metrics_dump_deterministic;
        ] );
    ]
