(* Tests of the benchmark itself: the vm-churn generator is a function
   of its seed, every output check rejects a tampered result, and the
   clock is monotonic with sub-microsecond resolution. *)

open Perfbench
module Syscall = Atmo_spec.Syscall
module Errno = Atmo_util.Errno
module Kv_demo = Atmo_workloads.Kv_demo
module Kv_store = Atmo_net.Kv_store
module Obligation = Atmo_verif.Obligation
module Runner = Atmo_verif.Runner

let is_ok = function Ok () -> true | Error _ -> false
let rejects what r = Alcotest.(check bool) what false (is_ok r)
let accepts what r = Alcotest.(check bool) what true (is_ok r)

(* The first [n] calls a fresh vm-churn world makes under [seed]. *)
let calls ~seed n =
  match Churn.setup ~seed with
  | Error e -> Alcotest.fail e
  | Ok (k, g) ->
    List.init n (fun _ ->
        let op = Churn.next g in
        (match Churn.apply g k op with Ok _ -> () | Error e -> Alcotest.fail e);
        Fmt.str "%a" Syscall.pp op.Churn.call)

let test_seed_determines_calls () =
  let a = calls ~seed:7 400 and b = calls ~seed:7 400 and c = calls ~seed:8 400 in
  Alcotest.(check (list string)) "same seed, same calls" a b;
  Alcotest.(check bool) "different seed, different calls" false (a = c)

let test_churn_check () =
  accepts "matching class" (Churn.check_ret (Churn.Mapped 2) (Syscall.Rmapped [ 4096; 8192 ]));
  rejects "unit for a mapping" (Churn.check_ret (Churn.Mapped 2) Syscall.Runit);
  rejects "wrong page count" (Churn.check_ret (Churn.Mapped 2) (Syscall.Rmapped [ 4096 ]));
  rejects "success for a rejected call"
    (Churn.check_ret (Churn.Err Errno.Einval) Syscall.Runit);
  rejects "wrong errno" (Churn.check_ret (Churn.Err Errno.Einval) (Syscall.Rerr Errno.Eexist))

let kv_result = lazy (Kvrun.run ~requests:16 Kvrun.Plain).Kvrun.result

let test_kv_check () =
  let r = Lazy.force kv_result in
  accepts "untampered" (Check.kv r);
  let altered =
    let wrong = Kv_store.encode_reply (Kv_store.Value (Bytes.of_string "999")) in
    List.mapi (fun i b -> if i = 3 then wrong else b) r.Kv_demo.replies
  in
  rejects "altered reply" (Check.kv { r with Kv_demo.replies = altered });
  rejects "a miss" (Check.kv { r with Kv_demo.hits = r.Kv_demo.hits - 1 })

let test_kv_monitored_check () =
  let kv = Lazy.force kv_result in
  let b = Kvrun.run ~requests:16 Kvrun.Monitored in
  let check ?(mon = b.Kvrun.result) ?(dropped = b.Kvrun.dropped)
      ?(compliant = b.Kvrun.compliant) () =
    Check.kv_monitored ~kv ~mon ~dropped ~compliant
  in
  accepts "monitored run reproduces kv" (check ());
  rejects "shifted clock"
    (check ~mon:{ kv with Kv_demo.end_cycles = kv.Kv_demo.end_cycles + 1 } ());
  let slower = List.mapi (fun i l -> if i = 5 then l + 1 else l) kv.Kv_demo.latencies in
  rejects "one slower request" (check ~mon:{ kv with Kv_demo.latencies = slower } ());
  rejects "dropped events" (check ~dropped:1 ());
  rejects "SLO violated" (check ~compliant:false ())

let test_verify_check () =
  let suite =
    List.map
      (fun n -> Obligation.make ~name:n ~group:"g" (fun () -> Ok ()))
      [ "a"; "b"; "c" ]
  in
  let names = List.map (fun (o : Obligation.t) -> o.Obligation.name) suite in
  let report = Runner.run suite in
  accepts "all ok" (Check.verify ~names report);
  let with_results results = { report with Runner.results } in
  let flip i =
    List.mapi (fun j (r : Obligation.result) ->
        if i = j then { r with Obligation.ok = false } else r)
  in
  rejects "flipped verdict" (Check.verify ~names (with_results (flip 1 report.Runner.results)));
  let results = report.Runner.results in
  rejects "duplicate"
    (Check.verify ~names (with_results (List.hd results :: List.tl (List.rev results))));
  rejects "missing" (Check.verify ~names (with_results (List.tl report.Runner.results)));
  let permuted = with_results (List.rev report.Runner.results) in
  accepts "order is measured, not checked" (Check.verify ~names permuted);
  Alcotest.(check int) "in-place mismatches" 2 (Check.order_mismatch ~names permuted);
  Alcotest.(check int) "suite order" 0 (Check.order_mismatch ~names report)

let test_clock () =
  Alcotest.(check bool) "never goes backwards" true (Bclock.monotone ());
  let res = Bclock.resolution_ns () in
  Alcotest.(check bool)
    (Printf.sprintf "resolves below 1 us (%d ns)" res)
    true
    (res > 0 && res < 1000)

let () =
  Alcotest.run "perfbench"
    [
      ( "churn",
        [
          Alcotest.test_case "seed determines calls" `Quick test_seed_determines_calls;
          Alcotest.test_case "wrong return class rejected" `Quick test_churn_check;
        ] );
      ( "checks",
        [
          Alcotest.test_case "kv rejects tampered replies" `Quick test_kv_check;
          Alcotest.test_case "kv-monitored rejects drift" `Quick test_kv_monitored_check;
          Alcotest.test_case "verify rejects tampered verdicts" `Quick test_verify_check;
        ] );
      ("clock", [ Alcotest.test_case "monotonic, sub-microsecond" `Quick test_clock ]);
    ]
