(* Output checks.  Each returns [Error] naming the first wrong element;
   the benchmark reports [correct = false] and exits non-zero on any. *)

module Kv_demo = Atmo_workloads.Kv_demo
module Kv_store = Atmo_net.Kv_store
module Runner = Atmo_verif.Runner
module Obligation = Atmo_verif.Obligation

let ( let* ) = Result.bind

let rec first_error = function
  | [] -> Ok ()
  | (true, _) :: rest -> first_error rest
  | (false, msg) :: _ -> Error (Lazy.force msg)

(* The kv demo preloads key [k%05d] (i mod 32) with the decimal number of
   the block backing it, 1 + (i mod 32); request [i] GETs key i mod 32. *)
let kv_keys = 32
let kv_value i = string_of_int (1 + (i mod kv_keys))

let kv (r : Kv_demo.result) =
  let* () =
    first_error
      [
        (r.Kv_demo.hits = r.Kv_demo.requests,
         lazy (Printf.sprintf "kv: %d of %d GETs hit" r.Kv_demo.hits r.Kv_demo.requests));
        (List.length r.Kv_demo.replies = r.Kv_demo.requests,
         lazy (Printf.sprintf "kv: %d replies for %d requests" (List.length r.Kv_demo.replies)
                 r.Kv_demo.requests));
        (List.length r.Kv_demo.latencies = r.Kv_demo.requests,
         lazy "kv: latency count differs from request count");
      ]
  in
  first_error
    (List.mapi
       (fun i reply ->
         ( (match Kv_store.decode_reply reply with
            | Some (Kv_store.Value v) -> Bytes.to_string v = kv_value i
            | _ -> false),
           lazy
             (Printf.sprintf "kv: reply %d is %S, expected the value %S" i
                (Bytes.to_string reply) (kv_value i)) ))
       r.Kv_demo.replies)

(* The monitored run must be the untraced run, bit for bit, on the
   simulated clock, lose no event, and meet its SLO. *)
let kv_monitored ~(kv : Kv_demo.result) ~(mon : Kv_demo.result) ~dropped ~compliant =
  first_error
    [
      (mon.Kv_demo.end_cycles = kv.Kv_demo.end_cycles,
       lazy
         (Printf.sprintf "kv-monitored: end clock %d cycles, kv %d" mon.Kv_demo.end_cycles
            kv.Kv_demo.end_cycles));
      (mon.Kv_demo.latencies = kv.Kv_demo.latencies,
       lazy "kv-monitored: per-request latencies differ from kv");
      (List.equal Bytes.equal mon.Kv_demo.replies kv.Kv_demo.replies,
       lazy "kv-monitored: replies differ from kv");
      (dropped = 0, lazy (Printf.sprintf "kv-monitored: %d trace event(s) dropped" dropped));
      (compliant, lazy "kv-monitored: the SLO monitor reports a violation");
    ]

(* Every suite obligation exactly once and discharged ok.  Verdicts are
   matched by name: the report's order is measured, not checked (see
   [order_mismatch]). *)
let verify ~names (report : Runner.report) =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (r : Obligation.result) ->
      Hashtbl.replace seen r.Obligation.name
        (r :: Option.value ~default:[] (Hashtbl.find_opt seen r.Obligation.name)))
    report.Runner.results;
  let* () =
    first_error
      [
        (List.length report.Runner.results = List.length names,
         lazy
           (Printf.sprintf "verify: %d verdicts for %d obligations"
              (List.length report.Runner.results) (List.length names)));
      ]
  in
  first_error
    (List.map
       (fun n ->
         match Hashtbl.find_opt seen n with
         | Some [ r ] ->
           ( r.Obligation.ok,
             lazy
               (Printf.sprintf "verify: %s failed: %s" n
                  (Option.value ~default:"" r.Obligation.detail)) )
         | Some l -> (false, lazy (Printf.sprintf "verify: %s appears %d times" n (List.length l)))
         | None -> (false, lazy (Printf.sprintf "verify: %s missing from the report" n)))
       names)

(* Positions where the report's obligation differs from the suite's,
   compared in place, without sorting. *)
let order_mismatch ~names (report : Runner.report) =
  let rec go acc names results =
    match (names, results) with
    | n :: ns, (r : Obligation.result) :: rs ->
      go (if String.equal n r.Obligation.name then acc else acc + 1) ns rs
    | rest, [] -> acc + List.length rest
    | [], rest -> acc + List.length rest
  in
  go 0 names report.Runner.results
