(* Network and application substrate: packets, FNV, Maglev, kv-store,
   HTTP, httpd. *)

open Atmo_net

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Fnv                                                                 *)

let test_fnv_vectors () =
  (* canonical FNV-1a 64 test vectors *)
  Alcotest.(check int64) "empty" 0xcbf29ce484222325L (Fnv.hash_string "");
  Alcotest.(check int64) "'a'" 0xaf63dc4c8601ec8cL (Fnv.hash_string "a");
  Alcotest.(check int64) "'foobar'" 0x85944171f73967e8L (Fnv.hash_string "foobar")

let test_fnv_bucket_range () =
  for i = 0 to 99 do
    let b = Fnv.to_bucket (Fnv.hash_string (string_of_int i)) ~buckets:7 in
    checkb "bucket in range" true (b >= 0 && b < 7)
  done

let test_fnv_sub () =
  let b = Bytes.of_string "xxfoobaryy" in
  Alcotest.(check int64) "sub equals direct" (Fnv.hash_string "foobar")
    (Fnv.hash64_sub b ~pos:2 ~len:6)

(* ------------------------------------------------------------------ *)
(* Packet                                                              *)

let flow = Packet.flow_of_ints ~src:0x0a000001 ~dst:0x0a000002 ~sport:1234 ~dport:80

let test_packet_round_trip () =
  let payload = Bytes.of_string "hello atmosphere" in
  let frame = Packet.build flow ~payload in
  checkb "min frame" true (Bytes.length frame >= Packet.min_frame);
  (match Packet.parse_flow frame with
   | Some f ->
     checki "sport" 1234 f.Packet.src_port;
     checki "dport" 80 f.Packet.dst_port
   | None -> Alcotest.fail "parse failed");
  (match Packet.payload frame with
   | Some p -> checks "payload" "hello atmosphere" (Bytes.to_string p)
   | None -> Alcotest.fail "payload failed")

let test_packet_rejects_garbage () =
  checkb "short frame" true (Packet.parse_flow (Bytes.make 10 'x') = None);
  checkb "non-ip" true (Packet.parse_flow (Bytes.make 64 '\255') = None);
  checkb "hash of garbage" true (Packet.five_tuple_hash (Bytes.make 64 '\000') = None)

let test_five_tuple_stable () =
  let f1 = Packet.build flow ~payload:(Bytes.of_string "a") in
  let f2 = Packet.build flow ~payload:(Bytes.of_string "completely different") in
  checkb "same flow same hash" true (Packet.five_tuple_hash f1 = Packet.five_tuple_hash f2);
  let other = Packet.flow_of_ints ~src:0x0a000001 ~dst:0x0a000002 ~sport:1235 ~dport:80 in
  let f3 = Packet.build other ~payload:(Bytes.of_string "a") in
  checkb "different flow different hash" true
    (Packet.five_tuple_hash f1 <> Packet.five_tuple_hash f3)

(* ------------------------------------------------------------------ *)
(* Maglev                                                              *)

let backends = List.init 8 (fun i -> Printf.sprintf "b%d" i)

let test_maglev_full_table () =
  let m = Maglev.create ~backends ~table_size:65537 in
  let counts = Maglev.slot_counts m in
  checki "all backends present" 8 (List.length counts);
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 counts in
  checki "every slot assigned" 65537 total

let test_maglev_balance () =
  let m = Maglev.create ~backends ~table_size:65537 in
  let counts = List.map snd (Maglev.slot_counts m) in
  let mn = List.fold_left min max_int counts and mx = List.fold_left max 0 counts in
  (* Maglev's guarantee: within a few percent of even *)
  checkb "balanced within 2%" true
    (float_of_int (mx - mn) /. (65537. /. 8.) < 0.02)

let test_maglev_minimal_disruption () =
  let m1 = Maglev.create ~backends ~table_size:65537 in
  let m2 =
    Maglev.create ~backends:(List.filter (fun b -> b <> "b3") backends) ~table_size:65537
  in
  let d = Maglev.disruption m1 m2 in
  (* removing 1 of 8 backends must move its own 1/8 plus a small extra *)
  checkb "disruption > 1/8" true (d >= 1. /. 8. -. 0.01);
  checkb "disruption < 1/4" true (d < 0.25)

let test_maglev_lookup_deterministic () =
  let m = Maglev.create ~backends ~table_size:65537 in
  let h = Fnv.hash_string "some flow" in
  checks "same result" (Maglev.lookup m h) (Maglev.lookup m h)

let test_maglev_bad_args () =
  Alcotest.check_raises "no backends" (Invalid_argument "Maglev.create: no backends")
    (fun () -> ignore (Maglev.create ~backends:[] ~table_size:7))

(* ------------------------------------------------------------------ *)
(* Kv_store                                                            *)

let test_kv_basic () =
  let t = Kv_store.create ~entries:101 in
  checkb "set" true (Kv_store.set t ~key:(Bytes.of_string "k1") ~value:(Bytes.of_string "v1"));
  (match Kv_store.get t ~key:(Bytes.of_string "k1") with
   | Some v -> checks "get" "v1" (Bytes.to_string v)
   | None -> Alcotest.fail "missing");
  checkb "overwrite" true
    (Kv_store.set t ~key:(Bytes.of_string "k1") ~value:(Bytes.of_string "v2"));
  checki "length stable on overwrite" 1 (Kv_store.length t);
  checkb "delete" true (Kv_store.delete t ~key:(Bytes.of_string "k1"));
  checkb "gone" true (Kv_store.get t ~key:(Bytes.of_string "k1") = None);
  checkb "delete absent" false (Kv_store.delete t ~key:(Bytes.of_string "nope"))

let test_kv_full_table () =
  let t = Kv_store.create ~entries:4 in
  for i = 0 to 3 do
    checkb "fits" true
      (Kv_store.set t ~key:(Bytes.of_string (string_of_int i)) ~value:Bytes.empty)
  done;
  checkb "full" false (Kv_store.set t ~key:(Bytes.of_string "overflow") ~value:Bytes.empty);
  (* deleting frees a slot for reuse (tombstone) *)
  checkb "del" true (Kv_store.delete t ~key:(Bytes.of_string "2"));
  checkb "reuse tombstone" true
    (Kv_store.set t ~key:(Bytes.of_string "new") ~value:Bytes.empty)

let test_kv_probe_chains_survive_delete () =
  (* force collisions in a tiny table, delete a middle element, and make
     sure later chain members remain reachable *)
  let t = Kv_store.create ~entries:8 in
  let keys = List.init 6 (fun i -> Bytes.of_string (Printf.sprintf "key%d" i)) in
  List.iter (fun k -> ignore (Kv_store.set t ~key:k ~value:k)) keys;
  ignore (Kv_store.delete t ~key:(List.nth keys 2));
  List.iteri
    (fun i k ->
      if i <> 2 then checkb "still reachable" true (Kv_store.get t ~key:k <> None))
    keys

let test_kv_wire_protocol () =
  let t = Kv_store.create ~entries:101 in
  let reply r = Kv_store.decode_reply r in
  checkb "set over wire" true
    (reply (Kv_store.serve t (Kv_store.encode_request
                                (Kv_store.Set (Bytes.of_string "k", Bytes.of_string "v"))))
     = Some Kv_store.Stored);
  (match reply (Kv_store.serve t (Kv_store.encode_request (Kv_store.Get (Bytes.of_string "k")))) with
   | Some (Kv_store.Value v) -> checks "wire get" "v" (Bytes.to_string v)
   | _ -> Alcotest.fail "wire get failed");
  checkb "get missing" true
    (reply (Kv_store.serve t (Kv_store.encode_request (Kv_store.Get (Bytes.of_string "zz"))))
     = Some Kv_store.Not_found);
  checkb "garbage request" true
    (reply (Kv_store.serve t (Bytes.of_string "xx")) = Some Kv_store.Error)

(* ------------------------------------------------------------------ *)
(* Http / Httpd                                                        *)

let test_http_parse () =
  match Http.parse_request "GET /index.html HTTP/1.1\r\nHost: atmo\r\nX-Y: z\r\n\r\n" with
  | Ok r ->
    checkb "method" true (r.Http.meth = Http.GET);
    checks "path" "/index.html" r.Http.path;
    checks "host" "atmo" (Option.get (Http.header r "Host"));
    checkb "keep alive (1.1 default)" true (Http.keep_alive r)
  | Error e -> Alcotest.failf "parse: %s" e

let test_http_parse_errors () =
  checkb "empty" true (Result.is_error (Http.parse_request ""));
  checkb "bad request line" true (Result.is_error (Http.parse_request "GARBAGE\r\n\r\n"));
  checkb "bad version" true (Result.is_error (Http.parse_request "GET / HTTP/0.9\r\n\r\n"));
  checkb "path must be absolute" true
    (Result.is_error (Http.parse_request "GET index HTTP/1.1\r\n\r\n"))

let test_http_keep_alive_10 () =
  (match Http.parse_request "GET / HTTP/1.0\r\n\r\n" with
   | Ok r -> checkb "1.0 default close" false (Http.keep_alive r)
   | Error e -> Alcotest.failf "parse: %s" e);
  match Http.parse_request "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n" with
  | Ok r -> checkb "1.0 explicit keep-alive" true (Http.keep_alive r)
  | Error e -> Alcotest.failf "parse: %s" e

let test_http_response () =
  let r = Http.response ~status:200 ~body:"hi" () in
  checkb "status line" true
    (String.length r > 15 && String.sub r 0 15 = "HTTP/1.1 200 OK");
  checkb "content length" true (Helpers.contains r "Content-Length: 2");
  checkb "body at end" true (Helpers.contains r "\r\n\r\nhi")

let test_httpd_routes () =
  let s = Httpd.create ~routes:[ ("/", "home"); ("/a", "page a") ] in
  let resp, keep = Httpd.handle s "GET / HTTP/1.1\r\nHost: x\r\n\r\n" in
  checkb "200" true (String.length resp > 12 && String.sub resp 9 3 = "200");
  checkb "keep alive" true keep;
  let resp404, _ = Httpd.handle s "GET /missing HTTP/1.1\r\n\r\n" in
  checkb "404" true (String.sub resp404 9 3 = "404");
  let resp405, _ = Httpd.handle s "POST / HTTP/1.1\r\n\r\n" in
  checkb "405" true (String.sub resp405 9 3 = "405");
  let resp400, _ = Httpd.handle s "garbage" in
  checkb "400" true (String.sub resp400 9 3 = "400")

let test_httpd_round_robin () =
  let s = Httpd.create ~routes:[ ("/", "x") ] in
  let conns = List.init 5 (fun _ -> Httpd.open_conn s) in
  List.iter
    (fun c ->
      Httpd.submit c "GET / HTTP/1.1\r\n\r\n";
      Httpd.submit c "GET / HTTP/1.1\r\n\r\n")
    conns;
  checki "first sweep serves one per conn" 5 (Httpd.poll_round s conns);
  checki "second sweep drains the rest" 5 (Httpd.poll_round s conns);
  checki "nothing left" 0 (Httpd.poll_round s conns);
  checki "each conn has both responses" 2 (List.length (Httpd.responses (List.hd conns)))

(* ------------------------------------------------------------------ *)
(* Workload generation                                                 *)

let test_workload_uniform_covers () =
  let w = Workload.create ~seed:1 ~keys:10 Workload.Uniform in
  let seen = Array.make 10 false in
  for _ = 1 to 2000 do
    seen.(Workload.next_key w) <- true
  done;
  checkb "all keys drawn" true (Array.for_all Fun.id seen)

let test_workload_zipf_skewed () =
  let w = Workload.create ~seed:1 ~keys:10_000 (Workload.Zipfian 0.99) in
  (* with theta 0.99, the hottest 1% of keys should absorb well over a
     third of the draws; uniform would give 1% *)
  let hot = Workload.hottest_fraction w ~sample:20_000 ~top:100 in
  checkb "zipf skew" true (hot > 0.3);
  let u = Workload.create ~seed:1 ~keys:10_000 Workload.Uniform in
  let uhot = Workload.hottest_fraction u ~sample:20_000 ~top:100 in
  checkb "uniform not skewed" true (uhot < 0.05)

let test_workload_read_ratio () =
  let w = Workload.create ~seed:7 ~keys:100 Workload.Uniform in
  let ops = Workload.ops w ~read_ratio:0.9 ~count:5000 in
  let reads = List.length (List.filter (function Workload.Get _ -> true | _ -> false) ops) in
  let ratio = float_of_int reads /. 5000. in
  checkb "~90% reads" true (ratio > 0.85 && ratio < 0.95)

let test_workload_drives_store () =
  (* a zipfian GET-heavy mix against the real table behaves like a
     cache: popular keys hit once written *)
  let store = Kv_store.create ~entries:2053 in
  let w = Workload.create ~seed:3 ~keys:1000 (Workload.Zipfian 0.9) in
  let hits = ref 0 and misses = ref 0 in
  List.iter
    (fun op ->
      match op with
      | Workload.Set k ->
        ignore (Kv_store.set store ~key:(Workload.key_bytes k ~size:16) ~value:(Bytes.make 16 'v'))
      | Workload.Get k ->
        (match Kv_store.get store ~key:(Workload.key_bytes k ~size:16) with
         | Some _ -> incr hits
         | None -> incr misses))
    (Workload.ops w ~read_ratio:0.5 ~count:10_000);
  checkb "plenty of hits" true (!hits > 2000);
  checkb "ran" true (!hits + !misses > 4000)

let test_workload_key_bytes () =
  checki "size respected" 16 (Bytes.length (Workload.key_bytes 42 ~size:16));
  checkb "distinct keys" true
    (not (Bytes.equal (Workload.key_bytes 1 ~size:8) (Workload.key_bytes 2 ~size:8)))

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)

let prop_kv_model =
  QCheck.Test.make ~name:"kv-store agrees with an association-list model" ~count:100
    QCheck.(list (pair (int_bound 2) (int_bound 20)))
    (fun ops ->
      let t = Kv_store.create ~entries:64 in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (op, kn) ->
          let key = Bytes.of_string (Printf.sprintf "k%d" kn) in
          match op with
          | 0 ->
            let v = Bytes.of_string (Printf.sprintf "v%d" kn) in
            if Kv_store.set t ~key ~value:v then begin
              Hashtbl.replace model kn v;
              true
            end
            else true (* full table: model untouched *)
          | 1 ->
            let got = Kv_store.get t ~key in
            got = Hashtbl.find_opt model kn
          | _ ->
            let deleted = Kv_store.delete t ~key in
            let existed = Hashtbl.mem model kn in
            Hashtbl.remove model kn;
            deleted = existed)
        ops)

let prop_packet_round_trip =
  QCheck.Test.make ~name:"packet build/parse round-trips" ~count:100
    QCheck.(quad small_nat small_nat (int_bound 0xffff) (string_of_size (Gen.int_bound 40)))
    (fun (src, dst, port, payload) ->
      let flow = Packet.flow_of_ints ~src ~dst ~sport:port ~dport:(port lxor 1) in
      let frame = Packet.build flow ~payload:(Bytes.of_string payload) in
      match (Packet.parse_flow frame, Packet.payload frame) with
      | Some f, Some p ->
        f.Packet.src_port = port land 0xffff && Bytes.to_string p = payload
      | _ -> false)

let prop_maglev_total =
  QCheck.Test.make ~name:"maglev lookup always lands on a live backend" ~count:100
    QCheck.(pair (int_range 1 16) int64)
    (fun (n, h) ->
      let backends = List.init n (fun i -> Printf.sprintf "s%d" i) in
      let m = Maglev.create ~backends ~table_size:251 in
      List.mem (Maglev.lookup m h) backends)

let () =
  Alcotest.run "net"
    [
      ( "fnv",
        [
          Alcotest.test_case "vectors" `Quick test_fnv_vectors;
          Alcotest.test_case "bucket range" `Quick test_fnv_bucket_range;
          Alcotest.test_case "sub hashing" `Quick test_fnv_sub;
        ] );
      ( "packet",
        [
          Alcotest.test_case "round trip" `Quick test_packet_round_trip;
          Alcotest.test_case "rejects garbage" `Quick test_packet_rejects_garbage;
          Alcotest.test_case "five tuple stable" `Quick test_five_tuple_stable;
        ] );
      ( "maglev",
        [
          Alcotest.test_case "full table" `Quick test_maglev_full_table;
          Alcotest.test_case "balance" `Quick test_maglev_balance;
          Alcotest.test_case "minimal disruption" `Quick test_maglev_minimal_disruption;
          Alcotest.test_case "deterministic" `Quick test_maglev_lookup_deterministic;
          Alcotest.test_case "bad args" `Quick test_maglev_bad_args;
        ] );
      ( "kv_store",
        [
          Alcotest.test_case "basic ops" `Quick test_kv_basic;
          Alcotest.test_case "full table" `Quick test_kv_full_table;
          Alcotest.test_case "probe chains" `Quick test_kv_probe_chains_survive_delete;
          Alcotest.test_case "wire protocol" `Quick test_kv_wire_protocol;
        ] );
      ( "http",
        [
          Alcotest.test_case "parse" `Quick test_http_parse;
          Alcotest.test_case "parse errors" `Quick test_http_parse_errors;
          Alcotest.test_case "keep alive 1.0" `Quick test_http_keep_alive_10;
          Alcotest.test_case "response" `Quick test_http_response;
          Alcotest.test_case "routes" `Quick test_httpd_routes;
          Alcotest.test_case "round robin" `Quick test_httpd_round_robin;
        ] );
      ( "workload",
        [
          Alcotest.test_case "uniform covers" `Quick test_workload_uniform_covers;
          Alcotest.test_case "zipf skewed" `Quick test_workload_zipf_skewed;
          Alcotest.test_case "read ratio" `Quick test_workload_read_ratio;
          Alcotest.test_case "drives store" `Quick test_workload_drives_store;
          Alcotest.test_case "key bytes" `Quick test_workload_key_bytes;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_kv_model; prop_packet_round_trip; prop_maglev_total ] );
    ]
