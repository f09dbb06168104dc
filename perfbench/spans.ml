(* Bench-side spans for the traced run: a span around each public call
   the benchmark makes into the program, with its parent, kept in
   memory and written out when the run ends.  Owned by the main domain;
   work timed on other domains is filed afterwards with [add].

   Off (the untraced runs), [wrap] costs one bool load. *)

let enabled = ref false

type agg = { mutable n : int; mutable total : int; mutable self : int }

let aggs : (string, agg) Hashtbl.t = Hashtbl.create 32

(* The first [cap] spans are kept for the Chrome dump; every span feeds
   the per-name aggregates. *)
let cap = 1 lsl 16
let k_name = Array.make cap ""
let k_t0 = Array.make cap 0
let k_t1 = Array.make cap 0
let k_parent = Array.make cap (-1)
let kept = ref 0
let next_id = ref 0
let max_depth = 64
let open_id = Array.make max_depth (-1)
let open_child = Array.make max_depth 0
let depth = ref 0

let record ~id ~name ~t0 ~t1 ~parent ~child =
  let a =
    match Hashtbl.find_opt aggs name with
    | Some a -> a
    | None ->
      let a = { n = 0; total = 0; self = 0 } in
      Hashtbl.add aggs name a;
      a
  in
  let dur = t1 - t0 in
  a.n <- a.n + 1;
  a.total <- a.total + dur;
  a.self <- a.self + max 0 (dur - child);
  if id < cap then begin
    k_name.(id) <- name;
    k_t0.(id) <- t0;
    k_t1.(id) <- t1;
    k_parent.(id) <- parent;
    kept := max !kept (id + 1)
  end

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let parent () = if !depth > 0 then open_id.(!depth - 1) else -1

let charge_parent dur = if !depth > 0 then open_child.(!depth - 1) <- open_child.(!depth - 1) + dur

let wrap name f =
  if not !enabled || !depth >= max_depth then f ()
  else begin
    let d = !depth in
    let id = fresh_id () in
    let parent = parent () in
    open_id.(d) <- id;
    open_child.(d) <- 0;
    depth := d + 1;
    let t0 = Bclock.now_ns () in
    let finish () =
      let t1 = Bclock.now_ns () in
      depth := d;
      charge_parent (t1 - t0);
      record ~id ~name ~t0 ~t1 ~parent ~child:open_child.(d)
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

(* A span timed elsewhere (e.g. on a worker domain), filed as a child of
   the innermost open span. *)
let add ~name ~t0 ~t1 =
  if !enabled then begin
    charge_parent (t1 - t0);
    record ~id:(fresh_id ()) ~name ~t0 ~t1 ~parent:(parent ()) ~child:0
  end

let table () =
  Hashtbl.fold (fun name a acc -> (name, a) :: acc) aggs []
  |> List.sort (fun (n1, a) (n2, b) ->
         match Int.compare b.self a.self with 0 -> String.compare n1 n2 | c -> c)

let pp_table ppf () =
  Format.fprintf ppf "%-34s %9s %12s %12s@." "SPAN" "COUNT" "TOTAL ms" "SELF ms";
  List.iter
    (fun (name, a) ->
      Format.fprintf ppf "%-34s %9d %12.3f %12.3f@." name a.n
        (float_of_int a.total /. 1e6) (float_of_int a.self /. 1e6))
    (table ())

(* Chrome trace-event JSON of the kept spans (complete "X" events, µs). *)
let write_chrome file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[";
      let base = if !kept > 0 then k_t0.(0) else 0 in
      for i = 0 to !kept - 1 do
        if i > 0 then output_char oc ',';
        Printf.fprintf oc
          "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
           \"args\":{\"id\":%d,\"parent\":%d}}"
          k_name.(i)
          (float_of_int (k_t0.(i) - base) /. 1e3)
          (float_of_int (k_t1.(i) - k_t0.(i)) /. 1e3)
          i k_parent.(i)
      done;
      output_string oc "\n]}\n")
