type result = {
  name : string;
  ok : bool;
  detail : string option;
  elapsed_s : float;
  cached : bool;
}

type t = {
  name : string;
  group : string;
  reads : string list option;
  run : unit -> (unit, string) Stdlib.result;
}

let make ?reads ~name ~group run = { name; group; reads; run }

(* Host seconds on bechamel's monotonic clock (clock_gettime
   CLOCK_MONOTONIC through a noalloc stub): elapsed times can never go
   negative under a wall-clock step, and discharge domains share no
   state to race on. *)
let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let discharge t =
  let t0 = now () in
  let outcome =
    try t.run ()
    with exn ->
      let bt = String.trim (Printexc.get_backtrace ()) in
      let msg = Printexc.to_string exn in
      Error (if bt = "" then msg else msg ^ "\n" ^ bt)
  in
  let elapsed_s = now () -. t0 in
  match outcome with
  | Ok () -> { name = t.name; ok = true; detail = None; elapsed_s; cached = false }
  | Error d -> { name = t.name; ok = false; detail = Some d; elapsed_s; cached = false }

let pp_result ppf (r : result) =
  Format.fprintf ppf "%-40s %s %8.3f ms%s%s" r.name
    (if r.ok then "ok  " else "FAIL")
    (r.elapsed_s *. 1000.)
    (if r.cached then "  [cached]" else "")
    (match r.detail with
    | None -> ""
    | Some d ->
      (* one-line report: first line of the detail (the violated
         clause); a captured backtrace stays in [detail] for verbose
         printers *)
      let first =
        match String.index_opt d '\n' with
        | None -> d
        | Some i -> String.sub d 0 i ^ " ..."
      in
      "  (" ^ first ^ ")")
