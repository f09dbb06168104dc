(* Monotonic counters and log2-bucketed latency histograms, with a
   process-global registry keyed by name.  Values are cycle-clock deltas
   (or any non-negative integer); bucket [i] covers [2^i, 2^(i+1)), with
   bucket 0 absorbing 0 and 1. *)

module Counter = struct
  type t = { name : string; mutable v : int }

  let make name = { name; v = 0 }
  let name t = t.name
  let incr ?(by = 1) t = if by > 0 then t.v <- t.v + by
  let value t = t.v
  let reset t = t.v <- 0
end

module Histogram = struct
  let bucket_count = 63

  type t = {
    name : string;
    counts : int array;
    mutable n : int;
    mutable sum : int;
    mutable vmin : int;
    mutable vmax : int;
  }

  let make name =
    { name; counts = Array.make bucket_count 0; n = 0; sum = 0; vmin = max_int; vmax = 0 }

  let name t = t.name

  let bucket_of v =
    if v <= 1 then 0
    else begin
      let b = ref 0 in
      let x = ref v in
      while !x > 1 do
        incr b;
        x := !x lsr 1
      done;
      min !b (bucket_count - 1)
    end

  let observe t v =
    let v = max 0 v in
    t.counts.(bucket_of v) <- t.counts.(bucket_of v) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum + v;
    if v < t.vmin then t.vmin <- v;
    if v > t.vmax then t.vmax <- v

  let count t = t.n
  let sum t = t.sum
  let mean t = if t.n = 0 then 0. else float_of_int t.sum /. float_of_int t.n
  let min_value t = if t.n = 0 then 0 else t.vmin
  let max_value t = t.vmax

  (* Upper edge of the bucket holding the q-th ranked sample of [n]
     (0 when empty).  Monotone in q by construction: cumulative counts
     are non-decreasing.  Shared with [Snapshot.quantile]. *)
  let bucket_quantile counts n q =
    if n <= 0 then 0
    else begin
      let q = Float.min 1. (Float.max 0. q) in
      let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
      let rec go i cum =
        if i >= bucket_count then max_int
        else begin
          let cum = cum + counts.(i) in
          if cum >= rank then if i >= 62 then max_int else (1 lsl (i + 1)) - 1
          else go (i + 1) cum
        end
      in
      go 0 0
    end

  (* The bucket walk, clamped to the observed extremes. *)
  let quantile t q =
    if t.n = 0 then 0 else max (min (bucket_quantile t.counts t.n q) t.vmax) (min_value t)

  let p50 t = quantile t 0.50
  let p90 t = quantile t 0.90
  let p99 t = quantile t 0.99

  let reset t =
    Array.fill t.counts 0 bucket_count 0;
    t.n <- 0;
    t.sum <- 0;
    t.vmin <- max_int;
    t.vmax <- 0

  let buckets t = Array.copy t.counts

  (* Accumulate [src] into [dst] bucket-by-bucket: per-CPU shards share
     the bucket edges, so merging loses no precision — every sample
     lands in the same bucket it was observed into. *)
  let merge ~into src =
    if into != src then begin
      for i = 0 to bucket_count - 1 do
        into.counts.(i) <- into.counts.(i) + src.counts.(i)
      done;
      into.n <- into.n + src.n;
      into.sum <- into.sum + src.sum;
      if src.n > 0 then begin
        if src.vmin < into.vmin then into.vmin <- src.vmin;
        if src.vmax > into.vmax then into.vmax <- src.vmax
      end
    end

  let pp_row ppf t =
    Format.fprintf ppf "%-26s %8d %12.1f %10d %10d %10d %10d" t.name t.n (mean t)
      (p50 t) (p90 t) (p99 t) (max_value t)
end

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

let counters : (string, Counter.t) Hashtbl.t = Hashtbl.create 32
let histograms : (string, Histogram.t) Hashtbl.t = Hashtbl.create 32

let counter name =
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
    let c = Counter.make name in
    Hashtbl.replace counters name c;
    c

let histogram name =
  match Hashtbl.find_opt histograms name with
  | Some h -> h
  | None ->
    let h = Histogram.make name in
    Hashtbl.replace histograms name h;
    h

let bump ?by name = Counter.incr ?by (counter name)
let observe name v = Histogram.observe (histogram name) v

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let all_counters () = sorted_bindings counters
let all_histograms () = sorted_bindings histograms

(* Zero values in place rather than dropping registrations: hot paths
   (the MMU, the TLB) hold counter handles obtained once at module
   initialisation, and those must keep feeding the registry across
   resets. *)
let reset () =
  Hashtbl.iter (fun _ c -> Counter.reset c) counters;
  Hashtbl.iter (fun _ h -> Histogram.reset h) histograms

(* Deterministic full-registry snapshot: both tables sorted by name,
   zero-valued entries included, so two dumps of identical registries
   compare equal regardless of hash-table insertion order. *)
let dump () =
  let b = Buffer.create 512 in
  List.iter
    (fun (name, c) -> Buffer.add_string b (Printf.sprintf "counter %s %d\n" name (Counter.value c)))
    (all_counters ());
  List.iter
    (fun (name, h) ->
      Buffer.add_string b
        (Printf.sprintf "histogram %s count=%d sum=%d min=%d p50=%d p99=%d max=%d\n" name
           (Histogram.count h) (Histogram.sum h) (Histogram.min_value h) (Histogram.p50 h)
           (Histogram.p99 h) (Histogram.max_value h)))
    (all_histograms ());
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Snapshots and deltas                                                *)

(* A snapshot is a pure, deterministic copy of the whole registry:
   both tables sorted by name, bucket arrays copied out.  Taking one
   is a single pass over the registry, which is what makes windowed
   rollups cheap — the per-window cost is one snapshot + one diff, not
   per-event work.  [diff] clamps negative deltas to zero so a
   [reset] landing between two snapshots degrades to an empty window
   instead of nonsense. *)
module Snapshot = struct
  type hist = { counts : int array; n : int; sum : int }
  type t = { counters : (string * int) list; hists : (string * hist) list }

  let empty_hist =
    { counts = Array.make Histogram.bucket_count 0; n = 0; sum = 0 }

  let take () =
    {
      counters = List.map (fun (n, c) -> (n, Counter.value c)) (all_counters ());
      hists =
        List.map
          (fun (n, h) ->
            (n, { counts = Histogram.buckets h; n = Histogram.count h; sum = Histogram.sum h }))
          (all_histograms ());
    }

  (* Merge-join over the sorted name lists.  Names present only in the
     current snapshot (registered since [base]) diff against zero;
     names present only in [base] cannot happen (registrations never
     drop) but are skipped defensively. *)
  let diff ~base cur =
    let rec dc bs cs acc =
      match (bs, cs) with
      | _, [] -> List.rev acc
      | [], (n, v) :: cs -> dc [] cs ((n, max 0 v) :: acc)
      | (bn, bv) :: bs', ((n, v) :: cs' as cs0) ->
        let c = String.compare bn n in
        if c < 0 then dc bs' cs0 acc
        else if c = 0 then dc bs' cs' ((n, max 0 (v - bv)) :: acc)
        else dc bs cs' ((n, max 0 v) :: acc)
    in
    let dh (bh : hist) (h : hist) =
      let counts = Array.init Histogram.bucket_count (fun i -> max 0 (h.counts.(i) - bh.counts.(i))) in
      { counts; n = Array.fold_left ( + ) 0 counts; sum = max 0 (h.sum - bh.sum) }
    in
    let rec dhs bs cs acc =
      match (bs, cs) with
      | _, [] -> List.rev acc
      | [], (n, h) :: cs -> dhs [] cs ((n, dh empty_hist h) :: acc)
      | (bn, bh) :: bs', ((n, h) :: cs' as cs0) ->
        let c = String.compare bn n in
        if c < 0 then dhs bs' cs0 acc
        else if c = 0 then dhs bs' cs' ((n, dh bh h) :: acc)
        else dhs bs cs' ((n, dh empty_hist h) :: acc)
    in
    { counters = dc base.counters cur.counters []; hists = dhs base.hists cur.hists [] }

  let counter t name = Option.value ~default:0 (List.assoc_opt name t.counters)
  let hist t name = List.assoc_opt name t.hists

  let merge_hists hs =
    let acc = { counts = Array.make Histogram.bucket_count 0; n = 0; sum = 0 } in
    List.fold_left
      (fun acc h ->
        for i = 0 to Histogram.bucket_count - 1 do
          acc.counts.(i) <- acc.counts.(i) + h.counts.(i)
        done;
        { acc with n = acc.n + h.n; sum = acc.sum + h.sum })
      acc hs

  (* The histogram's bucket walk without the observed-extreme clamp (a
     delta has no extremes): the result is the upper edge of the
     selected bucket, so it lands in the same log2 bucket as the
     exact-valued quantile over the same samples. *)
  let quantile h q = Histogram.bucket_quantile h.counts h.n q
end

let pp_table ppf () =
  let hs = List.filter (fun (_, h) -> Histogram.count h > 0) (all_histograms ()) in
  if hs <> [] then begin
    Format.fprintf ppf "%-26s %8s %12s %10s %10s %10s %10s@." "histogram" "count"
      "mean" "p50" "p90" "p99" "max";
    List.iter (fun (_, h) -> Format.fprintf ppf "%a@." Histogram.pp_row h) hs
  end;
  let cs = List.filter (fun (_, c) -> Counter.value c > 0) (all_counters ()) in
  if cs <> [] then begin
    Format.fprintf ppf "%-26s %8s@." "counter" "value";
    List.iter
      (fun (name, c) -> Format.fprintf ppf "%-26s %8d@." name (Counter.value c))
      cs
  end
