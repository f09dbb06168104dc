(* Monotonic counters and log2-bucketed latency histograms, with a
   process-global registry keyed by name.  Values are cycle-clock deltas
   (or any non-negative integer); bucket [i] covers [2^i, 2^(i+1)), with
   bucket 0 absorbing 0 and 1.

   The registry also numbers every metric densely at registration (its
   slot), so snapshots are flat arrays indexed by slot rather than
   name-keyed maps; name order is computed only when something lists
   the registry. *)

module Counter = struct
  type t = { name : string; slot : int; mutable v : int }

  let make name = { name; slot = -1; v = 0 }
  let name t = t.name
  let add t by = if by > 0 then t.v <- t.v + by
  let incr ?(by = 1) t = add t by
  let value t = t.v
  let reset t = t.v <- 0
end

module Histogram = struct
  let bucket_count = 63

  type t = {
    name : string;
    slot : int;
    counts : int array;
    mutable n : int;
    mutable sum : int;
    mutable vmin : int;
    mutable vmax : int;
  }

  let make_slot name slot =
    {
      name;
      slot;
      counts = Array.make bucket_count 0;
      n = 0;
      sum = 0;
      vmin = max_int;
      vmax = 0;
    }

  let make name = make_slot name (-1)

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
    let b = bucket_of v in
    t.counts.(b) <- t.counts.(b) + 1;
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

(* Slot-ordered views of the two tables: slot [i] is the [i]-th
   registration, and registrations never drop, so a slot names one
   metric for the life of the process.  Registration is the rare slow
   path and runs under [registry_mu] (the verifier's pool domains
   register too); the array grows by doubling and the count is
   published after the entry, so a reader bounded by the count it
   loaded never indexes past the array it loads next. *)
type 'a slots = { mutable arr : 'a array; count : int Atomic.t }

let cslots : Counter.t slots = { arr = [||]; count = Atomic.make 0 }
let hslots : Histogram.t slots = { arr = [||]; count = Atomic.make 0 }
let registry_mu = Mutex.create ()

let register tbl slots name make =
  Mutex.protect registry_mu (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some m -> m
      | None ->
        let slot = Atomic.get slots.count in
        let m = make name slot in
        if slot = Array.length slots.arr then begin
          let a = Array.make (max 16 (2 * slot)) m in
          Array.blit slots.arr 0 a 0 slot;
          slots.arr <- a
        end;
        slots.arr.(slot) <- m;
        Hashtbl.replace tbl name m;
        Atomic.set slots.count (slot + 1);
        m)

let counter name =
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None -> register counters cslots name (fun name slot -> { Counter.name; slot; v = 0 })

let histogram name =
  match Hashtbl.find_opt histograms name with
  | Some h -> h
  | None -> register histograms hslots name Histogram.make_slot

let counter_count () = Atomic.get cslots.count
let counter_at slot = cslots.arr.(slot)

let bump ?by name = Counter.incr ?by (counter name)
let observe name v = Histogram.observe (histogram name) v

let by_name (a, _) (b, _) = String.compare a b

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort by_name

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

(* A snapshot is flat int arrays indexed by slot: counter values, and
   per histogram its sample count, sum and 63 bucket counts laid end to
   end.  It covers the slots registered when it was last written; a
   later slot reads as zero (counters) or absent (histograms), so names
   registered after a base snapshot diff against zero.  The window
   tick is [advance]: one pass over the slot arrays that subtracts the
   base from the live registry into a reused delta buffer and refreshes
   the base, allocating nothing unless the registry grew.  Deltas clamp
   at zero, so a [reset] between two ticks degrades to an empty window
   instead of nonsense. *)
module Snapshot = struct
  type hist = { counts : int array; n : int; sum : int }

  type t = {
    mutable cv : int array;  (* counter value by slot *)
    mutable hn : int array;  (* histogram sample count by slot *)
    mutable hsum : int array;
    mutable hb : int array;  (* slot [s]'s buckets at [s * bucket_count] *)
  }

  let bc = Histogram.bucket_count
  let create () = { cv = [||]; hn = [||]; hsum = [||]; hb = [||] }

  let resized a n =
    if Array.length a = n then a
    else begin
      let b = Array.make n 0 in
      Array.blit a 0 b 0 (min n (Array.length a));
      b
    end

  (* Cover exactly [nc] counter and [nh] histogram slots, keeping the
     values already held; new slots start at zero. *)
  let fit t nc nh =
    t.cv <- resized t.cv nc;
    t.hn <- resized t.hn nh;
    t.hsum <- resized t.hsum nh;
    t.hb <- resized t.hb (nh * bc)

  (* A histogram delta's [n] is the sum of its clamped bucket deltas, so
     it always agrees with its buckets. *)
  let advance ~base ~into =
    let nc = Atomic.get cslots.count and nh = Atomic.get hslots.count in
    fit base nc nh;
    fit into nc nh;
    let cs = cslots.arr and hs = hslots.arr in
    for s = 0 to nc - 1 do
      let v = cs.(s).Counter.v in
      into.cv.(s) <- Int.max 0 (v - base.cv.(s));
      base.cv.(s) <- v
    done;
    for s = 0 to nh - 1 do
      let h = hs.(s) and o = s * bc in
      let n = ref 0 in
      for b = 0 to bc - 1 do
        let v = h.Histogram.counts.(b) in
        let d = Int.max 0 (v - base.hb.(o + b)) in
        into.hb.(o + b) <- d;
        n := !n + d;
        base.hb.(o + b) <- v
      done;
      into.hn.(s) <- !n;
      into.hsum.(s) <- Int.max 0 (h.Histogram.sum - base.hsum.(s));
      base.hn.(s) <- h.Histogram.n;
      base.hsum.(s) <- h.Histogram.sum
    done

  (* Advancing an empty base leaves it a copy of the live registry. *)
  let take () =
    let t = create () in
    advance ~base:t ~into:(create ());
    t

  let counter_at t slot =
    if slot >= 0 && slot < Array.length t.cv then t.cv.(slot) else 0

  let counter t name =
    match Hashtbl.find_opt counters name with
    | Some c -> counter_at t c.Counter.slot
    | None -> 0

  let hist_at t s = { counts = Array.sub t.hb (s * bc) bc; n = t.hn.(s); sum = t.hsum.(s) }

  let hist t name =
    match Hashtbl.find_opt histograms name with
    | Some h when h.Histogram.slot < Array.length t.hn -> Some (hist_at t h.Histogram.slot)
    | _ -> None

  let listing t =
    let cs = cslots.arr and hs = hslots.arr in
    ( List.init (Array.length t.cv) (fun s -> (cs.(s).Counter.name, t.cv.(s)))
      |> List.sort by_name,
      List.init (Array.length t.hn) (fun s -> (hs.(s).Histogram.name, hist_at t s))
      |> List.sort by_name )

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
