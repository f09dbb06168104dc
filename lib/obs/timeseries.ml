(* Windowed time-series rollups over the metrics registry.

   The registry's counters and histograms are cumulative; production
   monitoring wants *rates* — what happened in the last window, not
   since boot.  A [tick] closes the open window by subtracting the
   base snapshot from the live registry straight into the ring slot's
   own delta buffers and refreshing the base in the same pass
   ([Metrics.Snapshot.advance]).  Slots are allocated when first used
   and reused on wraparound, so with the ring full and the registry
   stable a tick is one fixed-size array pass that allocates nothing,
   and nothing at all happens per event.

   Window boundaries ride on the cycle clock of whoever owns the
   timeline (the span layer's close path polls it), so window edges are
   "at least [window_cycles] apart": each window records its actual
   [w_start]/[w_end] and rates divide by the real width. *)

type window = {
  mutable seq : int;  (* 0-based tick number, monotone across wraparound *)
  mutable w_start : int;
  mutable w_end : int;
  delta : Metrics.Snapshot.t;
}

type t = {
  cap : int;
  window_cycles : int;
  ring : window array;  (* tick [i] in slot [i mod cap]; [unused] until first written *)
  mutable nticks : int;
  base : Metrics.Snapshot.t;
  mutable w_open : int;  (* start timestamp of the currently-open window *)
}

let unused = { seq = -1; w_start = 0; w_end = 0; delta = Metrics.Snapshot.create () }

let create ?(windows = 64) ~window_cycles ~now () =
  if windows <= 0 then invalid_arg "Timeseries.create: windows must be positive";
  if window_cycles <= 0 then invalid_arg "Timeseries.create: window_cycles must be positive";
  {
    cap = windows;
    window_cycles;
    ring = Array.make windows unused;
    nticks = 0;
    base = Metrics.Snapshot.take ();
    w_open = now;
  }

let tick t ~now =
  let i = t.nticks mod t.cap in
  let w =
    if t.ring.(i) != unused then t.ring.(i)
    else begin
      let w = { seq = 0; w_start = 0; w_end = 0; delta = Metrics.Snapshot.create () } in
      t.ring.(i) <- w;
      w
    end
  in
  Metrics.Snapshot.advance ~base:t.base ~into:w.delta;
  w.seq <- t.nticks;
  w.w_start <- t.w_open;
  w.w_end <- now;
  t.nticks <- t.nticks + 1;
  t.w_open <- now

let ticks t = t.nticks
let capacity t = t.cap
let window_cycles t = t.window_cycles
let next_boundary t = t.w_open + t.window_cycles
let retained t = min t.nticks t.cap

let recent t k =
  if k < 0 || k >= retained t then invalid_arg "Timeseries.recent: no such window";
  t.ring.((t.nticks - 1 - k) mod t.cap)

let last t n =
  let rec go k acc =
    if k >= min n (retained t) then acc else go (k + 1) (recent t k :: acc)
  in
  go 0 []

let windows t = last t t.cap
let latest t = if t.nticks = 0 then None else Some (recent t 0)

let merged t ~name ~n =
  last t n
  |> List.filter_map (fun w -> Metrics.Snapshot.hist w.delta name)
  |> Metrics.Snapshot.merge_hists

let counter w ~name = Metrics.Snapshot.counter w.delta name

let rate w ~name =
  let dur = max 1 (w.w_end - w.w_start) in
  float_of_int (counter w ~name) /. float_of_int dur
