(* Order statistics over float samples.  Quantiles interpolate linearly
   between closest ranks, so a median of an even count is the mean of
   the middle pair and a figure is never snapped to a bucket edge. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then 0.
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

let quantile a q = quantile_sorted (sorted a) q
let median a = quantile a 0.5
let of_list l = median (Array.of_list l)

(* The highest of p99.9 / p99 / p90 / p50 that still has at least ten
   samples beyond it, as [(label, q)]; p50 when there are fewer than
   twenty samples. *)
let tail_quantile n =
  let beyond q = float_of_int n *. (1. -. q) >= 10. in
  List.find_opt (fun (_, q) -> beyond q) [ ("p99.9", 0.999); ("p99", 0.99); ("p90", 0.9) ]
  |> Option.value ~default:("p50", 0.5)

(* Reservoir of at most [cap] samples (Algorithm R) so a long run keeps
   a uniform sample of every op at fixed memory.  The replacement
   stream is a seeded xorshift, so the kept set is a function of the
   sample sequence. *)
type reservoir = {
  cap : int;
  data : float array;
  mutable seen : int;
  mutable state : int;
}

let reservoir cap = { cap; data = Array.make cap 0.; seen = 0; state = 0x2545F4914F6CDD1D }

let xorshift r =
  let x = r.state in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  r.state <- x;
  x land max_int

let add r v =
  if r.seen < r.cap then r.data.(r.seen) <- v
  else begin
    let j = xorshift r mod (r.seen + 1) in
    if j < r.cap then r.data.(j) <- v
  end;
  r.seen <- r.seen + 1

let samples r = Array.sub r.data 0 (min r.cap r.seen)
