open Atmo_util

exception Permission_violation of string

type 'a t = {
  name : string;
  mutable map : 'a Imap.t;
  borrows : Atmo_obs.Metrics.Counter.t;
      (* borrows/updates, under [pm/borrows/<name>] in the obs registry
         so benches and the CLI see them next to every other metric *)
  muts : int Atomic.t;  (* intrinsic mutation counter, shared per name *)
  mutable epoch : int;
      (* per-instance write epoch: the seqlock sequence word for the
         read-mostly regime — readers snapshot it around a borrow-only
         section and retry when a writer interleaved *)
}

(* Mutation observers (the sanitizer's lock-discipline checker, the
   incremental verifier's dirty tracker).  Borrows are reads and are
   not reported — the big lock protects mutations of kernel state.
   The audit is per map name, so the intrinsic count lives in the
   per-name table below, not in the channel's own counter. *)
let mutations : (name:string -> op:string -> ptr:int -> unit) Hook.t = Hook.create ()

(* Intrinsic per-name mutation counters: always on, shared by every map
   instance with the same [name] (scratch worlds included), and
   independent of any hook — atmo_san's stale-proof lint compares them
   against the dirty tracker's observed counts, so a mutation the
   tracker failed to see is evidence, not something the buggy hook
   path can hide.  Registration is rare (map creation) and guarded by a
   mutex; bumps are atomic so parallel discharge domains stay safe. *)
let counters : (string, int Atomic.t) Hashtbl.t = Hashtbl.create 16
let counters_mu = Mutex.create ()

let counter_for name =
  Mutex.protect counters_mu (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
        let c = Atomic.make 0 in
        Hashtbl.add counters name c;
        c)

let mutation_count ~name =
  Mutex.protect counters_mu (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> Atomic.get c
      | None -> 0)

let create ~name =
  {
    name;
    map = Imap.empty;
    borrows = Atmo_obs.Metrics.counter ("pm/borrows/" ^ name);
    muts = counter_for name;
    epoch = 0;
  }

let name t = t.name

(* One intrinsic bump + one dispatch per mutation attempt (before the
   linearity guard, matching the sanitizer's long-standing view that a
   double alloc is still an observable mutation attempt). *)
let note t ~op ~ptr =
  Atomic.incr t.muts;
  t.epoch <- t.epoch + 1;
  if mutations.armed then List.iter (fun (_, f) -> f ~name:t.name ~op ~ptr) mutations.subs

(* Seqlock-style read section: writers (note) bump the epoch, so a
   reader that observes the same epoch on both sides of its borrows saw
   an unmutated map and needed no lock at all.  The retry bound guards
   against a reader that itself mutates (a protocol violation, reported
   by the caller's lints, not hidden by an infinite loop). *)
let read_retries_ctr = Atmo_obs.Metrics.counter "pm/read_retries"

let read_section t f =
  let max_retries = 8 in
  let rec go n =
    let e0 = t.epoch in
    let r = f () in
    if t.epoch = e0 || n >= max_retries then r
    else begin
      Atmo_obs.Metrics.Counter.incr read_retries_ctr;
      go (n + 1)
    end
  in
  go 0

let violation t fmt =
  Format.kasprintf (fun s -> raise (Permission_violation (t.name ^ ": " ^ s))) fmt

let alloc t ~ptr v =
  note t ~op:"alloc" ~ptr;
  if Imap.mem ptr t.map then violation t "double allocation at 0x%x" ptr;
  t.map <- Imap.add ptr v t.map

let consume t ~ptr =
  note t ~op:"consume" ~ptr;
  match Imap.find_opt ptr t.map with
  | None -> violation t "consume of absent permission 0x%x" ptr
  | Some v ->
    t.map <- Imap.remove ptr t.map;
    v

let borrow t ~ptr =
  Atmo_obs.Metrics.Counter.incr t.borrows;
  match Imap.find_opt ptr t.map with
  | None -> violation t "borrow of absent permission 0x%x" ptr
  | Some v -> v

let borrow_opt t ~ptr =
  Atmo_obs.Metrics.Counter.incr t.borrows;
  Imap.find_opt ptr t.map

let update t ~ptr f =
  Atmo_obs.Metrics.Counter.incr t.borrows;
  note t ~op:"update" ~ptr;
  match Imap.find_opt ptr t.map with
  | None -> violation t "update of absent permission 0x%x" ptr
  | Some v -> t.map <- Imap.add ptr (f v) t.map

let mem t ~ptr = Imap.mem ptr t.map
let dom t = Imap.dom t.map
let cardinal t = Imap.cardinal t.map
let iter f t = Imap.iter f t.map
let fold f t acc = Imap.fold f t.map acc
let bindings t = Imap.bindings t.map
let for_all f t = Imap.for_all f t.map
