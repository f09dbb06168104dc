open Atmo_util
module Perm_map = Atmo_pm.Perm_map
module Page_alloc = Atmo_pmem.Page_alloc
module Page_table = Atmo_pt.Page_table
module Kernel = Atmo_core.Kernel

(* ------------------------------------------------------------------ *)
(* Map ids                                                             *)

let pm_id name = "pm/" ^ name
let pm_dom_id name = "pm/" ^ name ^ "/dom"
let alloc_id = "pmem/alloc"
let pt_id = "pt"
let dev_id = "kernel/devices"

(* The permission maps the kernel actually creates (Proc_mgr); the
   audit baselines are snapshotted for exactly these. *)
let pm_names = [ "cntr_perms"; "proc_perms"; "thrd_perms"; "edpt_perms" ]

(* Audited ids, each with a reader of its always-on intrinsic count. *)
let audited =
  List.map (fun name -> (pm_id name, fun () -> Perm_map.mutation_count ~name)) pm_names
  @ [
      (alloc_id, fun () -> Hook.count Page_alloc.events);
      (pt_id, fun () -> Hook.count Page_table.mutations);
      (dev_id, fun () -> Hook.count Kernel.device_mutations);
    ]

(* ------------------------------------------------------------------ *)
(* The tracker                                                         *)

type counter = { mutable seen : int; mutable acked : int }

type t = {
  table : (string, counter) Hashtbl.t;  (* map id -> hook-observed counts *)
  baselines : (string, int) Hashtbl.t;  (* audited id -> intrinsic at sync *)
  cache : (string, Obligation.result) Hashtbl.t;  (* obligation name -> verdict *)
  mutable suspended : bool;  (* discharge in progress: ignore scratch worlds *)
  mutable planted : bool;  (* stale-proof plant: drop marks on the floor *)
  lock : Mutex.t;  (* marks arrive from discharge pool domains too *)
}

let active : t option ref = ref None
let hook_key = "verif-incremental"

let counter_of t id =
  match Hashtbl.find_opt t.table id with
  | Some c -> c
  | None ->
    let c = { seen = 0; acked = 0 } in
    Hashtbl.add t.table id c;
    c

let bump t id =
  let c = counter_of t id in
  c.seen <- c.seen + 1

let mark t id =
  if not (t.suspended || t.planted) then Mutex.protect t.lock (fun () -> bump t id)

(* Invariant audited by atmo_san's stale-proof lint: for every audited
   id, intrinsic_now = baseline + seen.  [resync] restores it after a
   suspended section (obligation discharge builds scratch worlds whose
   mutations bump intrinsic counters but must not dirty the tracked
   kernel's maps). *)
let resync t =
  List.iter
    (fun (id, intrinsic) ->
      Hashtbl.replace t.baselines id (intrinsic () - (counter_of t id).seen))
    audited

let arm () =
  let t =
    {
      table = Hashtbl.create 16;
      baselines = Hashtbl.create 8;
      cache = Hashtbl.create 64;
      suspended = false;
      planted = false;
      lock = Mutex.create ();
    }
  in
  resync t;
  Hook.add Perm_map.mutations ~key:hook_key (fun ~name ~op ~ptr:_ ->
      mark t (pm_id name);
      if op <> "update" then mark t (pm_dom_id name));
  Hook.add Page_alloc.events ~key:hook_key (fun _ev -> mark t alloc_id);
  Hook.add Page_table.mutations ~key:hook_key (fun ~op:_ -> mark t pt_id);
  Hook.add Kernel.device_mutations ~key:hook_key (fun ~op:_ -> mark t dev_id);
  active := Some t

let disarm () =
  Hook.remove Perm_map.mutations ~key:hook_key;
  Hook.remove Page_alloc.events ~key:hook_key;
  Hook.remove Page_table.mutations ~key:hook_key;
  Hook.remove Kernel.device_mutations ~key:hook_key;
  active := None

let is_armed () = !active <> None

let set_miss_plant on =
  match !active with Some t -> t.planted <- on | None -> ()

let suspend f =
  match !active with
  | None -> f ()
  | Some t ->
    t.suspended <- true;
    Fun.protect
      ~finally:(fun () ->
        t.suspended <- false;
        resync t)
      f

let is_dirty_in t id =
  match Hashtbl.find_opt t.table id with
  | None -> false
  | Some c -> c.seen > c.acked

let is_dirty id = match !active with None -> true | Some t -> is_dirty_in t id

let dirty_ids () =
  match !active with
  | None -> []
  | Some t ->
    Hashtbl.fold (fun id c acc -> if c.seen > c.acked then id :: acc else acc) t.table []
    |> List.sort compare

(* Audit for the stale-proof lint: ids whose intrinsic mutation count
   moved past what the tracker observed.  [(id, expected, observed)]
   where expected = intrinsic_now - baseline. *)
let audit () =
  match !active with
  | None -> []
  | Some t ->
    List.filter_map
      (fun (id, intrinsic) ->
        match Hashtbl.find_opt t.baselines id with
        | None -> None
        | Some base ->
          let expected = intrinsic () - base in
          let observed = (counter_of t id).seen in
          if expected <> observed then Some (id, expected, observed) else None)
      audited

let cached_verdicts () =
  match !active with None -> 0 | Some t -> Hashtbl.length t.cache

let run ?(threads = 1) obls =
  match !active with
  | None -> Runner.run ~threads obls
  | Some t ->
    let ctx =
      { Runner.is_dirty = is_dirty_in t; cached = Hashtbl.find_opt t.cache }
    in
    let report = suspend (fun () -> Runner.run ~threads ~incremental:ctx obls) in
    List.iter
      (fun (r : Obligation.result) ->
        Hashtbl.replace t.cache r.Obligation.name { r with Obligation.cached = false })
      report.Runner.results;
    Hashtbl.iter (fun _ c -> c.acked <- c.seen) t.table;
    report
