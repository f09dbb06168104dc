(* The program's public work counters, read before and after a stretch
   of ops: the metrics registry (IPC paths, permission-map borrows and
   read retries, page-walk loads, TLB / IOTLB hits) and the intrinsic
   mutation counts of the permission maps, the page allocator and the
   page tables.  [Metrics.reset] zeroes only the registry half, so a
   delta must not span a reset. *)

module Metrics = Atmo_obs.Metrics
module Tlb = Atmo_hw.Tlb

let perm_maps = [ "cntr_perms"; "proc_perms"; "thrd_perms"; "edpt_perms" ]

type t = {
  fastpath : int;
  slowpath : int;
  borrows : int;
  read_retries : int;
  walk_loads : int;
  tlb_hits : int;
  tlb_misses : int;
  iotlb_hits : int;
  iotlb_misses : int;
  pm_mutations : int;
  pmem_mutations : int;
  pt_mutations : int;
}

let zero =
  {
    fastpath = 0; slowpath = 0; borrows = 0; read_retries = 0; walk_loads = 0; tlb_hits = 0;
    tlb_misses = 0; iotlb_hits = 0; iotlb_misses = 0; pm_mutations = 0; pmem_mutations = 0;
    pt_mutations = 0;
  }

let value name = Metrics.Counter.value (Metrics.counter name)
let sum f = List.fold_left (fun acc n -> acc + f n) 0 perm_maps

let take () =
  let cpu = Tlb.cpu_stats () and io = Tlb.io_stats () in
  {
    fastpath = value "ipc/fastpath";
    slowpath = value "ipc/slowpath";
    borrows = sum (fun n -> value ("pm/borrows/" ^ n));
    read_retries = value "pm/read_retries";
    walk_loads = value "mmu/walk_loads";
    tlb_hits = cpu.Tlb.hits;
    tlb_misses = cpu.Tlb.misses;
    iotlb_hits = io.Tlb.hits;
    iotlb_misses = io.Tlb.misses;
    pm_mutations = sum (fun name -> Atmo_pm.Perm_map.mutation_count ~name);
    pmem_mutations = Atmo_pmem.Page_alloc.mutation_count ();
    pt_mutations = Atmo_pt.Page_table.mutation_count ();
  }

let map2 f a b =
  {
    fastpath = f a.fastpath b.fastpath;
    slowpath = f a.slowpath b.slowpath;
    borrows = f a.borrows b.borrows;
    read_retries = f a.read_retries b.read_retries;
    walk_loads = f a.walk_loads b.walk_loads;
    tlb_hits = f a.tlb_hits b.tlb_hits;
    tlb_misses = f a.tlb_misses b.tlb_misses;
    iotlb_hits = f a.iotlb_hits b.iotlb_hits;
    iotlb_misses = f a.iotlb_misses b.iotlb_misses;
    pm_mutations = f a.pm_mutations b.pm_mutations;
    pmem_mutations = f a.pmem_mutations b.pmem_mutations;
    pt_mutations = f a.pt_mutations b.pt_mutations;
  }

let diff ~before after = map2 ( - ) after before
let add = map2 ( + )

(* Run [f] and return its result with the counter delta it caused. *)
let around f =
  let before = take () in
  let r = f () in
  (r, diff ~before (take ()))

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Per-layer metrics of a stretch of [ops] operations. *)
let metrics d ~ops =
  [
    ("core.fastpath_ratio", ratio d.fastpath (d.fastpath + d.slowpath));
    ("hw.tlb_hit_ratio", ratio d.tlb_hits (d.tlb_hits + d.tlb_misses));
    ("hw.walk_loads_per_op", ratio d.walk_loads ops);
    ("hw.iotlb_hit_ratio", ratio d.iotlb_hits (d.iotlb_hits + d.iotlb_misses));
    ("pm.borrows_per_op", ratio d.borrows ops);
    ("pm.mutations_per_op", ratio d.pm_mutations ops);
    ("pm.read_retries", float_of_int d.read_retries);
    ("pmem.mutations_per_op", ratio d.pmem_mutations ops);
    ("pt.mutations_per_op", ratio d.pt_mutations ops);
  ]
