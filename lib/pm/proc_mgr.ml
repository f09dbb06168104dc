open Atmo_util
module Phys_mem = Atmo_hw.Phys_mem
module Page_alloc = Atmo_pmem.Page_alloc
module Page_table = Atmo_pt.Page_table

type t = {
  mem : Phys_mem.t;
  alloc : Page_alloc.t;
  root_container : int;
  cntr_perms : Container.t Perm_map.t;
  proc_perms : Process.t Perm_map.t;
  thrd_perms : Thread.t Perm_map.t;
  edpt_perms : Endpoint.t Perm_map.t;
  external_used : (int, int) Hashtbl.t;
  mutable queues : Sched_queue.t array;
  mutable currents : int option array;
  mutable cur_cpu : int;
  home_cpu : (int, int) Hashtbl.t;
  mutable steal_state : int;
  mutable steal_ledger : (int * int * int) list;
  mutable lost_steal_plant : bool;
}

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e
let eq_int (a : int) b = a = b

let create mem alloc ~root_quota ~cpus =
  if root_quota <= 0 || root_quota > Page_alloc.managed_frames alloc then
    Error Errno.Einval
  else
    match Page_alloc.alloc_4k alloc ~purpose:Page_alloc.Kernel with
    | None -> Error Errno.Enomem
    | Some root ->
      let cntr_perms = Perm_map.create ~name:"cntr_perms" in
      let c = Container.make ~parent:None ~quota:root_quota ~cpus ~depth:0 ~path:[] in
      Perm_map.alloc cntr_perms ~ptr:root { c with Container.used = 1 };
      Ok
        {
          mem;
          alloc;
          root_container = root;
          cntr_perms;
          proc_perms = Perm_map.create ~name:"proc_perms";
          thrd_perms = Perm_map.create ~name:"thrd_perms";
          edpt_perms = Perm_map.create ~name:"edpt_perms";
          external_used = Hashtbl.create 8;
          queues = [| Sched_queue.create mem |];
          currents = [| None |];
          cur_cpu = 0;
          home_cpu = Hashtbl.create 8;
          steal_state = 0x9e3779b9;
          steal_ledger = [];
          lost_steal_plant = false;
        }

(* ------------------------------------------------------------------ *)
(* Quota accounting                                                    *)

let charge t ~container ~frames =
  let c = Perm_map.borrow t.cntr_perms ~ptr:container in
  if Container.available c < frames then Error Errno.Equota
  else begin
    Perm_map.update t.cntr_perms ~ptr:container (fun c ->
        { c with Container.used = c.Container.used + frames });
    Ok ()
  end

let uncharge t ~container ~frames =
  Perm_map.update t.cntr_perms ~ptr:container (fun c ->
      if c.Container.used < frames then
        invalid_arg "Proc_mgr.uncharge: below zero"
      else { c with Container.used = c.Container.used - frames })

let external_of t ~container =
  Option.value ~default:0 (Hashtbl.find_opt t.external_used container)

let charge_external t ~container ~frames =
  match charge t ~container ~frames with
  | Error _ as e -> e
  | Ok () ->
    Hashtbl.replace t.external_used container (external_of t ~container + frames);
    Ok ()

let uncharge_external t ~container ~frames =
  let current = external_of t ~container in
  if current < frames then invalid_arg "Proc_mgr.uncharge_external: below zero";
  Hashtbl.replace t.external_used container (current - frames);
  uncharge t ~container ~frames

let drop_external t ~container = Hashtbl.remove t.external_used container

(* Allocate one object page charged to [container].  The quota check
   precedes the allocation so a refused charge never leaks a frame. *)
let alloc_object_page t ~container =
  let c = Perm_map.borrow t.cntr_perms ~ptr:container in
  if Container.available c < 1 then Error Errno.Equota
  else
    match Page_alloc.alloc_4k t.alloc ~purpose:Page_alloc.Kernel with
    | None -> Error Errno.Enomem
    | Some page ->
      Perm_map.update t.cntr_perms ~ptr:container (fun c ->
          { c with Container.used = c.Container.used + 1 });
      Ok page

let free_object_page t ~container ~page =
  Page_alloc.free_kernel_page t.alloc ~addr:page;
  uncharge t ~container ~frames:1

(* ------------------------------------------------------------------ *)
(* Containers                                                          *)

let new_container t ~parent ~quota ~cpus =
  match Perm_map.borrow_opt t.cntr_perms ~ptr:parent with
  | None -> Error Errno.Esrch
  | Some p ->
    if quota < 1 then Error Errno.Einval
    else if not (Iset.subset cpus p.Container.cpus) then Error Errno.Eperm
    else if Container.available p < quota then Error Errno.Equota
    else if Static_list.is_full p.Container.children then Error Errno.Efull
    else begin
      (* The child's own object page comes out of the child's quota, so
         the child needs the frame available immediately; the frame
         itself is drawn from the global allocator. *)
      match Page_alloc.alloc_4k t.alloc ~purpose:Page_alloc.Kernel with
      | None -> Error Errno.Enomem
      | Some child ->
        let path = p.Container.path @ [ parent ] in
        let c =
          Container.make ~parent:(Some parent) ~quota ~cpus
            ~depth:(p.Container.depth + 1) ~path
        in
        Perm_map.alloc t.cntr_perms ~ptr:child { c with Container.used = 1 };
        Perm_map.update t.cntr_perms ~ptr:parent (fun p ->
            match Static_list.push p.Container.children child with
            | Error `Full -> assert false (* checked above *)
            | Ok children ->
              {
                p with
                Container.children;
                Container.delegated = p.Container.delegated + quota;
              });
        (* Extend the ghost subtree of every ancestor — a flat walk over
           the path, no recursion. *)
        List.iter
          (fun anc ->
            Perm_map.update t.cntr_perms ~ptr:anc (fun a ->
                { a with Container.subtree = Iset.add child a.Container.subtree }))
          path;
        Ok child
    end

(* ------------------------------------------------------------------ *)
(* Processes and threads                                               *)

let new_process t ~container ~parent =
  match Perm_map.borrow_opt t.cntr_perms ~ptr:container with
  | None -> Error Errno.Esrch
  | Some c ->
    let* () =
      match parent with
      | None -> Ok ()
      | Some pp ->
        (match Perm_map.borrow_opt t.proc_perms ~ptr:pp with
         | None -> Error Errno.Esrch
         | Some parent_proc ->
           if parent_proc.Process.owner_container <> container then Error Errno.Eperm
           else if Static_list.is_full parent_proc.Process.children then
             Error Errno.Efull
           else Ok ())
    in
    if Static_list.is_full c.Container.procs then Error Errno.Efull
    else
      (* One page for the process object plus one for the page-table
         root: both must fit the quota before anything is allocated. *)
      let* () =
        if Container.available c < 2 then Error Errno.Equota else Ok ()
      in
      let* page =
        match Page_alloc.alloc_4k t.alloc ~purpose:Page_alloc.Kernel with
        | None -> Error Errno.Enomem
        | Some p -> Ok p
      in
      (match Page_table.create t.mem t.alloc with
       | Error _ ->
         Page_alloc.free_kernel_page t.alloc ~addr:page;
         Error Errno.Enomem
       | Ok pt ->
         Perm_map.update t.cntr_perms ~ptr:container (fun c ->
             { c with Container.used = c.Container.used + 2 });
         Perm_map.alloc t.proc_perms ~ptr:page
           (Process.make ~owner_container:container ~parent ~pt);
         Perm_map.update t.cntr_perms ~ptr:container (fun c ->
             match Static_list.push c.Container.procs page with
             | Error `Full -> assert false
             | Ok procs -> { c with Container.procs = procs });
         (match parent with
          | None -> ()
          | Some pp ->
            Perm_map.update t.proc_perms ~ptr:pp (fun parent_proc ->
                match Static_list.push parent_proc.Process.children page with
                | Error `Full -> assert false
                | Ok children -> { parent_proc with Process.children = children }));
         Ok page)

(* ------------------------------------------------------------------ *)
(* CPU topology: per-CPU run queues, home CPUs, the stealing RNG        *)

let sched_cpus t = Array.length t.queues
let cpu t = t.cur_cpu

let set_cpu t cpu =
  if cpu < 0 || cpu >= sched_cpus t then invalid_arg "Proc_mgr.set_cpu: out of range";
  t.cur_cpu <- cpu

let home_of t ~thread =
  match Hashtbl.find_opt t.home_cpu thread with
  | Some c when c < sched_cpus t -> c
  | Some _ | None -> 0

let set_home t ~thread ~cpu =
  if cpu < 0 || cpu >= sched_cpus t then invalid_arg "Proc_mgr.set_home: out of range";
  Hashtbl.replace t.home_cpu thread cpu

let set_steal_seed t seed = t.steal_state <- if seed = 0 then 0x9e3779b9 else seed

(* Resize to [n] per-CPU queues.  Queued threads are redistributed to
   their home queues in (cpu, FIFO) order so the move is deterministic;
   a thread current on a CPU that disappears goes back to its home
   queue.  With n = 1 this is exactly the former single-queue world. *)
let set_sched_cpus t n =
  if n <= 0 then invalid_arg "Proc_mgr.set_sched_cpus: cpus <= 0";
  let old_currents = t.currents in
  let queued = Array.to_list t.queues |> List.concat_map Sched_queue.to_list in
  let displaced =
    Array.to_list old_currents
    |> List.filteri (fun i _ -> i >= n)
    |> List.filter_map Fun.id
  in
  t.queues <- Array.init n (fun _ -> Sched_queue.create t.mem);
  t.currents <-
    Array.init n (fun i ->
        if i < Array.length old_currents then old_currents.(i) else None);
  if t.cur_cpu >= n then t.cur_cpu <- 0;
  List.iter
    (fun th -> Sched_queue.push_back t.queues.(home_of t ~thread:th) th)
    queued;
  List.iter
    (fun th ->
      Perm_map.update t.thrd_perms ~ptr:th (fun thread ->
          { thread with Thread.state = Thread.Runnable });
      Sched_queue.push_back t.queues.(home_of t ~thread:th) th)
    displaced

let queue t ~cpu =
  if cpu < 0 || cpu >= sched_cpus t then invalid_arg "Proc_mgr.queue: out of range";
  t.queues.(cpu)

let cur_queue t = t.queues.(t.cur_cpu)
let current_of t ~cpu = t.currents.(cpu)
let currents_list t = Array.to_list t.currents
let current t = t.currents.(t.cur_cpu)
let set_current t v = t.currents.(t.cur_cpu) <- v

let cpu_of_current t ~thread =
  let n = sched_cpus t in
  let rec go i =
    if i >= n then None
    else if t.currents.(i) = Some thread then Some i
    else go (i + 1)
  in
  go 0

let queued_anywhere t ~thread =
  Array.exists (fun q -> Sched_queue.mem q thread) t.queues

(* xorshift: deterministic victim selection, seeded per run *)
let steal_rand t =
  let x = t.steal_state in
  let x = x lxor (x lsl 13) land 0x3FFFFFFF in
  let x = x lxor (x lsr 17) in
  let x = x lxor (x lsl 5) land 0x3FFFFFFF in
  t.steal_state <- x;
  x

let steal_ledger t = t.steal_ledger
let set_lost_steal_plant t b = t.lost_steal_plant <- b

let ledger_cap = 64

let note_steal t ~thief ~victim ~thread =
  let keep =
    if List.length t.steal_ledger >= ledger_cap then
      List.filteri (fun i _ -> i < ledger_cap - 1) t.steal_ledger
    else t.steal_ledger
  in
  t.steal_ledger <- (thief, victim, thread) :: keep

let scrub_steal_ledger t ~thread =
  if not t.lost_steal_plant then
    t.steal_ledger <-
      List.filter (fun (_, _, th) -> th <> thread) t.steal_ledger

let enqueue_runnable t ~thread =
  Perm_map.update t.thrd_perms ~ptr:thread (fun th ->
      { th with Thread.state = Thread.Runnable });
  Sched_queue.push_back t.queues.(home_of t ~thread) thread

(* Requeue without the state write: the fastpath updates the thread
   record itself, exactly once, and only needs the queue push. *)
let push_ready t ~thread = Sched_queue.push_back t.queues.(home_of t ~thread) thread

let new_thread t ~proc =
  match Perm_map.borrow_opt t.proc_perms ~ptr:proc with
  | None -> Error Errno.Esrch
  | Some p ->
    if Static_list.is_full p.Process.threads then Error Errno.Efull
    else
      let container = p.Process.owner_container in
      let* page = alloc_object_page t ~container in
      Perm_map.alloc t.thrd_perms ~ptr:page (Thread.make ~owner_proc:proc);
      Perm_map.update t.proc_perms ~ptr:proc (fun p ->
          match Static_list.push p.Process.threads page with
          | Error `Full -> assert false
          | Ok threads -> { p with Process.threads = threads });
      push_ready t ~thread:page;
      Ok page

(* ------------------------------------------------------------------ *)
(* Endpoints                                                           *)

let container_of_proc t ~proc =
  (Perm_map.borrow t.proc_perms ~ptr:proc).Process.owner_container

let container_of_thread t ~thread =
  let th = Perm_map.borrow t.thrd_perms ~ptr:thread in
  container_of_proc t ~proc:th.Thread.owner_proc

let new_endpoint t ~thread ~slot =
  match Perm_map.borrow_opt t.thrd_perms ~ptr:thread with
  | None -> Error Errno.Esrch
  | Some th ->
    if slot < 0 || slot >= Kconfig.max_endpoint_slots then Error Errno.Einval
    else if Thread.slot th slot <> None then Error Errno.Eexist
    else
      let container = container_of_thread t ~thread in
      let* page = alloc_object_page t ~container in
      Perm_map.alloc t.edpt_perms ~ptr:page (Endpoint.make ~owner_container:container);
      Perm_map.update t.thrd_perms ~ptr:thread (fun th ->
          Thread.set_slot th slot (Some page));
      Ok page

(* The one capability handoff: name [endpoint] in [thread]'s [slot] and
   count the new holder.  Trusted setup and the IPC endpoint grant both
   come through here, so "refcount = slots naming it" holds by
   construction; {!drop_endpoint_ref} is the inverse. *)
let share_endpoint t ~thread ~slot ~endpoint =
  Perm_map.update t.thrd_perms ~ptr:thread (fun th ->
      if Thread.slot th slot <> None then
        invalid_arg "Proc_mgr.share_endpoint: slot already occupied";
      Thread.set_slot th slot (Some endpoint));
  Perm_map.update t.edpt_perms ~ptr:endpoint (fun e ->
      { e with Endpoint.refcount = e.Endpoint.refcount + 1 })

let drop_endpoint_ref t ~endpoint =
  let e = Perm_map.borrow t.edpt_perms ~ptr:endpoint in
  if e.Endpoint.refcount > 1 then begin
    Perm_map.update t.edpt_perms ~ptr:endpoint (fun e ->
        { e with Endpoint.refcount = e.Endpoint.refcount - 1 });
    `Live
  end
  else begin
    let e = Perm_map.consume t.edpt_perms ~ptr:endpoint in
    free_object_page t ~container:e.Endpoint.owner_container ~page:endpoint;
    `Freed
  end

let close_endpoint_slot t ~thread ~slot =
  match Perm_map.borrow_opt t.thrd_perms ~ptr:thread with
  | None -> Error Errno.Esrch
  | Some th ->
    (match Thread.slot th slot with
     | None -> Error Errno.Einval
     | Some endpoint ->
       let e = Perm_map.borrow t.edpt_perms ~ptr:endpoint in
       (* The last reference cannot be dropped while threads still sit on
          the wait queues (they would dangle). *)
       if
         e.Endpoint.refcount = 1
         && not
              (Static_list.is_empty e.Endpoint.send_queue
               && Static_list.is_empty e.Endpoint.recv_queue)
       then Error Errno.Ebusy
       else begin
         Perm_map.update t.thrd_perms ~ptr:thread (fun th ->
             Thread.set_slot th slot None);
         ignore (drop_endpoint_ref t ~endpoint);
         Ok ()
       end)

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)

let ctx_switch_ctr = Atmo_obs.Metrics.counter "sched/ctx_switch"
let steal_ctr = Atmo_obs.Metrics.counter "sched/steal"

let run_thread t ~cpu th =
  Perm_map.update t.thrd_perms ~ptr:th (fun thread ->
      { thread with Thread.state = Thread.Running });
  t.currents.(cpu) <- Some th;
  Atmo_obs.Metrics.Counter.incr ctx_switch_ctr;
  (* zero-duration structural span, batched into one packed record:
     the switch shows up in the tree under whatever kernel path
     triggered it *)
  ignore (Atmo_obs.Span.pair Atmo_obs.Span.Ctx_switch);
  Some th

(* Work stealing: an idle CPU whose own queue is empty takes the OLDEST
   entry from the BACK of a randomized victim's queue (the classic
   deque split: owner pops the front, thieves pop the back).  The
   victim order is a seeded xorshift rotation, so runs are
   reproducible; a CPU never steals from itself. *)
let try_steal t ~cpu =
  let n = sched_cpus t in
  if n <= 1 then None
  else begin
    let start = steal_rand t mod n in
    let rec go i =
      if i >= n then None
      else
        let victim = (start + i) mod n in
        if victim = cpu then go (i + 1)
        else
          match Sched_queue.pop_back t.queues.(victim) with
          | None -> go (i + 1)
          | Some th ->
            Atmo_obs.Metrics.Counter.incr steal_ctr;
            note_steal t ~thief:cpu ~victim ~thread:th;
            (* the stolen thread migrates: future wakeups land here *)
            Hashtbl.replace t.home_cpu th cpu;
            Some th
    in
    go 0
  end

let dequeue_next_on t ~cpu =
  match Sched_queue.pop_front t.queues.(cpu) with
  | Some th -> run_thread t ~cpu th
  | None ->
    (match try_steal t ~cpu with
     | Some th -> run_thread t ~cpu th
     | None ->
       t.currents.(cpu) <- None;
       None)

let dequeue_next t = dequeue_next_on t ~cpu:t.cur_cpu

let preempt_on t ~cpu =
  match t.currents.(cpu) with
  | None -> ()
  | Some th ->
    t.currents.(cpu) <- None;
    enqueue_runnable t ~thread:th

let preempt_current t = preempt_on t ~cpu:t.cur_cpu

let run_queue_list t =
  Array.to_list t.queues |> List.concat_map Sched_queue.to_list

(* ------------------------------------------------------------------ *)
(* Termination                                                         *)

let remove_from_run_queue t ~thread =
  Array.iter (fun q -> Sched_queue.remove_if_queued q thread) t.queues;
  Array.iteri
    (fun i c -> if c = Some thread then t.currents.(i) <- None)
    t.currents

let remove_from_endpoint_queues t ~thread ~endpoint =
  if Perm_map.mem t.edpt_perms ~ptr:endpoint then
    Perm_map.update t.edpt_perms ~ptr:endpoint (fun e ->
        let strip q =
          match Static_list.remove q ~eq:eq_int thread with
          | Ok q' -> q'
          | Error `Absent -> q
        in
        {
          e with
          Endpoint.send_queue = strip e.Endpoint.send_queue;
          Endpoint.recv_queue = strip e.Endpoint.recv_queue;
        })

(* Destroy one thread: leave scheduler and wait queues, release endpoint
   descriptors, free the object page. *)
let destroy_thread t ~thread =
  let th = Perm_map.consume t.thrd_perms ~ptr:thread in
  remove_from_run_queue t ~thread;
  (* a dying thread must leave the steal ledger too — an entry that
     outlives its thread is exactly the steal-vs-terminate race the
     lost-steal lint hunts (the plant skips this scrub) *)
  scrub_steal_ledger t ~thread;
  Hashtbl.remove t.home_cpu thread;
  (match th.Thread.state with
   | Thread.Blocked_send e | Thread.Blocked_recv e ->
     remove_from_endpoint_queues t ~thread ~endpoint:e
   | Thread.Runnable | Thread.Running -> ());
  List.iter (fun (_, e) -> ignore (drop_endpoint_ref t ~endpoint:e)) (Thread.slots th);
  let p = Perm_map.borrow t.proc_perms ~ptr:th.Thread.owner_proc in
  free_object_page t ~container:p.Process.owner_container ~page:thread

(* Destroy one process (not its children): all threads, the address
   space, the page table, the object page. *)
let destroy_process_solo t ~proc =
  let p = Perm_map.borrow t.proc_perms ~ptr:proc in
  let container = p.Process.owner_container in
  List.iter (fun th -> destroy_thread t ~thread:th) (Static_list.to_list p.Process.threads);
  let p = Perm_map.consume t.proc_perms ~ptr:proc in
  (* Uncharge the address space: each mapped block was charged at its
     frame count; dec_ref returns frames to the allocator when the last
     mapping dies. *)
  let spaces = Page_table.address_space p.Process.pt in
  Imap.iter
    (fun _va (e : Page_table.entry) ->
      ignore (Page_alloc.dec_ref t.alloc ~addr:e.Page_table.frame);
      uncharge t ~container ~frames:(Atmo_pmem.Page_state.frames_per e.Page_table.size))
    spaces;
  let tables = Iset.cardinal (Page_table.page_closure p.Process.pt) in
  ignore (Page_table.destroy p.Process.pt);
  uncharge t ~container ~frames:tables;
  (* Unlink from the container and the process tree. *)
  Perm_map.update t.cntr_perms ~ptr:container (fun c ->
      match Static_list.remove c.Container.procs ~eq:eq_int proc with
      | Ok procs -> { c with Container.procs = procs }
      | Error `Absent -> c);
  (match p.Process.parent with
   | Some pp when Perm_map.mem t.proc_perms ~ptr:pp ->
     Perm_map.update t.proc_perms ~ptr:pp (fun parent ->
         match Static_list.remove parent.Process.children ~eq:eq_int proc with
         | Ok children -> { parent with Process.children = children }
         | Error `Absent -> parent)
   | Some _ | None -> ());
  free_object_page t ~container ~page:proc

(* Collect a process and all its descendants, children first, walking
   the concrete process tree. *)
let rec proc_descendants t ~proc acc =
  let p = Perm_map.borrow t.proc_perms ~ptr:proc in
  let acc =
    List.fold_left
      (fun acc child -> proc_descendants t ~proc:child acc)
      acc
      (Static_list.to_list p.Process.children)
  in
  proc :: acc

let terminate_process t ~proc =
  match Perm_map.borrow_opt t.proc_perms ~ptr:proc with
  | None -> Error Errno.Esrch
  | Some _ ->
    (* children-first order, so unlinking the parent is always safe *)
    let victims = List.rev (proc_descendants t ~proc []) in
    List.iter (fun pr -> destroy_process_solo t ~proc:pr) victims;
    Ok ()

let terminate_container t ~container =
  if container = t.root_container then Error Errno.Eperm
  else
    match Perm_map.borrow_opt t.cntr_perms ~ptr:container with
    | None -> Error Errno.Esrch
    | Some c ->
      let victims = Iset.add container c.Container.subtree in
      (* Tear down every process of every victim container.  Termination
         goes container by container; destroy_process_solo handles the
         threads and endpoint references. *)
      Iset.iter
        (fun cp ->
          let cc = Perm_map.borrow t.cntr_perms ~ptr:cp in
          List.iter
            (fun pr ->
              if Perm_map.mem t.proc_perms ~ptr:pr then
                ignore (terminate_process t ~proc:pr))
            (Static_list.to_list cc.Container.procs))
        victims;
      (* Endpoints owned by victims that survived (referenced from
         outside the subtree) are harvested by the parent: the page
         charge moves up. *)
      let parent = Option.get c.Container.parent in
      Perm_map.iter
        (fun ep e ->
          if Iset.mem e.Endpoint.owner_container victims then begin
            uncharge t ~container:e.Endpoint.owner_container ~frames:1;
            (* Re-charge unconditionally: harvesting must not fail, so it
               bypasses the quota check (the parent regains the child's
               delegation below, which always covers this page). *)
            Perm_map.update t.cntr_perms ~ptr:parent (fun pc ->
                { pc with Container.used = pc.Container.used + 1 });
            Perm_map.update t.edpt_perms ~ptr:ep (fun e ->
                { e with Endpoint.owner_container = parent })
          end)
        t.edpt_perms;
      (* Free the container pages themselves, children before parents so
         the used counter of a container is zero when it dies. *)
      let by_depth =
        Iset.elements victims
        |> List.map (fun cp -> (Perm_map.borrow t.cntr_perms ~ptr:cp, cp))
        |> List.sort (fun (a, _) (b, _) ->
               compare b.Container.depth a.Container.depth)
      in
      List.iter
        (fun (cc, cp) ->
          (match cc.Container.parent with
           | Some pp when not (Iset.mem pp victims) ->
             Perm_map.update t.cntr_perms ~ptr:pp (fun parent_c ->
                 let children =
                   match Static_list.remove parent_c.Container.children ~eq:eq_int cp with
                   | Ok ch -> ch
                   | Error `Absent -> parent_c.Container.children
                 in
                 {
                   parent_c with
                   Container.children;
                   Container.delegated = parent_c.Container.delegated - cc.Container.quota;
                 })
           | Some _ | None -> ());
          let cc = Perm_map.consume t.cntr_perms ~ptr:cp in
          ignore cc;
          Page_alloc.free_kernel_page t.alloc ~addr:cp)
        by_depth;
      (* Shrink the ghost subtree of every surviving ancestor. *)
      List.iter
        (fun anc ->
          if Perm_map.mem t.cntr_perms ~ptr:anc then
            Perm_map.update t.cntr_perms ~ptr:anc (fun a ->
                { a with Container.subtree = Iset.diff a.Container.subtree victims }))
        c.Container.path;
      Ok ()

(* ------------------------------------------------------------------ *)
(* Views                                                               *)

let subtree_containers t ~container =
  let c = Perm_map.borrow t.cntr_perms ~ptr:container in
  Iset.add container c.Container.subtree

let procs_of_subtree t ~container =
  let cs = subtree_containers t ~container in
  Perm_map.fold
    (fun p proc acc ->
      if Iset.mem proc.Process.owner_container cs then Iset.add p acc else acc)
    t.proc_perms Iset.empty

let threads_of_subtree t ~container =
  let ps = procs_of_subtree t ~container in
  Perm_map.fold
    (fun th thread acc ->
      if Iset.mem thread.Thread.owner_proc ps then Iset.add th acc else acc)
    t.thrd_perms Iset.empty

let object_pages t =
  Iset.union_list
    [
      Perm_map.dom t.cntr_perms;
      Perm_map.dom t.proc_perms;
      Perm_map.dom t.thrd_perms;
      Perm_map.dom t.edpt_perms;
    ]

let page_closure t =
  Perm_map.fold
    (fun _ p acc -> Iset.union acc (Page_table.page_closure p.Process.pt))
    t.proc_perms (object_pages t)

let used_by_container t ~container =
  let count_if b = if b then 1 else 0 in
  let own_page = count_if (Perm_map.mem t.cntr_perms ~ptr:container) in
  let proc_pages =
    Perm_map.fold
      (fun _ p acc ->
        if p.Process.owner_container = container then
          acc + 1
          + Iset.cardinal (Page_table.page_closure p.Process.pt)
          + Imap.fold
              (fun _ (e : Page_table.entry) a ->
                a + Atmo_pmem.Page_state.frames_per e.Page_table.size)
              (Page_table.address_space p.Process.pt)
              0
        else acc)
      t.proc_perms 0
  in
  let thread_pages =
    Perm_map.fold
      (fun _ th acc ->
        let p = Perm_map.borrow t.proc_perms ~ptr:th.Thread.owner_proc in
        if p.Process.owner_container = container then acc + 1 else acc)
      t.thrd_perms 0
  in
  let endpoint_pages =
    Perm_map.fold
      (fun _ e acc ->
        if e.Endpoint.owner_container = container then acc + 1 else acc)
      t.edpt_perms 0
  in
  own_page + proc_pages + thread_pages + endpoint_pages
  + external_of t ~container
