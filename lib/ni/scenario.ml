open Atmo_util
module Kernel = Atmo_core.Kernel
module Abstraction = Atmo_core.Abstraction
module Syscall = Atmo_spec.Syscall
module Proc_mgr = Atmo_pm.Proc_mgr

type t = {
  kernel : Kernel.t;
  init_thread : int;
  a_cntr : int;
  b_cntr : int;
  v_cntr : int;
  a_thread : int;
  b_thread : int;
  v_thread : int;
  ep_av : int;
  ep_bv : int;
}

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e
let errf fmt = Format.kasprintf (fun s -> Error s) fmt

let of_errno what = function
  | Ok v -> Ok v
  | Error e -> errf "%s: %a" what Errno.pp e

let ptr_of what = function
  | Syscall.Rptr p -> Ok p
  | r -> errf "%s: %a" what Syscall.pp_ret r

let build ?(boot = Kernel.default_boot) ?(quota_a = 256) ?(quota_b = 256) ?(quota_v = 128)
    () =
  let* k, init = of_errno "boot" (Kernel.boot boot) in
  let new_cntr quota cpus =
    ptr_of "new_container" (Kernel.step k ~thread:init (Syscall.New_container { quota; cpus }))
  in
  let* a_cntr = new_cntr quota_a (Iset.singleton 0) in
  let* b_cntr = new_cntr quota_b (Iset.singleton 1) in
  let* v_cntr = new_cntr quota_v (Iset.singleton 2) in
  let populate cntr =
    let* p = of_errno "new_process" (Proc_mgr.new_process k.Kernel.pm ~container:cntr ~parent:None) in
    let* th = of_errno "new_thread" (Proc_mgr.new_thread k.Kernel.pm ~proc:p) in
    Ok th
  in
  let* a_thread = populate a_cntr in
  let* b_thread = populate b_cntr in
  let* v_thread = populate v_cntr in
  (* V creates its two service endpoints through ordinary syscalls *)
  let* ep_av =
    ptr_of "ep_av" (Kernel.step k ~thread:v_thread (Syscall.New_endpoint { slot = 0 }))
  in
  let* ep_bv =
    ptr_of "ep_bv" (Kernel.step k ~thread:v_thread (Syscall.New_endpoint { slot = 1 }))
  in
  (* trusted boot wiring: the initial capability configuration that
     exists before the measured trace *)
  Proc_mgr.share_endpoint k.Kernel.pm ~thread:a_thread ~slot:0 ~endpoint:ep_av;
  Proc_mgr.share_endpoint k.Kernel.pm ~thread:b_thread ~slot:0 ~endpoint:ep_bv;
  let t =
    {
      kernel = k;
      init_thread = init;
      a_cntr;
      b_cntr;
      v_cntr;
      a_thread;
      b_thread;
      v_thread;
      ep_av;
      ep_bv;
    }
  in
  (match Atmo_core.Invariants.total_wf k with
   | Ok () -> Ok t
   | Error msg -> errf "scenario not wf: %s" msg)

let abstract t = Abstraction.abstract t.kernel

let check_isolation t =
  Isolation.iso (abstract t) ~a:t.a_cntr ~b:t.b_cntr
