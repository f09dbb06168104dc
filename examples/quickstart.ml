(* Quickstart: boot the kernel, build a small world through system
   calls, exchange a message, and check the two theorems (refinement
   and total well-formedness) on every transition.

   Run with: dune exec examples/quickstart.exe *)

open Atmo_util
module Kernel = Atmo_core.Kernel
module Syscall = Atmo_spec.Syscall
module Message = Atmo_pm.Message
module H = Atmo_verif.Refine_harness
module Page_state = Atmo_pmem.Page_state
module Pte = Atmo_hw.Pte_bits

let say fmt = Format.printf (fmt ^^ "@.")

let step k ~thread call =
  (* every transition is checked against the abstract specification and
     the kernel-wide invariant, like the paper's refinement theorem *)
  let o = H.step_checked k ~thread call in
  (match (o.H.spec, o.H.wf) with
   | Ok (), Ok () -> ()
   | Error msg, _ -> failwith ("spec violation: " ^ msg)
   | _, Error msg -> failwith ("invariant violation: " ^ msg));
  say "  %-50s -> %s"
    (Format.asprintf "%a" Syscall.pp o.H.call)
    (Format.asprintf "%a" Syscall.pp_ret o.H.ret);
  o.H.ret

let () =
  say "Booting Atmosphere (16 MiB machine, root quota 4000 frames)...";
  let k, init =
    match Kernel.boot Kernel.default_boot with
    | Ok v -> v
    | Error e -> failwith (Format.asprintf "boot: %a" Errno.pp e)
  in
  say "init thread: 0x%x" init;

  say "@.Creating a container with a 256-frame quota and a worker setup:";
  ignore (step k ~thread:init (Syscall.New_container { quota = 256; cpus = Iset.empty }));
  ignore (step k ~thread:init Syscall.New_process);
  let worker =
    match step k ~thread:init Syscall.New_thread with
    | Syscall.Rptr t -> t
    | _ -> failwith "no worker thread"
  in

  say "@.Mapping an 8-page buffer into init's address space:";
  ignore
    (step k ~thread:init
       (Syscall.Mmap { va = 0x4000_0000; count = 8; size = Page_state.S4k; perm = Pte.perm_rw }));

  say "@.Rendezvous IPC with a page grant (worker waits, init sends):";
  ignore (step k ~thread:init (Syscall.New_endpoint { slot = 0 }));
  (* hand the descriptor to the worker over the endpoint-grant mechanism:
     the worker first blocks receiving on a descriptor init passes it at
     spawn time (trusted setup, as the boot environment would) *)
  (match
     Atmo_pm.Thread.slot
       (Atmo_pm.Perm_map.borrow k.Kernel.pm.Atmo_pm.Proc_mgr.thrd_perms ~ptr:init)
       0
   with
   | Some endpoint ->
     Atmo_pm.Proc_mgr.share_endpoint k.Kernel.pm ~thread:worker ~slot:0 ~endpoint
   | None -> failwith "no endpoint");
  ignore (step k ~thread:worker (Syscall.Recv { slot = 0 }));
  ignore
    (step k ~thread:init
       (Syscall.Send
          {
            slot = 0;
            msg =
              {
                Message.scalars = [ 42; 43 ];
                page = Some { Message.src_vaddr = 0x4000_0000; dst_vaddr = 0x7000_0000 };
                endpoint = None;
              };
          }));
  (match Kernel.take_delivered k ~thread:worker with
   | Some m -> say "worker received scalars: %s"
                 (String.concat ", " (List.map string_of_int m.Message.scalars))
   | None -> failwith "no delivery");
  (match
     ( Kernel.resolve_user k ~thread:init ~vaddr:0x4000_0000,
       Kernel.resolve_user k ~thread:worker ~vaddr:0x7000_0000 )
   with
   | Some a, Some b when a.Atmo_hw.Mmu.frame = b.Atmo_hw.Mmu.frame ->
     say "page shared: both map physical frame 0x%x" a.Atmo_hw.Mmu.frame
   | _ -> failwith "page grant failed");

  say "@.Tearing the buffer down again:";
  ignore
    (step k ~thread:init
       (Syscall.Munmap { va = 0x4000_0000; count = 8; size = Page_state.S4k }));

  say "@.Final state:";
  Format.printf "%a@." Atmo_spec.Abstract_state.pp (Atmo_core.Abstraction.abstract k);
  say "@.All transitions satisfied their specification. Done."
