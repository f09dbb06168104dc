(** Harness worlds, each defined once: the CLI, the benches, the tests
    and the kv-store demo build them from here.

    - {!dma_arena}: a standalone DMA environment for one device;
    - {!hostile_sweep}: the seeded fault sweep over all four device
      models (ixgbe, virtio-net, NVMe, virtio-blk);
    - {!ping_pong}: a second thread sharing init's slot-0 endpoint, with
      the send/recv programs the SMP simulator runs over it.

    Failures while building a world raise [Failure]: a world that cannot
    be built is a harness bug, not a measured outcome. *)

val dma_arena :
  page_count:int -> device:int -> Atmo_hw.Phys_mem.t * Atmo_hw.Iommu.t * (int -> int)
(** [dma_arena ~page_count ~device] is [(mem, iommu, span)]: fresh
    memory of [page_count] frames, an identity-style page table attached
    to the IOMMU as [device], and a bump allocator — [span bytes] maps
    enough fresh frames read-write at the next free iova (starting at
    [0x20_0000]) and returns the range's base.  Device traffic here
    cannot touch any kernel's memory. *)

val hostile_blk_sweep : seed:int -> steps:int -> kind:[ `Nvme | `Virtio ] -> int
(** One hostile run of a block device (NVMe as device 12, virtio-blk as
    13): [steps] reads and writes (every third a write) with a poll every
    eighth, then a drain with the fault engine detached.  Returns the
    number of faults the driver absorbed as typed errors. *)

val hostile_sweep : seed:int -> steps:int -> int
(** All four devices, seeded [seed], [seed + 1], [seed + 2], [seed + 3]
    in the order ixgbe (device 11), virtio-net (14), NVMe, virtio-blk;
    the sum of their typed-error counts.  Each NIC runs in its own arena
    for [steps] rounds of deliver + rx with a tx every fourth, then
    drains with the fault engine detached.  Every device is quiescent
    afterwards, so [Driver_lint] has nothing to flag. *)

type ping_pong = {
  receiver : int;  (** the second thread, holding the endpoint in slot 0 *)
  endpoint : int;
      (** init's slot-0 endpoint, shared through
          {!Atmo_pm.Proc_mgr.share_endpoint} *)
  programs : Atmo_sim.Smp.program list;
      (** receiver loops on [Recv], init on [Send] of its round number
          (600 and 800 think cycles) *)
}

val ping_pong : Atmo_core.Kernel.t -> init:int -> ping_pong
(** Build the ping-pong world on a freshly booted kernel through two
    [init] syscalls ([New_thread], [New_endpoint {slot = 0}]) and one
    handoff.  Callers that model the big lock wrap the call in it. *)

(** {2 The scripted kernel workload}

    What [atmo trace] records and [atmo san] checks: {!ping_pong} for
    [iterations] rounds on two CPUs, then harness steps from [init] —
    mmap with MMU walks, mprotect, munmap and a 2 MiB superpage round
    trip; one more rendezvous; IOMMU assignment with a DMA window and an
    interrupt to the parked receiver; a container created and
    terminated — and an NVMe write/read phase.  Past the SMP phase a
    virtual clock advances by each step's model cost; while a recorder
    is installed it stamps events and each step lands in
    [lat/syscall/<name>].  Cycle totals do not depend on the sink, and
    the sink's clock is the caller's again on return or raise. *)

type guard = { guard : 'a. (unit -> 'a) -> 'a }
(** Wrapped around the world build and every harness step; the
    sanitizer passes the modelled big lock. *)

val unguarded : guard

type script = {
  world : ping_pong;
  smp : Atmo_sim.Smp.stats;  (** the ping-pong phase *)
  kernel_cycles : int;  (** the virtual clock after the last harness step *)
  drv_cycles : int;  (** the NVMe device clock at the end *)
}

val scripted : guard -> Atmo_core.Kernel.t -> init:int -> iterations:int -> script
