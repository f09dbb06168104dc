(** The abstract kernel state Ψ.

    Pure-data model of the whole kernel: every object kind as a map from
    pointer to abstract record, plus the explicit memory-allocator state
    (§4.2) as four page sets.  System-call specifications
    ({!Syscall_spec}) are relations between two values of {!t}; the
    concrete kernel is refined into this state by [Atmo_core.Abstraction].

    Equality is structural and total, so specs can state frame conditions
    ("every other object is unchanged") by direct comparison. *)

type athread = {
  at_owner_proc : int;
  at_state : Atmo_pm.Thread.sched_state;
  at_slots : (int * int) list;  (** occupied descriptor slots, ascending index *)
  at_msg : Atmo_pm.Message.t option;
}

type aproc = {
  ap_owner_container : int;
  ap_parent : int option;
  ap_children : int list;
  ap_threads : int list;
  ap_space : Atmo_pt.Page_table.entry Atmo_util.Imap.t;  (** vaddr -> mapping *)
  ap_pt_pages : Atmo_util.Iset.t;  (** page closure of the page table *)
}

type acontainer = {
  ac_parent : int option;
  ac_children : int list;
  ac_procs : int list;
  ac_quota : int;
  ac_used : int;
  ac_delegated : int;
  ac_cpus : Atmo_util.Iset.t;
  ac_depth : int;
  ac_path : int list;
  ac_subtree : Atmo_util.Iset.t;
}

type aendpoint = {
  ae_owner_container : int;
  ae_send_queue : int list;
  ae_recv_queue : int list;
  ae_refcount : int;
}

type adevice = {
  ad_owner_proc : int;
  ad_io_space : Atmo_pt.Page_table.entry Atmo_util.Imap.t;
      (** iova -> mapping, the device's DMA window *)
  ad_pt_pages : Atmo_util.Iset.t;  (** closure of the IOMMU page table *)
  ad_irq_endpoint : int option;  (** where the device's interrupt is routed *)
  ad_irq_pending : int;  (** interrupts raised with no receiver waiting *)
}

type t = {
  containers : acontainer Atmo_util.Imap.t;
  procs : aproc Atmo_util.Imap.t;
  threads : athread Atmo_util.Imap.t;
  endpoints : aendpoint Atmo_util.Imap.t;
  root : int;
  run_queue : int list;
  current : int option;
  free_4k : Atmo_util.Iset.t;
  free_2m : Atmo_util.Iset.t;
  free_1g : Atmo_util.Iset.t;
  allocated : Atmo_util.Iset.t;
  mapped : Atmo_util.Iset.t;
  merged : Atmo_util.Iset.t;
  devices : adevice Atmo_util.Imap.t;  (** IOMMU device table *)
}

val equal_athread : athread -> athread -> bool
val equal_aproc : aproc -> aproc -> bool
val equal_acontainer : acontainer -> acontainer -> bool
val equal_aendpoint : aendpoint -> aendpoint -> bool
val equal_adevice : adevice -> adevice -> bool
val equal : t -> t -> bool

(** {2 Accessors (the paper's Ψ.get_* spec functions)} *)

val proc_dom : t -> Atmo_util.Iset.t

val get_address_space : t -> proc:int -> Atmo_pt.Page_table.entry Atmo_util.Imap.t
(** Abstract address space of a process (empty for dead pointers). *)

val proc_of_thread : t -> thread:int -> int option
val container_of_thread : t -> thread:int -> int option

val page_is_free : t -> int -> bool
(** The paper's [page_is_free]: the frame is in one of the free sets. *)

(** {2 Frame-condition helpers} *)

val threads_unchanged_except : t -> t -> Atmo_util.Iset.t -> bool
(** Thread maps agree outside the touched set (same domain, equal
    values). *)

val procs_unchanged_except : t -> t -> Atmo_util.Iset.t -> bool
val containers_unchanged_except : t -> t -> Atmo_util.Iset.t -> bool
val endpoints_unchanged_except : t -> t -> Atmo_util.Iset.t -> bool

val space_unchanged_except : t -> t -> proc:int -> Atmo_util.Iset.t -> bool
(** The address space of [proc] agrees outside the touched virtual
    addresses (the paper's "virtual addresses outside va_range are not
    changed"). *)

val memory_unchanged : t -> t -> bool
(** All four allocator sets are equal. *)

val devices_unchanged_except : t -> t -> Atmo_util.Iset.t -> bool

val pp : Format.formatter -> t -> unit
(** Terse multi-line summary (object counts, allocator totals). *)
