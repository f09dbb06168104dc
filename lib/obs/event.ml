open Atmo_util

type dir = Dir_send | Dir_recv

type t =
  | Syscall_enter of { thread : int; sysno : int }
  | Syscall_exit of { thread : int; sysno : int; errno : Errno.t option }
  | Page_alloc of { addr : int; order : int }
  | Page_free of { addr : int; order : int }
  | Superpage_merge of { head : int; order : int }
  | Ep_create of { container : int }
  | Ep_send of { ep : int; sender : int; receiver : int }
  | Ep_recv of { ep : int; receiver : int; sender : int }
  | Ep_block of { ep : int; thread : int; dir : dir }
  | Mmu_walk of { vaddr : int; ok : bool }
  | Pte_touch of { table : int; index : int }
  | Drv_doorbell of { device : int; queue : int }
  | Drv_completion of { device : int; count : int }
  | Lock_acquire of { cpu : int; wait_cycles : int }
  | Tlb_hit of { vaddr : int }
  | Tlb_miss of { vaddr : int }
  | Tlb_flush of { asid : int; entries : int }
  | Ep_fastpath of { ep : int; sender : int; receiver : int }
  | Span_begin of { span : int; parent : int; kind : int; owner : int }
  | Span_end of { span : int; kind : int; owner : int }
  | Causal of { edge : int; src : int; dst : int }
  | Dev_fault of { device : int; fault : int }
  | Dev_recover of { device : int; fault : int }
  | Span_pair of { span : int; parent : int; kind : int; owner : int }

type record = { ts : int; cpu : int; ev : t }

(* Keep in declaration order of [Atmo_spec.Syscall.t]; the cross-check
   lives in test_obs so the two libraries cannot drift silently. *)
let syscall_names =
  [|
    "mmap"; "munmap"; "mprotect"; "new_container"; "new_process"; "new_thread";
    "new_endpoint"; "close_endpoint"; "send"; "recv"; "send_nb"; "recv_nb";
    "recv_reject"; "yield"; "terminate_container"; "terminate_process";
    "assign_device"; "io_map"; "io_unmap"; "register_irq"; "irq_fire";
  |]

let syscall_count = Array.length syscall_names

let syscall_name n =
  if n >= 0 && n < syscall_count then syscall_names.(n)
  else Printf.sprintf "sys?%d" n

(* Span kind codes are one byte.  1-15 are fixed structural kinds,
   16-63 are application-registered kinds (named via the Span registry;
   the raw decoder only knows the code), 64+ are syscall spans keyed by
   syscall number. *)
let span_kind_name = function
  | 1 -> "request"
  | 2 -> "ipc_rendezvous"
  | 3 -> "ctx_switch"
  | 4 -> "mmu_fill"
  | 5 -> "drv_submit"
  | 6 -> "drv_complete"
  | 7 -> "irq"
  | 8 -> "user"
  | 9 -> "lock_wait"
  | n when n >= 64 -> "sys_" ^ syscall_name (n - 64)
  | n when n >= 16 -> Printf.sprintf "app%d" n
  | n -> Printf.sprintf "span%d" n

let causal_name = function
  | 1 -> "ipc"
  | 2 -> "irq"
  | 3 -> "drv"
  | 4 -> "wakeup"
  | n -> Printf.sprintf "edge%d" n

(* Device-fault codes carried by [Dev_fault]/[Dev_recover].  Kept in
   sync with [Atmo_devmodel.Fault.code] (obs cannot depend on devmodel;
   the cross-check lives in test_devmodel). *)
let fault_name = function
  | 1 -> "malformed-desc"
  | 2 -> "short-desc"
  | 3 -> "spurious-irq"
  | 4 -> "irq-storm"
  | 5 -> "reorder-completion"
  | 6 -> "duplicate-completion"
  | 7 -> "dma-escape"
  | n -> Printf.sprintf "fault%d" n

(* ------------------------------------------------------------------ *)
(* Tags                                                                *)

(* 1-based tag byte of each constructor (0 marks an empty slot); the
   same codes index [fields]/[decode] and the sink's per-tag filter
   bitmask, sampling shifts, and emitted/sampled-out counters. *)
let tag_syscall_enter = 1
let tag_syscall_exit = 2
let tag_page_alloc = 3
let tag_page_free = 4
let tag_superpage_merge = 5
let tag_ep_create = 6
let tag_ep_send = 7
let tag_ep_recv = 8
let tag_ep_block = 9
let tag_mmu_walk = 10
let tag_pte_touch = 11
let tag_drv_doorbell = 12
let tag_drv_completion = 13
let tag_lock_acquire = 14
let tag_tlb_hit = 15
let tag_tlb_miss = 16
let tag_tlb_flush = 17
let tag_ep_fastpath = 18
let tag_span_begin = 19
let tag_span_end = 20
let tag_causal = 21
let tag_dev_fault = 22
let tag_dev_recover = 23
let tag_span_pair = 24
let tag_count = 24

(* Index 0 is the empty slot and has no name. *)
let tag_names =
  [|
    ""; "syscall_enter"; "syscall_exit"; "page_alloc"; "page_free";
    "superpage_merge"; "ep_create"; "ep_send"; "ep_recv"; "ep_block";
    "mmu_walk"; "pte_touch"; "drv_doorbell"; "drv_completion";
    "lock_acquire"; "tlb_hit"; "tlb_miss"; "tlb_flush"; "ep_fastpath";
    "span_begin"; "span_end"; "causal"; "dev_fault"; "dev_recover";
    "span_pair";
  |]

let tag_name t = if t >= 1 && t <= tag_count then tag_names.(t) else Printf.sprintf "tag?%d" t

let tag_of_name name =
  let rec go i = if i > tag_count then None else if tag_names.(i) = name then Some i else go (i + 1) in
  go 1

let all_tags_mask = ((1 lsl (tag_count + 1)) - 1) land lnot 1

(* ------------------------------------------------------------------ *)
(* Binary encoding                                                     *)

(* One event is a fixed 40-byte slot:
     byte  0      tag (1-based; 0 means "empty slot")
     byte  1      small auxiliary field (sysno / order / dir / flag)
     byte  2      cpu
     bytes 3-7    reserved (zero)
     bytes 8-15   timestamp, cycles, u64 LE
     bytes 16-23  field a, u64 LE
     bytes 24-31  field b, u64 LE
     bytes 32-39  field c, u64 LE *)
let slot_bytes = 40

let errno_code = function
  | Errno.Enomem -> 1
  | Errno.Equota -> 2
  | Errno.Einval -> 3
  | Errno.Esrch -> 4
  | Errno.Eperm -> 5
  | Errno.Efull -> 6
  | Errno.Eexist -> 7
  | Errno.Ewouldblock -> 8
  | Errno.Ebusy -> 9

let errno_of_code = function
  | 1 -> Some Errno.Enomem
  | 2 -> Some Errno.Equota
  | 3 -> Some Errno.Einval
  | 4 -> Some Errno.Esrch
  | 5 -> Some Errno.Eperm
  | 6 -> Some Errno.Efull
  | 7 -> Some Errno.Eexist
  | 8 -> Some Errno.Ewouldblock
  | 9 -> Some Errno.Ebusy
  | _ -> None

let fields = function
  | Syscall_enter { thread; sysno } -> (1, sysno, thread, 0, 0)
  | Syscall_exit { thread; sysno; errno } ->
    (2, sysno, thread, (match errno with None -> 0 | Some e -> errno_code e), 0)
  | Page_alloc { addr; order } -> (3, order, addr, 0, 0)
  | Page_free { addr; order } -> (4, order, addr, 0, 0)
  | Superpage_merge { head; order } -> (5, order, head, 0, 0)
  | Ep_create { container } -> (6, 0, container, 0, 0)
  | Ep_send { ep; sender; receiver } -> (7, 0, ep, sender, receiver)
  | Ep_recv { ep; receiver; sender } -> (8, 0, ep, receiver, sender)
  | Ep_block { ep; thread; dir } ->
    (9, (match dir with Dir_send -> 0 | Dir_recv -> 1), ep, thread, 0)
  | Mmu_walk { vaddr; ok } -> (10, (if ok then 1 else 0), vaddr, 0, 0)
  | Pte_touch { table; index } -> (11, 0, table, index, 0)
  | Drv_doorbell { device; queue } -> (12, 0, device, queue, 0)
  | Drv_completion { device; count } -> (13, 0, device, count, 0)
  | Lock_acquire { cpu; wait_cycles } -> (14, 0, cpu, wait_cycles, 0)
  | Tlb_hit { vaddr } -> (15, 0, vaddr, 0, 0)
  | Tlb_miss { vaddr } -> (16, 0, vaddr, 0, 0)
  | Tlb_flush { asid; entries } -> (17, 0, asid, entries, 0)
  | Ep_fastpath { ep; sender; receiver } -> (18, 0, ep, sender, receiver)
  | Span_begin { span; parent; kind; owner } -> (19, kind land 0xff, span, parent, owner)
  | Span_end { span; kind; owner } -> (20, kind land 0xff, span, owner, 0)
  | Causal { edge; src; dst } -> (21, edge land 0xff, src, dst, 0)
  | Dev_fault { device; fault } -> (22, fault land 0xff, device, 0, 0)
  | Dev_recover { device; fault } -> (23, fault land 0xff, device, 0, 0)
  | Span_pair { span; parent; kind; owner } -> (24, kind land 0xff, span, parent, owner)

let tag_of ev =
  let tag, _, _, _, _ = fields ev in
  tag

let kind ev = tag_name (tag_of ev)

let encode ~ts ~cpu ev =
  let tag, aux, a, b, c = fields ev in
  let buf = Bytes.make slot_bytes '\000' in
  Bytes.set_uint8 buf 0 tag;
  Bytes.set_uint8 buf 1 aux;
  Bytes.set_uint8 buf 2 (cpu land 0xff);
  Bytes.set_int64_le buf 8 (Int64.of_int ts);
  Bytes.set_int64_le buf 16 (Int64.of_int a);
  Bytes.set_int64_le buf 24 (Int64.of_int b);
  Bytes.set_int64_le buf 32 (Int64.of_int c);
  buf

(* Decode one slot at an arbitrary arena offset — the sink's merged
   stream decodes rings in place instead of [Bytes.sub]-ing every slot. *)
let decode_at buf off =
  if off < 0 || Bytes.length buf - off < slot_bytes then None
  else begin
    let tag = Bytes.get_uint8 buf off in
    let aux = Bytes.get_uint8 buf (off + 1) in
    let cpu = Bytes.get_uint8 buf (off + 2) in
    let ts = Int64.to_int (Bytes.get_int64_le buf (off + 8)) in
    let a = Int64.to_int (Bytes.get_int64_le buf (off + 16)) in
    let b = Int64.to_int (Bytes.get_int64_le buf (off + 24)) in
    let c = Int64.to_int (Bytes.get_int64_le buf (off + 32)) in
    let ev =
      match tag with
      | 1 -> Some (Syscall_enter { thread = a; sysno = aux })
      | 2 -> Some (Syscall_exit { thread = a; sysno = aux; errno = errno_of_code b })
      | 3 -> Some (Page_alloc { addr = a; order = aux })
      | 4 -> Some (Page_free { addr = a; order = aux })
      | 5 -> Some (Superpage_merge { head = a; order = aux })
      | 6 -> Some (Ep_create { container = a })
      | 7 -> Some (Ep_send { ep = a; sender = b; receiver = c })
      | 8 -> Some (Ep_recv { ep = a; receiver = b; sender = c })
      | 9 ->
        Some (Ep_block { ep = a; thread = b; dir = (if aux = 0 then Dir_send else Dir_recv) })
      | 10 -> Some (Mmu_walk { vaddr = a; ok = aux = 1 })
      | 11 -> Some (Pte_touch { table = a; index = b })
      | 12 -> Some (Drv_doorbell { device = a; queue = b })
      | 13 -> Some (Drv_completion { device = a; count = b })
      | 14 -> Some (Lock_acquire { cpu = a; wait_cycles = b })
      | 15 -> Some (Tlb_hit { vaddr = a })
      | 16 -> Some (Tlb_miss { vaddr = a })
      | 17 -> Some (Tlb_flush { asid = a; entries = b })
      | 18 -> Some (Ep_fastpath { ep = a; sender = b; receiver = c })
      | 19 -> Some (Span_begin { span = a; parent = b; kind = aux; owner = c })
      | 20 -> Some (Span_end { span = a; kind = aux; owner = b })
      | 21 -> Some (Causal { edge = aux; src = a; dst = b })
      | 22 -> Some (Dev_fault { device = a; fault = aux })
      | 23 -> Some (Dev_recover { device = a; fault = aux })
      | 24 -> Some (Span_pair { span = a; parent = b; kind = aux; owner = c })
      | _ -> None
    in
    Option.map (fun ev -> { ts; cpu; ev }) ev
  end

let decode buf = decode_at buf 0

let equal (a : t) (b : t) = a = b

let pp ppf = function
  | Syscall_enter { thread; sysno } ->
    Format.fprintf ppf "syscall_enter  %-18s thread=0x%x" (syscall_name sysno) thread
  | Syscall_exit { thread; sysno; errno } ->
    Format.fprintf ppf "syscall_exit   %-18s thread=0x%x %s" (syscall_name sysno) thread
      (match errno with None -> "ok" | Some e -> Errno.to_string e)
  | Page_alloc { addr; order } ->
    Format.fprintf ppf "page_alloc     addr=0x%x order=%d" addr order
  | Page_free { addr; order } ->
    Format.fprintf ppf "page_free      addr=0x%x order=%d" addr order
  | Superpage_merge { head; order } ->
    Format.fprintf ppf "superpage_merge head=0x%x order=%d" head order
  | Ep_create { container } -> Format.fprintf ppf "ep_create      container=0x%x" container
  | Ep_send { ep; sender; receiver } ->
    Format.fprintf ppf "ep_send        ep=0x%x sender=0x%x receiver=0x%x" ep sender receiver
  | Ep_recv { ep; receiver; sender } ->
    Format.fprintf ppf "ep_recv        ep=0x%x receiver=0x%x sender=0x%x" ep receiver sender
  | Ep_block { ep; thread; dir } ->
    Format.fprintf ppf "ep_block       ep=0x%x thread=0x%x dir=%s" ep thread
      (match dir with Dir_send -> "send" | Dir_recv -> "recv")
  | Mmu_walk { vaddr; ok } ->
    Format.fprintf ppf "mmu_walk       vaddr=0x%x %s" vaddr (if ok then "hit" else "miss")
  | Pte_touch { table; index } ->
    Format.fprintf ppf "pte_touch      table=0x%x index=%d" table index
  | Drv_doorbell { device; queue } ->
    Format.fprintf ppf "drv_doorbell   device=%d queue=%d" device queue
  | Drv_completion { device; count } ->
    Format.fprintf ppf "drv_completion device=%d count=%d" device count
  | Lock_acquire { cpu; wait_cycles } ->
    Format.fprintf ppf "lock_acquire   cpu=%d wait=%d" cpu wait_cycles
  | Tlb_hit { vaddr } -> Format.fprintf ppf "tlb_hit        vaddr=0x%x" vaddr
  | Tlb_miss { vaddr } -> Format.fprintf ppf "tlb_miss       vaddr=0x%x" vaddr
  | Tlb_flush { asid; entries } ->
    Format.fprintf ppf "tlb_flush      asid=0x%x entries=%d" asid entries
  | Ep_fastpath { ep; sender; receiver } ->
    Format.fprintf ppf "ep_fastpath    ep=0x%x sender=0x%x receiver=0x%x" ep sender receiver
  | Span_begin { span; parent; kind; owner } ->
    Format.fprintf ppf "span_begin     %-14s #%d parent=#%d owner=0x%x" (span_kind_name kind)
      span parent owner
  | Span_end { span; kind; owner } ->
    Format.fprintf ppf "span_end       %-14s #%d owner=0x%x" (span_kind_name kind) span owner
  | Causal { edge; src; dst } ->
    Format.fprintf ppf "causal         %-14s #%d -> #%d" (causal_name edge) src dst
  | Dev_fault { device; fault } ->
    Format.fprintf ppf "dev_fault      device=%d %s" device (fault_name fault)
  | Dev_recover { device; fault } ->
    Format.fprintf ppf "dev_recover    device=%d %s" device (fault_name fault)
  | Span_pair { span; parent; kind; owner } ->
    Format.fprintf ppf "span_pair      %-14s #%d parent=#%d owner=0x%x" (span_kind_name kind)
      span parent owner

let pp_record ppf r =
  Format.fprintf ppf "[cpu%d @%10d] %a" r.cpu r.ts pp r.ev
