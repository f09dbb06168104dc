(* -1 is the nil link; the [member] flags are the source of truth for
   membership so that id 0 with nil links is unambiguous.  One byte per
   flag: an allocator builds three lists as long as its frame count. *)
type t = {
  name : string;
  prev : int array;
  next : int array;
  member : Bytes.t;
  mutable first : int;
  mutable last : int;
  mutable length : int;
}

let nil = -1

let create ~capacity ~name =
  if capacity <= 0 then invalid_arg "Dll.create: capacity <= 0";
  {
    name;
    prev = Array.make capacity nil;
    next = Array.make capacity nil;
    member = Bytes.make capacity '\000';
    first = nil;
    last = nil;
    length = 0;
  }

let is_member t id = Bytes.get t.member id <> '\000'
let set_member t id b = Bytes.set t.member id (if b then '\001' else '\000')

let name t = t.name
let capacity t = Array.length t.prev
let length t = t.length
let is_empty t = t.length = 0

let check_id t id op =
  if id < 0 || id >= capacity t then
    invalid_arg (Printf.sprintf "Dll.%s(%s): id %d out of range" op t.name id)

let mem t id =
  check_id t id "mem";
  is_member t id

let push_front t id =
  check_id t id "push_front";
  if is_member t id then
    invalid_arg (Printf.sprintf "Dll.push_front(%s): %d already a member" t.name id);
  set_member t id true;
  t.prev.(id) <- nil;
  t.next.(id) <- t.first;
  if t.first <> nil then t.prev.(t.first) <- id else t.last <- id;
  t.first <- id;
  t.length <- t.length + 1

let push_back t id =
  check_id t id "push_back";
  if is_member t id then
    invalid_arg (Printf.sprintf "Dll.push_back(%s): %d already a member" t.name id);
  set_member t id true;
  t.next.(id) <- nil;
  t.prev.(id) <- t.last;
  if t.last <> nil then t.next.(t.last) <- id else t.first <- id;
  t.last <- id;
  t.length <- t.length + 1

let remove t id =
  check_id t id "remove";
  if not (is_member t id) then
    invalid_arg (Printf.sprintf "Dll.remove(%s): %d not a member" t.name id);
  let p = t.prev.(id) and n = t.next.(id) in
  if p <> nil then t.next.(p) <- n else t.first <- n;
  if n <> nil then t.prev.(n) <- p else t.last <- p;
  set_member t id false;
  t.prev.(id) <- nil;
  t.next.(id) <- nil;
  t.length <- t.length - 1

let pop_front t =
  if t.first = nil then None
  else begin
    let id = t.first in
    remove t id;
    Some id
  end

let pop_back t =
  if t.last = nil then None
  else begin
    let id = t.last in
    remove t id;
    Some id
  end

let peek_front t = if t.first = nil then None else Some t.first

let iter t f =
  let rec go id = if id <> nil then begin f id; go t.next.(id) end in
  go t.first

type corruption =
  | Set_prev of int * int
  | Set_next of int * int
  | Set_member of int * bool
  | Set_length of int

let corrupt t = function
  | Set_prev (id, v) -> t.prev.(id) <- v
  | Set_next (id, v) -> t.next.(id) <- v
  | Set_member (id, b) -> set_member t id b
  | Set_length n -> t.length <- n

let to_list t =
  let acc = ref [] in
  iter t (fun id -> acc := id :: !acc);
  List.rev !acc

(* One forward walk that checks each hop's back link.  With
   [prev first = nil] and [last] = the walk's end, that is exactly "the
   forward and backward traversals agree", without building either. *)
let wf t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let cap = capacity t in
  let rec walk prev id count =
    if id = nil then
      if t.last <> prev then
        err "%s: last is %d but forward traversal ends at %d" t.name t.last prev
      else if count <> t.length then
        err "%s: length %d but traversal found %d" t.name t.length count
      else Ok ()
    else if count >= cap then err "%s: forward traversal exceeds capacity (cycle)" t.name
    else if id < 0 || id >= cap then err "%s: link to out-of-range id %d" t.name id
    else if not (is_member t id) then err "%s: %d linked but not a member" t.name id
    else if t.prev.(id) <> prev then err "%s: prev(%d) <> %d" t.name id prev
    else walk id t.next.(id) (count + 1)
  in
  match walk nil t.first 0 with
  | Error _ as e -> e
  | Ok () ->
    (* Membership flags must match exactly the traversed ids. *)
    let members = ref 0 in
    for id = 0 to cap - 1 do
      if is_member t id then incr members
    done;
    if !members <> t.length then
      err "%s: %d member flags but length %d" t.name !members t.length
    else Ok ()
