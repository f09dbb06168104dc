type 'f t = {
  mutable armed : bool;
  mutable subs : (string * 'f) list;
  count : int Atomic.t;
}

let create () = { armed = false; subs = []; count = Atomic.make 0 }

let add h ~key f =
  h.subs <- (key, f) :: List.remove_assoc key h.subs;
  h.armed <- true

let remove h ~key =
  h.subs <- List.remove_assoc key h.subs;
  h.armed <- h.subs <> []

let note h = Atomic.incr h.count
let count h = Atomic.get h.count
