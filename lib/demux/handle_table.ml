(* Boxed values behind Packed_table.Heap's int value lane; see the .mli.
   No probing happens here: every index operation is one engine call. *)

module P = Packed_table.Heap

module Slots = struct
  type 'a t = {
    mutable values : 'a array;
    mutable free : int array;  (* freed handles, a stack of [top] *)
    mutable top : int;
    mutable issued : int;  (* handles [0, issued) have been claimed *)
  }

  (* What a vacant handle holds: an immediate, never read back (a
     handle is dereferenced only while something binds it), so a freed
     value is released to the GC at once.  Arrays built around it are
     ordinary boxed arrays, even for float values. *)
  let vacant () : 'a = Obj.magic 0

  let create () = { values = [||]; free = [||]; top = 0; issued = 0 }
  let next t = if t.top > 0 then t.free.(t.top - 1) else t.issued

  (* The value array and the free stack grow together, to the number
     of handles issued: the stack can never hold more. *)
  let grow t =
    let n = max 8 (2 * t.issued) in
    let values = Array.make n (vacant ()) and free = Array.make n 0 in
    Array.blit t.values 0 values 0 t.issued;
    Array.blit t.free 0 free 0 t.top;
    t.values <- values;
    t.free <- free

  let claim t v =
    if t.top > 0 then begin
      t.top <- t.top - 1;
      t.values.(t.free.(t.top)) <- v
    end
    else begin
      if t.issued = Array.length t.values then grow t;
      t.values.(t.issued) <- v;
      t.issued <- t.issued + 1
    end

  let get t h = Array.unsafe_get t.values h
  let set t h v = t.values.(h) <- v

  let release t h =
    t.values.(h) <- vacant ();
    t.free.(t.top) <- h;
    t.top <- t.top + 1
end

type 'a t = { index : P.t; slots : 'a Slots.t }

let create ?initial_capacity () =
  { index = P.create ?initial_capacity (); slots = Slots.create () }

let length t = P.length t.index
let handles t = t.slots.Slots.issued

let find t { Packet.Flow.w0; w1 } = Slots.get t.slots (P.find t.index ~w0 ~w1)

let find_opt t flow =
  match find t flow with v -> Some v | exception Not_found -> None

let mem t { Packet.Flow.w0; w1 } = P.mem t.index ~w0 ~w1

(* Offer the next free handle; the engine keeps an existing key's own
   handle instead, and then the offered one is never claimed. *)
let replace t { Packet.Flow.w0; w1 } v =
  let h = Slots.next t.slots in
  let bound = P.add t.index ~w0 ~w1 h in
  if bound = h then Slots.claim t.slots v else Slots.set t.slots bound v

let remove t { Packet.Flow.w0; w1 } =
  let h = P.take t.index ~w0 ~w1 ~default:(-1) in
  if h >= 0 then Slots.release t.slots h

let iter f t = P.iter (fun ~w0:_ ~w1:_ h -> f (Slots.get t.slots h)) t.index
