(* Epoch.Packed's copy-on-write publication without its grace period:
   the planted bug below is the only write-side logic here. *)

module P = Demux.Packed_table.Heap

type t = P.region Atomic.t
type view = P.region

let hash = Demux.Packed_table.default_hash
let create () = Atomic.make (P.Region.create ~capacity:8)

(* THE PLANTED BUG: the replaced region is poisoned NOW, pins or no
   pins.  Epoch.Packed's publish hands it to Core.retire instead. *)
let replace t ~w0 ~w1 v =
  let cur = Atomic.get t in
  Atomic.set t (P.Region.bound cur ~hash:(hash w0 w1) ~w0 ~w1 v);
  Demux.Storage.Heap.scrub cur.P.store

let pin = Atomic.get

let view_find (r : view) ~w0 ~w1 =
  let slot = P.Region.slot r ~hash:(hash w0 w1) ~w0 ~w1 in
  if slot < 0 then None else Some (Demux.Storage.Heap.value r.P.store slot)

let unpin _ = ()
let pending _ = 0
let quiesce _ = ()
