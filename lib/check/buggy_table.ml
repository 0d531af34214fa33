(* The real engine, with the planted bug below as its only change. *)

include Demux.Packed_table.Heap

let create () = create ()

(* THE PLANTED BUG: a correct Robin-Hood delete backward-shifts the
   displaced successors of the vacated slot.  This one just clears it,
   leaving an empty hole that terminates later probes early and strands
   any entry that had been pushed past the slot.  (Keys found only in a
   draining old region take the real path.) *)
let remove t ~w0 ~w1 =
  let r = live t in
  let hash = Demux.Packed_table.default_hash w0 w1 in
  let slot = Region.slot r ~hash ~w0 ~w1 in
  if slot < 0 then remove t ~w0 ~w1
  else begin
    Demux.Storage.Heap.set_tag r.store slot 0;
    r.count <- r.count - 1
  end
