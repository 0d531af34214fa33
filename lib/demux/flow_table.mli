(** Hashtable keyed by flows, for bookkeeping off the receive path
    (the SMP harness's migration ledgers and the checker's per-flow
    state).  No lookup algorithm uses it: their indexes are
    {!Packed_table}s. *)

include Hashtbl.S with type key = Packet.Flow.t
