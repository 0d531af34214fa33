(** Hash chains with move-to-front inside each chain — the combination
    the paper's Section 3.5 weighs and rejects: its best case is a
    factor-of-two win over plain chains, while merely increasing [H]
    from 19 to 100 wins a factor of five.  Implemented so that trade
    can be measured (experiment E17). *)

type 'a t

val name : string

val create : ?chains:int -> ?hasher:Hashing.Hashers.t -> unit -> 'a t
(** Defaults match {!Sequent.create}.
    @raise Invalid_argument if [chains <= 0]. *)

val insert : 'a t -> Packet.Flow.t -> 'a -> 'a Pcb.t
(** @raise Invalid_argument if the flow is already present. *)

val remove : 'a t -> Packet.Flow.t -> 'a Pcb.t option
val lookup : 'a t -> ?kind:Types.packet_kind -> Packet.Flow.t -> 'a Pcb.t option
val note_send : 'a t -> Packet.Flow.t -> unit
val stats : 'a t -> Lookup_stats.t
val length : 'a t -> int
val iter : ('a Pcb.t -> unit) -> 'a t -> unit
