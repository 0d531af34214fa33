(** A K-entry LRU cache in front of the linear list — the "what if
    BSD's cache were bigger?" ablation (experiment E24).

    Transaction entries almost never hit a K-entry cache (hit rate
    ~K/N after a 10 s think time), but response acknowledgements hit
    whenever fewer than K other connections' packets intervened during
    the response window — the same mechanism as the send/receive
    cache, K deep.  So a moderately large cache does help (unlike
    BSD's single entry), yet the miss penalty keeps the overall cost
    an order of magnitude above hashed chains.
    {!Analysis.Lru_model.cost} gives the matching analytic model;
    experiment E24 measures both. *)

type 'a t

val name : string

val create : ?entries:int -> unit -> 'a t
(** [entries] is the cache capacity K (default 8; K = 1 reproduces
    BSD's behaviour with an LRU-maintained slot).
    @raise Invalid_argument if [entries <= 0]. *)

val insert : 'a t -> Packet.Flow.t -> 'a -> 'a Pcb.t
(** @raise Invalid_argument if the flow is already present. *)

val remove : 'a t -> Packet.Flow.t -> 'a Pcb.t option
val lookup : 'a t -> ?kind:Types.packet_kind -> Packet.Flow.t -> 'a Pcb.t option
val note_send : 'a t -> Packet.Flow.t -> unit
val stats : 'a t -> Lookup_stats.t
val length : 'a t -> int
val iter : ('a Pcb.t -> unit) -> 'a t -> unit
