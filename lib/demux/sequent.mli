(** The Sequent algorithm (paper Section 3.4): [H] hash chains, each a
    linear list with its own single-entry last-found cache.

    Lookup hashes the flow to a chain, probes that chain's cache (one
    examination), and on a miss scans only that chain.  Expected cost
    under TPC/A is Equation 22 — about [N/2H], e.g. 53 PCBs for
    N = 2000, H = 19 versus BSD's 1001 — and the system administrator
    can buy performance with more chains (H = 100 gives < 9).  The
    installation default number of chains in Sequent's product was
    19. *)

type 'a t

val name : string

val default_chains : int
(** 19, the paper's installation default. *)

val create : ?chains:int -> ?hasher:Hashing.Hashers.t -> unit -> 'a t
(** Defaults: [chains = 19], [hasher = Hashing.Hashers.multiplicative].
    @raise Invalid_argument if [chains <= 0]. *)

val insert : 'a t -> Packet.Flow.t -> 'a -> 'a Pcb.t
(** @raise Invalid_argument if the flow is already present. *)

val remove : 'a t -> Packet.Flow.t -> 'a Pcb.t option

val lookup : 'a t -> ?kind:Types.packet_kind -> Packet.Flow.t -> 'a Pcb.t option

val lookup_pcb : 'a t -> Packet.Flow.t -> 'a Pcb.t
(** Exception-style lookup: like {!lookup} but raising [Not_found] on
    a miss instead of boxing the result in an option.  A hit performs
    zero minor-heap allocations (asserted by a [Gc.minor_words] test),
    which is why the hot receive path prefers it.  Accounting is
    identical to {!lookup}. *)

val note_send : 'a t -> Packet.Flow.t -> unit
val stats : 'a t -> Lookup_stats.t
val length : 'a t -> int
val iter : ('a Pcb.t -> unit) -> 'a t -> unit

val chain_lengths : 'a t -> int array
(** Current occupancy of each chain, for balance diagnostics. *)
