(** The PCB store every chained lookup algorithm walks.

    BSD's single list, Crowcroft's move-to-front list, Partridge and
    Pink's cached list, each of the Sequent algorithm's hash chains,
    the resizing table's buckets, the overload guard's shadow chains
    and each stripe of the parallel table are all ordered PCB lists.
    This module is that list, once: a pool of {e slots} (small ints)
    kept in [chains] lists, with a {!Packed_table.Heap} index from flow
    to slot for the unmetered maintenance paths (duplicate check,
    removal, transmit-side bookkeeping).

    Each chain is one contiguous int array stored tail-first, so a
    push to the front is an append and a {!scan} reads adjacent ints
    from the head down.  An entry packs a 32-bit fingerprint of the
    PCB's key above its slot: the scan compares one int per PCB and
    reads the PCB's own key words only where the fingerprint matches,
    with no link to follow.  A chain array starts at one entry and
    doubles; empty chains share one empty array.  Slots never move; a
    freed slot is reused by the next insert (last freed, first
    reused).  The slot arrays start at 8 and double with the peak
    resident count.

    Costs: a push to the front and a removal of the tail are amortised
    O(1); {!move_to_front} moves only the entries between the PCB and
    the head; any other removal finds its entry from both ends of the
    chain and closes the gap from the shorter side.

    The pool owns the algorithm's {!Lookup_stats.t} and the counter
    that numbers its PCBs.  Algorithms keep only their lookup policy
    and their cache slots (ints, [-1] for empty). *)

type 'a t

val create : ?chains:int -> unit -> 'a t
(** An empty pool of [chains] lists (default 1).
    @raise Invalid_argument if [chains <= 0]. *)

val stats : 'a t -> Lookup_stats.t

val length : 'a t -> int
(** Resident PCBs across all chains. *)

val chains : 'a t -> int
val chain_length : 'a t -> chain:int -> int

val mem : 'a t -> Packet.Flow.t -> bool

val insert : ?id:int -> 'a t -> chain:int -> Packet.Flow.t -> 'a -> 'a Pcb.t
(** Link a new PCB at the head of [chain] — BSD's insertion discipline
    — and count the insert.  [id] defaults to the pool's own counter,
    which advances only when it is used.
    @raise Invalid_argument if the flow is already present; nothing
    changes then. *)

val remove : 'a t -> Packet.Flow.t -> int
(** Unlink the flow's PCB, free its slot and count the removal.
    Returns the freed slot, or [-1] if the flow is absent.  The freed
    slot's PCB stays readable through {!pcb} until the next insert or
    removal, so the caller can clear its cache slots and return it. *)

val free : 'a t -> int -> unit
(** {!remove} by slot, for callers that hold the slot already.
    @raise Invalid_argument if the slot is not live. *)

val slot : 'a t -> Packet.Flow.t -> int
(** The flow's slot, or [-1]; uncharged. *)

val pcb : 'a t -> int -> 'a Pcb.t
val matches : 'a t -> int -> Packet.Flow.t -> bool
(** The slot's PCB's key equals the flow: two int compares. *)

val probe : 'a t -> int -> Packet.Flow.t -> bool
(** A cache probe: [false] for an empty cache ([-1]), otherwise one
    examination charged and {!matches}. *)

val scan : 'a t -> chain:int -> Packet.Flow.t -> int
(** Walk [chain] from the head comparing keys; the matching slot or
    [-1].  Charges one examination per PCB compared, the match
    included (the paper's accounting), in one {!Lookup_stats.examine}.
    Allocates nothing. *)

val found : 'a t -> hit_cache:bool -> int -> 'a Pcb.t
(** Close the open lookup on a match: count the receive on the slot's
    PCB, end the lookup in {!stats} and return the PCB. *)

val finish : 'a t -> hit_cache:bool -> int -> 'a Pcb.t option
(** {!found} for a slot, or for [-1] end the lookup as not found and
    return [None]. *)

val move_to_front : 'a t -> int -> unit
(** Crowcroft's heuristic; no-op when the slot already heads its
    chain.  Costs the entries between the slot and the head, the ones
    a {!scan} that found it has already examined; allocates nothing.
    @raise Invalid_argument if the slot is not live. *)

val head : 'a t -> chain:int -> int
val tail : 'a t -> chain:int -> int
(** The chain's first / last slot, or [-1] when it is empty. *)

val note_send : 'a t -> Packet.Flow.t -> unit
(** Count a transmitted segment on the flow's PCB, if present;
    uncharged. *)

val iter : ('a Pcb.t -> unit) -> 'a t -> unit
(** Chains in index order, each head to tail (no charge). *)

val rechain : 'a t -> chains:int -> (Packet.Flow.t -> int) -> unit
(** Relink every PCB into [chains] fresh lists: old chains in index
    order, each head to tail, each PCB pushed to the front of the
    chain the function names for its flow.  Slots and the index stay
    as they are.
    @raise Invalid_argument if [chains <= 0]. *)
