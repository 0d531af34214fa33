(** Boxed values over {!Packed_table.Heap}.

    The engine's value lane holds an [int]; this layer stores a handle
    there and keeps the values in a growable array indexed by handle,
    with a stack of freed handles for reuse.  The array and the stack
    grow with the peak resident count, not with table capacity.
    Every operation makes the same index probes as the engine call it
    wraps: {!replace} is one {!Packed_table.S.add}, {!remove} one
    {!Packed_table.S.take}.  [find] on a present key allocates
    nothing. *)

type 'a t

val create : ?initial_capacity:int -> unit -> 'a t
(** [initial_capacity] as for {!Packed_table.S.create}; incremental
    resize. *)

val length : 'a t -> int
val find : 'a t -> Packet.Flow.t -> 'a
(** @raise Not_found if the key is absent. *)

val find_opt : 'a t -> Packet.Flow.t -> 'a option
val mem : 'a t -> Packet.Flow.t -> bool

val replace : 'a t -> Packet.Flow.t -> 'a -> unit
(** Insert, or overwrite in place: an existing key keeps its handle. *)

val remove : 'a t -> Packet.Flow.t -> unit
(** Remove the binding if present and free its handle. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Every bound value, in the engine's slot order. *)

val handles : 'a t -> int
(** Distinct handles ever issued: the peak resident count, since freed
    handles are reused before a new one is issued. *)

(** The handle store alone, for indexes other than {!Packed_table}. *)
module Slots : sig
  type 'a t

  val create : unit -> 'a t

  val next : 'a t -> int
  (** The handle the next {!claim} will use. *)

  val claim : 'a t -> 'a -> unit
  (** Store a value under {!next}. *)

  val get : 'a t -> int -> 'a
  val set : 'a t -> int -> 'a -> unit

  val release : 'a t -> int -> unit
  (** Free a claimed handle for reuse; its value is dropped. *)
end
