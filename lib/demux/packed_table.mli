(** The flow index: Robin-Hood open addressing over packed flow keys,
    with incremental resize, over pluggable {!Storage} backends.

    Keys are the two packed words of a {!Packet.Flow.t} stored inline in
    struct-of-arrays slots, with a one-byte tag per slot that rejects
    almost every non-matching probe on a single byte compare before
    the key words are touched.  Collisions use Robin-Hood displacement
    (bounded probe variance, early lookup termination); deletion is
    backward-shift, so the table is tombstone-free and probe lengths
    do not rot under churn.  Capacity is a power of two and grows at
    7/8 load, by default incrementally ({!resize}): the full region
    drains into its doubled successor a bounded handful of entries per
    mutation, so the per-insert latency tail stays flat while a resize
    is in flight (EXPERIMENTS.md E31, DESIGN.md section 12).

    This is the only Robin-Hood implementation in the tree.  Values
    are bare [int]s, so every lane holds immediates and the whole
    table can live in [Bigarray] buffers the GC never scans
    ({!Offheap}; E34, DESIGN.md section 14).  {!Pcb_pool} stores PCB
    slot numbers in the value lane and {!Handle_table} boxed-value
    handles; the
    copy-on-write {!Epoch.Packed} builds its private regions with
    {!S.Region}.  [find] on a present key performs zero minor-heap
    allocations (DESIGN.md section 10). *)

val default_hash : int -> int -> int
(** The multiplicative hash of the key words
    ([Hashing.Hashers.hash_words Hashing.Hashers.multiplicative]), the
    hash every flow table here probes with by default. *)

type resize =
  | Doubling      (** Stop-the-world rebuild at the growth trigger. *)
  | Incremental   (** Bounded migration per mutation; no O(N) insert. *)

module type S = sig
  type store
  (** The backend's slot storage ({!Storage.S.t}). *)

  type region = { store : store; mutable count : int }
  (** One open-addressing region: its slots and how many are live. *)

  type t

  val backend : string
  (** Storage backend name ("heap" / "offheap"). *)

  val create :
    ?hash:(int -> int -> int) -> ?initial_capacity:int -> ?resize:resize ->
    unit -> t
  (** [create ()] makes an empty table.  [hash] defaults to
      {!default_hash}; override only in tests (it must be fixed
      for the table's lifetime).  [initial_capacity] is rounded up to
      a power of two, minimum 8.  [resize] (default {!Incremental}) is
      the growth policy, fixed for the table's lifetime.
      @raise Invalid_argument if [initial_capacity < 0]. *)

  val length : t -> int
  (** Resident entries, counting both regions during a drain. *)

  val capacity : t -> int
  (** Capacity of the live region (the one accepting inserts). *)

  val resize_policy : t -> resize

  val resizes : t -> int
  (** Growth triggers fired since creation (either policy). *)

  val pending_migration : t -> int
  (** Entries still waiting in the draining old region; 0 when no
      incremental resize is in flight.  Never negative: the accounting
      is assertion-checked at every dead-mark. *)

  val bytes : t -> int
  (** Resident slot-storage bytes across both regions (live + any
      draining old region) — the numerator of E34's bytes/flow. *)

  val find : t -> w0:int -> w1:int -> int
  (** Allocation-free lookup; probes the live region first, then the
      draining region if a resize is in flight.
      @raise Not_found if the key is absent. *)

  val find_opt : t -> w0:int -> w1:int -> int option
  val mem : t -> w0:int -> w1:int -> bool

  val replace : t -> w0:int -> w1:int -> int -> unit
  (** Insert, or overwrite the existing binding.  Under {!Incremental},
      also migrates up to a constant number of entries from the
      draining region first. *)

  val add : t -> w0:int -> w1:int -> int -> int
  (** [add t ~w0 ~w1 v] binds the key to [v] if it is absent and leaves
      an existing binding alone; returns the value bound afterwards, in
      one probe.  Same migration step as {!replace}. *)

  val remove : t -> w0:int -> w1:int -> unit
  (** Remove the binding if present (backward shift in the live region,
      dead-mark in a draining one; no tombstones survive the drain).
      Same migration step as {!replace}. *)

  val take : t -> w0:int -> w1:int -> default:int -> int
  (** {!remove}, returning the removed value, or [default] if the key
      was absent. *)

  val iter : (w0:int -> w1:int -> int -> unit) -> t -> unit
  (** Visits both regions during a drain; order is unspecified. *)

  val fold : (w0:int -> w1:int -> int -> 'b -> 'b) -> t -> 'b -> 'b

  val clear : t -> unit
  (** Empty the table, keeping the live region's current capacity and
      abandoning (and freeing) any in-flight drain. *)

  val max_probe_length : t -> int
  (** Longest probe distance of any resident entry in either region. *)

  val probe_count : t -> w0:int -> w1:int -> int
  (** Slots a [find] of this key inspects right now (the terminating
      empty/richer slot included, both regions during a drain);
      always ≥ 1.  Read-only diagnostic — the probe side of E35's
      flat-vs-cuckoo accounting. *)

  val live : t -> region
  (** The region accepting inserts.  Mutating it behind the table's
      back breaks the table; the planted-bug copies in [lib/check] do
      exactly that. *)

  (** Region primitives: the probe, displacement insert, backward-shift
      delete and rebuild the table itself runs on, for callers that
      manage their own regions (copy-on-write publication).  The
      [hash] argument is the key's full hash. *)
  module Region : sig
    val create : capacity:int -> region
    (** An empty region; [capacity] must be a power of two. *)

    val copy : region -> region
    val slot : region -> hash:int -> w0:int -> w1:int -> int
    (** The slot holding the key, or [-1].  Allocation-free. *)

    val insert : region -> hash:int -> w0:int -> w1:int -> int -> unit
    (** Robin-Hood insert of a key known to be absent.  The caller keeps
        the region under 7/8 load ({!regrown}). *)

    val delete : region -> int -> unit
    (** Backward-shift delete of the entry at a slot {!slot} returned. *)

    val regrown : region -> room:int -> region
    (** A fresh region of at least twice the capacity, holding every
        entry of the argument with room for [room] more under 7/8
        load. *)

    val bound : region -> hash:int -> w0:int -> w1:int -> int -> region
    (** Copy-on-write {!S.replace}: a fresh region holding the
        argument's entries with the key bound to the value, regrown
        when a new key would pass 7/8 load.  The argument is not
        modified. *)

    val iter : (w0:int -> w1:int -> int -> unit) -> region -> unit
  end
end

module Make (St : Storage.S) : S with type store = St.t

module Heap : S with type store = Storage.Heap.t
(** [Bytes] + [int array] slots on the OCaml heap: the index behind
    {!Pcb_pool}, the connection-ID table and {!Handle_table}. *)

module Offheap : S with type store = Storage.Offheap.t
(** [Bigarray]-backed slots: GC-invisible, constant marking cost
    regardless of flow count. *)
