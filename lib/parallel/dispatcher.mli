(** Batched, sharded demux pipeline: one dispatcher domain feeding N
    worker domains through bounded SPSC rings.

    This is the software shape of hardware RSS (receive-side scaling):
    the dispatcher hashes each inbound item's flow and sends it to
    the worker that owns that hash shard, so all of a connection's
    packets meet the same worker — per-chain caches stay warm and no
    two workers ever contend on one connection.  Items travel in
    {e batches}: the dispatcher accumulates up to [batch] items per
    worker before pushing, and workers handle each batch through a
    [consume] closure (for lookups, {!Striped.lookup_batch_keyed} /
    {!Coarse.lookup_batch}), which takes each stripe mutex once per
    batch rather than once per packet — batching is what amortises the
    synchronisation and memory traffic that dominate per-packet lookup
    cost.

    Workers drain their rings with {!Ring.consume}; every push goes
    through {!Pressure.offer}.  The rings are bounded, so a slow
    worker surfaces as backpressure: without a controller the
    dispatcher waits for space (lossless).  With a {!Pressure}
    controller attached, degradation is tiered instead: ring occupancy
    feeds the controller, and at [Drop_batches] or worse a full ring
    sheds the batch (attributed to the tier), while at [Reject]
    batches are refused before the ring is tried at all. *)

type result = {
  workers : int;
  batch : int;
  packets : int;              (** Packets offered to the dispatcher. *)
  found : int;                (** Lookups that found their PCB. *)
  batches : int;              (** Batches actually pushed. *)
  tier_dropped_packets : int; (** Shed on full rings at [Drop_batches]. *)
  rejected_packets : int;     (** Refused outright at [Reject]. *)
  max_ring_depth : int;       (** Deepest ring occupancy observed. *)
  elapsed_seconds : float;    (** Monotonic, dispatch start to last join. *)
  packets_per_second : float;
  per_worker_packets : int array;  (** Delivered per shard — shows hash balance. *)
}

val lost_packets : result -> int
(** [tier_dropped_packets + rejected_packets]: every
    offered packet is either delivered to a worker or counted here —
    the conservation law the chaos harness audits. *)

val run :
  ?obs:Obs.Registry.t -> ?tracer:Obs.Trace.t -> ?ring_capacity:int ->
  ?pressure:Pressure.t -> ?pace:(int -> unit) ->
  hash:('a -> int) -> workers:int -> batch:int ->
  consume:(worker:int -> 'a array -> hashes:int array -> int) ->
  'a array -> result
(** [run ~hash ~workers ~batch ~consume items] spawns [workers]
    domains, shards [items] across them by [hash item mod workers] in
    batches of [batch], joins them all, and reports.  [consume] runs
    on worker [worker]'s domain, once per batch, in push order, and
    returns how many of the batch's lookups found their PCB ([found]);
    it must be safe to call concurrently for different workers (the
    parallel demultiplexers' batch APIs are).

    Each batch arrives with [hashes], the items' [hash] values,
    computed {e once} per item when the dispatcher sharded it.  Pass
    [Hashing.Hashers.hash_flow h] as [hash] and hand the values to
    {!Striped.lookup_batch_keyed} (created with the same hasher) so
    the stripe-grouping stage does not re-derive per-packet keys;
    callers that do not want them can ignore the argument.

    [pace i] (default: nothing) runs on the dispatching domain before
    item [i] is sharded — the hook for paced or bursty arrivals.

    Defaults: [ring_capacity = 64] batches per worker (rounded up to a
    power of two), blocking backpressure.

    With [?obs], registers [pipeline.batch_size] and
    [pipeline.ring_depth] histograms and the
    [pipeline.ring_depth_max] gauge.  With [?tracer], records one
    [Batch] event per push ([a] = size, [b] = worker shard); the
    tracer is touched only by the dispatching domain.

    With [?pressure], every push is gated by {!Pressure.offer};
    tier-attributed losses are counted both in the controller and in
    [tier_dropped_packets] / [rejected_packets].

    @raise Invalid_argument if [workers], [batch] or [ring_capacity]
    is non-positive, or [items] is empty. *)

val pp : Format.formatter -> result -> unit
