(* The copy-on-write flow table over Demux.Packed_table regions.  See
   packed.mli for the protocol; the concurrency argument is:

   - a published region is immutable until retired: the writer only
     ever mutates a private copy ([Region.copy] / [Region.regrown]),
     then publishes it with one atomic store;
   - readers pin their epoch slot before the atomic load of the
     published pointer and unpin after the probe, so Core never
     reclaims a region a pinned reader may still hold;
   - the retire closure ends with [St.free], which scrubs AND severs
     the buffers — off-heap memory is handed back to the allocator at
     reclaim time rather than at some later major-GC sweep.  Reclaim
     only runs the closure once every reader slot has advanced past
     the retirement epoch (Core's safety invariant, qcheck-verified in
     test_epoch.ml).

   Probing, insertion, deletion and growth are Packed_table's region
   primitives: this file owns only the publication protocol. *)

module type S = sig
  type t

  val backend : string

  val create :
    ?hash:(int -> int -> int) -> ?initial_capacity:int ->
    ?max_readers:int -> unit -> t

  val get : t -> w0:int -> w1:int -> default:int -> int
  val find_opt : t -> w0:int -> w1:int -> int option
  val mem : t -> w0:int -> w1:int -> bool
  val find_flow : t -> Packet.Flow.t -> int option
  val lookup_batch : t -> Packet.Flow.t array -> int
  val lookup_batch_keyed : t -> Packet.Flow.t array -> hashes:int array -> int
  val length : t -> int
  val iter : (w0:int -> w1:int -> int -> unit) -> t -> unit

  type view

  val pin : t -> view
  val view_find : view -> w0:int -> w1:int -> int option
  val view_length : view -> int
  val unpin : t -> unit
  val replace : t -> w0:int -> w1:int -> int -> unit
  val remove : t -> w0:int -> w1:int -> unit
  val load : t -> (int * int * int) array -> unit
  val core : t -> Core.t
  val reclaim : t -> int
  val quiesce : t -> unit
  val pending : t -> int
  val stats : t -> Demux.Lookup_stats.snapshot
  val publishes : t -> int
  val capacity : t -> int
  val bytes : t -> int
  val lock_acquisitions : t -> int
  val registry : ?initial_capacity:int -> unit -> 'a Demux.Registry.t
  val register_obs : ?prefix:string -> Obs.Registry.t -> t -> unit
end

let min_capacity = 8

let rec pow2_at_least n c = if c >= n then c else pow2_at_least n (c * 2)

module Make (St : Demux.Storage.S) : S = struct
  module P = Demux.Packed_table.Make (St)
  module Region = P.Region

  type reader = {
    slot : Domain_slot.t;
    stats : Demux.Lookup_stats.t;
  }

  type t = {
    core : Core.t;
    published : P.region Atomic.t;
    writer : Mutex.t;
    mutable writer_locks : int;  (* guarded by [writer] *)
    readers_lock : Mutex.t;
    mutable reader_locks : int;  (* guarded by [readers_lock] *)
    mutable readers : reader list;  (* guarded by [readers_lock] *)
    reader_key : reader option Domain.DLS.key;
    writer_stats : Demux.Lookup_stats.t;
    hash : int -> int -> int;
    mutable publish_count : int;  (* guarded by [writer] *)
  }

  let backend = St.backend

  let create ?(hash = Demux.Packed_table.default_hash)
      ?(initial_capacity = min_capacity) ?max_readers () =
    if initial_capacity < 0 then
      invalid_arg "Epoch.Packed.create: initial_capacity < 0";
    let cap = pow2_at_least (max min_capacity initial_capacity) min_capacity in
    { core = Core.create ?max_readers ();
      published = Atomic.make (Region.create ~capacity:cap);
      writer = Mutex.create ();
      writer_locks = 0;
      readers_lock = Mutex.create ();
      reader_locks = 0;
      readers = [];
      reader_key = Domain.DLS.new_key (fun () -> None);
      writer_stats = Demux.Lookup_stats.create ();
      hash;
      publish_count = 0 }

  (* Per-reader-domain state: one epoch slot and one private
     Lookup_stats, registered lazily on the domain's first lookup. *)
  let reader_of t =
    match Domain.DLS.get t.reader_key with
    | Some reader -> reader
    | None ->
      let slot = Domain_slot.acquire (Core.pool t.core) in
      let reader = { slot; stats = Demux.Lookup_stats.create () } in
      Mutex.lock t.readers_lock;
      t.reader_locks <- t.reader_locks + 1;
      t.readers <- reader :: t.readers;
      Mutex.unlock t.readers_lock;
      Domain.DLS.set t.reader_key (Some reader);
      reader

  let slot_in t (r : P.region) ~w0 ~w1 =
    Region.slot r ~hash:(t.hash w0 w1) ~w0 ~w1

  (* {1 Read path} *)

  (* Open and close the pinned section around one [get]/[mem]/[find_opt]
     probe; no closures, so the warm read path allocates nothing. *)
  let pin_published t reader =
    Demux.Lookup_stats.begin_lookup reader.stats;
    Demux.Lookup_stats.examine reader.stats ~count:1;
    Domain_slot.pin reader.slot ~global:(Core.global t.core);
    Atomic.get t.published

  let finish_lookup reader slot =
    Domain_slot.unpin reader.slot;
    Demux.Lookup_stats.end_lookup reader.stats ~hit_cache:false
      ~found:(slot >= 0)

  let get t ~w0 ~w1 ~default =
    let reader = reader_of t in
    let r = pin_published t reader in
    let slot = slot_in t r ~w0 ~w1 in
    let result = if slot < 0 then default else St.value r.P.store slot in
    finish_lookup reader slot;
    result

  let mem t ~w0 ~w1 =
    let reader = reader_of t in
    let r = pin_published t reader in
    let slot = slot_in t r ~w0 ~w1 in
    finish_lookup reader slot;
    slot >= 0

  let find_opt t ~w0 ~w1 =
    let reader = reader_of t in
    let r = pin_published t reader in
    let slot = slot_in t r ~w0 ~w1 in
    let result = if slot < 0 then None else Some (St.value r.P.store slot) in
    finish_lookup reader slot;
    result

  let find_flow t { Packet.Flow.w0; w1 } = find_opt t ~w0 ~w1

  let lookup_batch_hashed t flows ~hash_at =
    let n = Array.length flows in
    if n = 0 then 0
    else begin
      let reader = reader_of t in
      Demux.Lookup_stats.note_batch reader.stats ~size:n;
      Domain_slot.pin reader.slot ~global:(Core.global t.core);
      let r = Atomic.get t.published in
      let found = ref 0 in
      for i = 0 to n - 1 do
        let { Packet.Flow.w0; w1 } = flows.(i) in
        Demux.Lookup_stats.begin_lookup reader.stats;
        Demux.Lookup_stats.examine reader.stats ~count:1;
        let hit = Region.slot r ~hash:(hash_at t i w0 w1) ~w0 ~w1 >= 0 in
        if hit then incr found;
        Demux.Lookup_stats.end_lookup reader.stats ~hit_cache:false ~found:hit
      done;
      Domain_slot.unpin reader.slot;
      !found
    end

  let lookup_batch t flows =
    lookup_batch_hashed t flows ~hash_at:(fun t _ w0 w1 -> t.hash w0 w1)

  let lookup_batch_keyed t flows ~hashes =
    if Array.length flows <> Array.length hashes then
      invalid_arg "Epoch.Packed.lookup_batch_keyed: length mismatch";
    lookup_batch_hashed t flows
      ~hash_at:(fun _ i _ _ -> Array.unsafe_get hashes i)

  let length t = (Atomic.get t.published).P.count

  let iter f t =
    let reader = reader_of t in
    Domain_slot.pin reader.slot ~global:(Core.global t.core);
    Region.iter f (Atomic.get t.published);
    Domain_slot.unpin reader.slot

  (* {1 Pinned views} *)

  type view = { region : P.region; view_hash : int -> int -> int }

  let pin t =
    let reader = reader_of t in
    Domain_slot.pin reader.slot ~global:(Core.global t.core);
    { region = Atomic.get t.published; view_hash = t.hash }

  let view_find view ~w0 ~w1 =
    let r = view.region in
    let slot = Region.slot r ~hash:(view.view_hash w0 w1) ~w0 ~w1 in
    if slot < 0 then None else Some (St.value r.P.store slot)

  let view_length view = view.region.P.count
  let unpin t = Domain_slot.unpin (reader_of t).slot

  (* {1 Write path} *)

  let with_writer t f =
    Mutex.lock t.writer;
    t.writer_locks <- t.writer_locks + 1;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.writer) f

  let publish t fresh (old : P.region) =
    Atomic.set t.published fresh;
    t.publish_count <- t.publish_count + 1;
    (* Scrub + sever once every reader has moved past the retirement
       epoch: off-heap payloads are released by the eager free, not
       by a later GC sweep of the region arrays. *)
    Core.retire t.core (fun () -> St.free old.P.store);
    (* Opportunistic: writes are the rare path, so they pay for
       reclamation; anything still pinned stays on the list. *)
    ignore (Core.reclaim t.core)

  let replace t ~w0 ~w1 v =
    with_writer t @@ fun () ->
    let cur = Atomic.get t.published in
    let fresh = Region.bound cur ~hash:(t.hash w0 w1) ~w0 ~w1 v in
    if fresh.P.count > cur.P.count then
      Demux.Lookup_stats.note_insert t.writer_stats;
    publish t fresh cur

  let remove t ~w0 ~w1 =
    with_writer t @@ fun () ->
    let cur = Atomic.get t.published in
    let slot = slot_in t cur ~w0 ~w1 in
    if slot >= 0 then begin
      let fresh = Region.copy cur in
      Region.delete fresh slot;
      Demux.Lookup_stats.note_remove t.writer_stats;
      publish t fresh cur
    end

  let load t entries =
    let n = Array.length entries in
    if n > 0 then
      with_writer t @@ fun () ->
      let cur = Atomic.get t.published in
      let fresh =
        if (cur.P.count + n) * 8 > St.capacity cur.P.store * 7 then
          Region.regrown cur ~room:n
        else Region.copy cur
      in
      Array.iter
        (fun (w0, w1, v) ->
          let hash = t.hash w0 w1 in
          let slot = Region.slot fresh ~hash ~w0 ~w1 in
          if slot >= 0 then St.set_value fresh.P.store slot v
          else begin
            Region.insert fresh ~hash ~w0 ~w1 v;
            Demux.Lookup_stats.note_insert t.writer_stats
          end)
        entries;
      publish t fresh cur

  (* {1 Reclamation passthroughs} *)

  let core t = t.core
  let reclaim t = Core.reclaim t.core
  let quiesce t = Core.quiesce t.core
  let pending t = Core.pending t.core

  (* {1 Accounting} *)

  let stats t =
    Mutex.lock t.readers_lock;
    t.reader_locks <- t.reader_locks + 1;
    let readers = t.readers in
    Mutex.unlock t.readers_lock;
    Demux.Lookup_stats.merge_snapshots
      (Demux.Lookup_stats.snapshot t.writer_stats
      :: List.map (fun r -> Demux.Lookup_stats.snapshot r.stats) readers)

  let publishes t = t.publish_count
  let capacity t = St.capacity (Atomic.get t.published).P.store
  let bytes t = St.bytes (Atomic.get t.published).P.store
  let lock_acquisitions t = t.writer_locks + t.reader_locks

  let registry ?initial_capacity () =
    let table = create ?initial_capacity () in
    let pcbs = Demux.Handle_table.Slots.create () in
    let stats = Demux.Lookup_stats.create () in
    let next_id = ref 0 in
    let handle { Packet.Flow.w0; w1 } = get table ~w0 ~w1 ~default:(-1) in
    { Demux.Registry.name = "epoch-table";
      insert =
        (fun flow v ->
          let { Packet.Flow.w0; w1 } = flow in
          if mem table ~w0 ~w1 then
            invalid_arg "epoch-table.insert: duplicate flow";
          let pcb = Demux.Pcb.make ~id:!next_id ~flow v in
          incr next_id;
          let h = Demux.Handle_table.Slots.next pcbs in
          Demux.Handle_table.Slots.claim pcbs pcb;
          replace table ~w0 ~w1 h;
          Demux.Lookup_stats.note_insert stats;
          pcb);
      remove =
        (fun flow ->
          match handle flow with
          | -1 -> None
          | h ->
            let pcb = Demux.Handle_table.Slots.get pcbs h in
            remove table ~w0:flow.Packet.Flow.w0 ~w1:flow.w1;
            Demux.Handle_table.Slots.release pcbs h;
            Demux.Lookup_stats.note_remove stats;
            Some pcb);
      lookup =
        (fun ?kind:_ flow ->
          Demux.Lookup_stats.begin_lookup stats;
          Demux.Lookup_stats.examine stats ~count:1;
          let h = handle flow in
          Demux.Lookup_stats.end_lookup stats ~hit_cache:false ~found:(h >= 0);
          if h < 0 then None else Some (Demux.Handle_table.Slots.get pcbs h));
      note_send = (fun _ -> ());
      stats;
      length = (fun () -> length table);
      iter =
        (fun f ->
          iter (fun ~w0:_ ~w1:_ h -> f (Demux.Handle_table.Slots.get pcbs h))
            table) }

  let register_obs ?(prefix = "epoch.packed") obs t =
    Core.register_obs ~prefix obs t.core;
    let name suffix = prefix ^ "." ^ suffix in
    let stat pick = fun () -> pick (stats t) in
    Obs.Registry.register_counter obs ~name:(name "lookups")
      ~help:"lock-free lookups, merged across reader domains"
      (stat (fun s -> s.Demux.Lookup_stats.lookups));
    Obs.Registry.register_counter obs ~name:(name "found")
      ~help:"lookups that matched a resident flow"
      (stat (fun s -> s.Demux.Lookup_stats.found));
    Obs.Registry.register_counter obs ~name:(name "inserts")
      ~help:"new flows inserted by the writer"
      (stat (fun s -> s.Demux.Lookup_stats.inserts));
    Obs.Registry.register_counter obs ~name:(name "removes")
      ~help:"flows removed by the writer"
      (stat (fun s -> s.Demux.Lookup_stats.removes));
    Obs.Registry.register_counter obs ~name:(name "batches")
      ~help:"batched lookup calls (one epoch pin each)"
      (stat (fun s -> s.Demux.Lookup_stats.batches));
    Obs.Registry.register_counter obs ~name:(name "publishes")
      ~help:"region replacements published by the writer" (fun () ->
        publishes t);
    Obs.Registry.register_counter obs ~name:(name "lock_acquisitions")
      ~help:
        "every mutex acquisition the table ever made (writer + reader \
         registration; the read path takes none)" (fun () ->
        lock_acquisitions t);
    Obs.Registry.register_gauge obs ~name:(name "resident")
      ~help:"flows resident in the published region" (fun () ->
        float_of_int (length t));
    Obs.Registry.register_gauge obs ~name:(name "capacity")
      ~help:"slots in the published region" (fun () ->
        float_of_int (capacity t));
    Obs.Registry.register_gauge obs ~name:(name "bytes")
      ~help:
        (Printf.sprintf
           "slot-storage bytes of the published region (%s backend)"
           backend) (fun () -> float_of_int (bytes t))
end

module Heap = Make (Demux.Storage.Heap)
module Offheap = Make (Demux.Storage.Offheap)
