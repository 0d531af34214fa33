(* The one Robin-Hood engine: open addressing over packed flow keys,
   functored over Storage.S so the slot arrays can live on the heap or
   off it.  Every other flow-keyed index in the tree (Pcb_pool's slot
   index, Handle_table's boxed values, Epoch.Packed's copy-on-write
   regions, the planted-bug copies in lib/check) is built from the
   primitives below; nothing else displaces, backshifts or resizes.
   The one loop that lives elsewhere is the lookup probe itself
   ([Storage.S.probe]): each backend writes it over its own lanes,
   because without flambda every accessor called through this functor
   is a closure call, which made a warm hit cost as much as walking a
   five-PCB chain.

   Layout is struct-of-arrays (Storage.S) so a probe touches
   cache-dense flat storage instead of pointer-chasing boxed buckets:

   - tag   : one byte per slot.  0 means empty, 255 ([dead_tag]) a
     dead old-region slot; otherwise an 8-bit digest of the hash
     ([(h lsr 16) land 0xFF], remapped into 1..254).  A probe compares
     the tag byte before the two key words, so almost every
     non-matching slot is rejected on a single byte load.
   - hash  : the full stored hash per occupied slot (so probe
     distances and resize need no re-hashing).
   - w0/w1 : the inline packed key words ([Packet.Flow.t]'s layout).
   - value : one int: a Pcb_pool slot, a Handle_table handle, or the
     caller's own int.

   Collision policy is Robin-Hood displacement: an inserted entry
   steals the slot of any resident that is closer to its home bucket,
   which bounds probe-length variance and lets lookups stop early once
   they out-distance the resident.  Deletion in the live region is
   backward-shift (move displaced successors one slot back), so the
   table never holds tombstones and probe lengths do not degrade with
   churn.  Capacity is a power of two and grows at 7/8 load.

   Growth comes in two flavours ([resize]):

   - [Incremental] (the default): when the trigger fires, the full
     region becomes the frozen [old] region and a fresh region of
     twice the capacity becomes [cur].  Every subsequent mutation
     migrates a bounded number of entries (and visits a bounded number
     of slots) from [old] into [cur], so no single insert ever pays the
     O(N) rebuild; lookups probe [cur] then [old] while the drain is in
     flight.  The old region never moves an entry once the drain
     starts: migrated (and user-removed) slots are marked dead with the
     reserved tag byte, keeping their stored hash so probe-distance
     arithmetic — and therefore Robin-Hood early termination — still
     works on the frozen layout.  A dead mark costs O(1) where a
     backward shift out of a 7/8-full region costs a whole
     displacement run, which is precisely the tail the incremental
     policy exists to remove (E31); the region is garbage the moment
     the drain ends, so the tombstone objection (probe degradation
     under churn) does not apply to it.
   - [Doubling]: the stop-the-world copy, kept so differential tests
     can race the two policies against each other.

   Drain-completes-before-next-trigger argument: growth C -> 2C starts
   with at most 7C/8 entries to migrate, and the next trigger cannot
   fire before [length] reaches 7C/4 — at least 7C/8 further inserts,
   each migrating up to [migration_entries] (>= 1) entries.  The
   defensive [drain_old] in [begin_grow] covers adversarial
   interleavings anyway (it is a no-op when the budget maths holds). *)

type resize = Doubling | Incremental

module type S = sig
  type store
  type region = { store : store; mutable count : int }
  type t

  val backend : string

  val create :
    ?hash:(int -> int -> int) -> ?initial_capacity:int -> ?resize:resize ->
    unit -> t

  val length : t -> int
  val capacity : t -> int
  val resize_policy : t -> resize
  val resizes : t -> int
  val pending_migration : t -> int
  val bytes : t -> int
  val find : t -> w0:int -> w1:int -> int
  val find_opt : t -> w0:int -> w1:int -> int option
  val mem : t -> w0:int -> w1:int -> bool
  val replace : t -> w0:int -> w1:int -> int -> unit
  val add : t -> w0:int -> w1:int -> int -> int
  val remove : t -> w0:int -> w1:int -> unit
  val take : t -> w0:int -> w1:int -> default:int -> int
  val iter : (w0:int -> w1:int -> int -> unit) -> t -> unit
  val fold : (w0:int -> w1:int -> int -> 'b -> 'b) -> t -> 'b -> 'b
  val clear : t -> unit
  val max_probe_length : t -> int
  val probe_count : t -> w0:int -> w1:int -> int
  val live : t -> region

  module Region : sig
    val create : capacity:int -> region
    val copy : region -> region
    val slot : region -> hash:int -> w0:int -> w1:int -> int
    val insert : region -> hash:int -> w0:int -> w1:int -> int -> unit
    val delete : region -> int -> unit
    val regrown : region -> room:int -> region
    val bound : region -> hash:int -> w0:int -> w1:int -> int -> region
    val iter : (w0:int -> w1:int -> int -> unit) -> region -> unit
  end
end

let default_hash w0 w1 =
  Hashing.Hashers.hash_words Hashing.Hashers.multiplicative w0 w1
let min_capacity = 8

(* Per-mutation drain budget: at most [migration_entries] entries are
   moved and at most [migration_slot_budget] old-region slots are
   inspected, so a mutation's resize tax is O(1) even when the old
   region is sparse (long empty or dead runs cost slot visits, not
   moves).  One entry per mutation would already finish the drain
   before the next growth trigger, but the budget is set higher on
   purpose: while the drain is in flight every inserted key also pays
   an absent-key probe through the frozen, 7/8-full old region, so the
   tail is minimized by finishing the drain quickly (E31). *)
let migration_entries = 4
let migration_slot_budget = 32
let dead_tag = Storage.dead_tag

let rec pow2_at_least n c = if c >= n then c else pow2_at_least n (c * 2)

(* Smallest power-of-two capacity, at least [cap], that holds [count]
   entries under the 7/8 load bound. *)
let rec capacity_for cap count =
  if count * 8 > cap * 7 then capacity_for (cap * 2) count else cap

let tag_of_hash h =
  let tag = (h lsr 16) land 0xFF in
  if tag = 0 || tag = dead_tag then 1 else tag

module Make (St : Storage.S) = struct
  type store = St.t
  type region = { store : St.t; mutable count : int }

  type t = {
    mutable cur : region;
    mutable old : region option;
        (* the pre-growth region still draining, oldest entries first *)
    mutable migrate_pos : int;
        (* next old-region slot the drain will inspect (mod capacity) *)
    mutable resizes : int;
    resize : resize;
    hash : int -> int -> int;
  }

  let backend = St.backend

  module Region = struct
    let create ~capacity = { store = St.create ~capacity; count = 0 }
    let copy r = { store = St.copy r.store; count = r.count }

    (* Distance of the entry resident at [slot] from its home bucket. *)
    let[@inline] distance s slot =
      (slot - (St.hash s slot land St.mask s)) land St.mask s

    (* Returns the slot holding the key, or -1. *)
    let slot r ~hash ~w0 ~w1 =
      St.probe r.store ~tag:(tag_of_hash hash) ~w0 ~w1 ~home:hash

    (* Robin-Hood insertion of a key known to be absent: walk from the
       home slot, swapping the carried entry with any resident closer
       to its own home, until an empty slot absorbs the carry. *)
    let insert r ~hash ~w0 ~w1 v =
      let s = r.store in
      let tag = ref (tag_of_hash hash) in
      let h = ref hash and w0 = ref w0 and w1 = ref w1 and v = ref v in
      let slot = ref (!h land St.mask s) in
      let dist = ref 0 in
      let continue = ref true in
      while !continue do
        let resident = St.tag s !slot in
        if resident = 0 then begin
          St.set_tag s !slot !tag;
          St.set_hash s !slot !h;
          St.set_words s !slot ~w0:!w0 ~w1:!w1;
          St.set_value s !slot !v;
          continue := false
        end
        else begin
          let resident_dist = distance s !slot in
          if resident_dist < !dist then begin
            (* Swap: the resident is richer (closer to home); it yields
               the slot and we carry it onward. *)
            let h' = St.hash s !slot and w0' = St.w0 s !slot
            and w1' = St.w1 s !slot and v' = St.value s !slot in
            St.set_tag s !slot !tag;
            St.set_hash s !slot !h;
            St.set_words s !slot ~w0:!w0 ~w1:!w1;
            St.set_value s !slot !v;
            tag := resident;
            h := h';
            w0 := w0';
            w1 := w1';
            v := v';
            dist := resident_dist
          end;
          slot := (!slot + 1) land St.mask s;
          incr dist
        end
      done;
      r.count <- r.count + 1

    (* Backward-shift deletion of the entry at [slot]: pull each
       displaced successor one slot towards its home until a slot is
       empty or home (distance 0), so no tombstone is left behind. *)
    let delete r slot =
      let s = r.store in
      let i = ref slot in
      let continue = ref true in
      while !continue do
        let next = (!i + 1) land St.mask s in
        if St.tag s next = 0 || distance s next = 0 then begin
          St.set_tag s !i 0;
          St.set_value s !i 0;
          continue := false
        end
        else begin
          St.set_tag s !i (St.tag s next);
          St.set_hash s !i (St.hash s next);
          St.set_words s !i ~w0:(St.w0 s next) ~w1:(St.w1 s next);
          St.set_value s !i (St.value s next);
          i := next
        end
      done;
      r.count <- r.count - 1

    let iter_live f s =
      for slot = 0 to St.mask s do
        let tag = St.tag s slot in
        if tag <> 0 && tag <> dead_tag then f s slot
      done

    (* A fresh region with [r]'s entries and room for [room] more: the
       stop-the-world rebuild, at the smallest power of two of at least
       twice [r]'s capacity that keeps the result under 7/8 load. *)
    let regrown r ~room =
      let s = r.store in
      let fresh =
        create
          ~capacity:(capacity_for (St.capacity s * 2) (r.count + room))
      in
      iter_live
        (fun s slot ->
          insert fresh ~hash:(St.hash s slot) ~w0:(St.w0 s slot)
            ~w1:(St.w1 s slot) (St.value s slot))
        s;
      fresh

    (* Copy-on-write bind: [r] is left untouched. *)
    let bound r ~hash ~w0 ~w1 v =
      let slot = slot r ~hash ~w0 ~w1 in
      if slot >= 0 then begin
        let fresh = copy r in
        St.set_value fresh.store slot v;
        fresh
      end
      else begin
        let fresh =
          if (r.count + 1) * 8 > St.capacity r.store * 7 then regrown r ~room:1
          else copy r
        in
        insert fresh ~hash ~w0 ~w1 v;
        fresh
      end

    let iter f r =
      iter_live
        (fun s slot ->
          f ~w0:(St.w0 s slot) ~w1:(St.w1 s slot) (St.value s slot))
        r.store
  end

  let create ?(hash = default_hash) ?(initial_capacity = min_capacity)
      ?(resize = Incremental) () =
    if initial_capacity < 0 then
      invalid_arg "Packed_table.create: initial_capacity < 0";
    let cap = pow2_at_least (max min_capacity initial_capacity) min_capacity in
    { cur = Region.create ~capacity:cap;
      old = None;
      migrate_pos = 0;
      resizes = 0;
      resize;
      hash }

  let length t =
    t.cur.count + (match t.old with Some o -> o.count | None -> 0)

  let capacity t = St.capacity t.cur.store
  let resize_policy t = t.resize
  let resizes t = t.resizes
  let pending_migration t = match t.old with Some o -> o.count | None -> 0
  let live t = t.cur

  let bytes t =
    St.bytes t.cur.store
    + (match t.old with Some o -> St.bytes o.store | None -> 0)

  let find t ~w0 ~w1 =
    let hash = t.hash w0 w1 in
    let slot = Region.slot t.cur ~hash ~w0 ~w1 in
    if slot >= 0 then St.value t.cur.store slot
    else
      match t.old with
      | None -> raise Not_found
      | Some o ->
        let slot = Region.slot o ~hash ~w0 ~w1 in
        if slot >= 0 then St.value o.store slot else raise Not_found

  let find_opt t ~w0 ~w1 =
    match find t ~w0 ~w1 with v -> Some v | exception Not_found -> None

  let mem t ~w0 ~w1 =
    let hash = t.hash w0 w1 in
    Region.slot t.cur ~hash ~w0 ~w1 >= 0
    || (match t.old with
       | None -> false
       | Some o -> Region.slot o ~hash ~w0 ~w1 >= 0)

  let finish_drain t =
    (match t.old with Some o -> St.free o.store | None -> ());
    t.old <- None;
    t.migrate_pos <- 0

  (* Mark an old-region slot dead: O(1), no displacement run.  The
     stored hash stays behind for probe-distance arithmetic.  The guard
     keeps [pending_migration] (= [o.count]) from ever going negative:
     both callers probe for a live slot first, but a double dead-mark —
     say an eviction driven through a wrapper racing a plain remove to
     the same old-region slot — would make the drain's [o.count = 0]
     termination test unreachable and wedge the resize forever; fail
     loudly instead. *)
  let kill_slot o slot =
    if o.count <= 0 || St.tag o.store slot = 0 || St.tag o.store slot = dead_tag
    then
      invalid_arg
        "Packed_table: dead-marking a non-live old-region slot \
         (pending_migration accounting would go negative)";
    St.set_tag o.store slot dead_tag;
    St.set_value o.store slot 0;
    o.count <- o.count - 1

  (* One bounded drain step.  The old region's layout is frozen —
     migration marks slots dead instead of backshifting — so the cursor
     sweeps each slot exactly once and never wraps: every live entry
     sits where it sat when the drain began. *)
  let migrate t =
    match t.old with
    | None -> ()
    | Some o ->
      let s = o.store in
      let moved = ref 0 and visited = ref 0 in
      let finished = ref (o.count = 0) in
      while
        (not !finished)
        && !moved < migration_entries
        && !visited < migration_slot_budget
      do
        let p = t.migrate_pos land St.mask s in
        incr visited;
        let tag = St.tag s p in
        if tag = 0 || tag = dead_tag then t.migrate_pos <- t.migrate_pos + 1
        else begin
          let hash = St.hash s p and w0 = St.w0 s p and w1 = St.w1 s p in
          let v = St.value s p in
          kill_slot o p;
          t.migrate_pos <- t.migrate_pos + 1;
          Region.insert t.cur ~hash ~w0 ~w1 v;
          incr moved
        end;
        if o.count = 0 then finished := true
      done;
      if !finished then finish_drain t

  let rec drain_old t =
    match t.old with
    | None -> ()
    | Some _ ->
      migrate t;
      drain_old t

  let begin_grow t =
    t.resizes <- t.resizes + 1;
    match t.resize with
    | Doubling ->
      let full = t.cur.store in
      t.cur <- Region.regrown t.cur ~room:0;
      St.free full
    | Incremental ->
      (* Unreachable in practice while the budget maths in the header
         holds; kept so a future budget tweak degrades to a full drain
         instead of stacking a third region. *)
      drain_old t;
      t.old <- Some t.cur;
      t.migrate_pos <- 0;
      t.cur <- Region.create ~capacity:(St.capacity t.cur.store * 2)

  (* Bind the key to [v] if absent; if present, overwrite its value when
     [overwrite] holds.  Returns the value bound afterwards.  One probe
     per region either way. *)
  let settle r slot ~overwrite v =
    if overwrite then begin
      St.set_value r.store slot v;
      v
    end
    else St.value r.store slot

  let bind t ~overwrite ~w0 ~w1 v =
    if t.resize = Incremental then migrate t;
    let hash = t.hash w0 w1 in
    let slot = Region.slot t.cur ~hash ~w0 ~w1 in
    if slot >= 0 then settle t.cur slot ~overwrite v
    else
      let old_slot =
        match t.old with
        | None -> -1
        | Some o -> Region.slot o ~hash ~w0 ~w1
      in
      match t.old with
      | Some o when old_slot >= 0 -> settle o old_slot ~overwrite v
      | Some _ | None ->
        (* Grow at 7/8 load of the live region. *)
        if (length t + 1) * 8 > St.capacity t.cur.store * 7 then begin_grow t;
        Region.insert t.cur ~hash ~w0 ~w1 v;
        v

  let replace t ~w0 ~w1 v = ignore (bind t ~overwrite:true ~w0 ~w1 v)
  let add t ~w0 ~w1 v = bind t ~overwrite:false ~w0 ~w1 v

  let take t ~w0 ~w1 ~default =
    if t.resize = Incremental then migrate t;
    let hash = t.hash w0 w1 in
    let slot = Region.slot t.cur ~hash ~w0 ~w1 in
    if slot >= 0 then begin
      let v = St.value t.cur.store slot in
      Region.delete t.cur slot;
      v
    end
    else
      match t.old with
      | None -> default
      | Some o ->
        let slot = Region.slot o ~hash ~w0 ~w1 in
        if slot < 0 then default
        else begin
          (* Dead-mark, don't backshift: the frozen layout is what keeps
             old-region probes and the drain cursor correct. *)
          let v = St.value o.store slot in
          kill_slot o slot;
          if o.count = 0 then finish_drain t;
          v
        end

  let remove t ~w0 ~w1 = ignore (take t ~w0 ~w1 ~default:0)

  let iter f t =
    Region.iter f t.cur;
    match t.old with None -> () | Some o -> Region.iter f o

  let fold f t init =
    let acc = ref init in
    iter (fun ~w0 ~w1 v -> acc := f ~w0 ~w1 v !acc) t;
    !acc

  let clear t =
    St.reset t.cur.store;
    t.cur.count <- 0;
    finish_drain t

  (* Slots a [find] of this key inspects (terminating slot included),
     across both regions — the flat side of E35's probe accounting. *)
  let probe_count t ~w0 ~w1 =
    let h = t.hash w0 w1 in
    let tag = tag_of_hash h in
    let region_probes s =
      let rec go slot dist n =
        let resident = St.tag s slot in
        if resident = 0 then (n + 1, false)
        else if resident = tag && St.w0 s slot = w0 && St.w1 s slot = w1 then
          (n + 1, true)
        else if Region.distance s slot < dist then (n + 1, false)
        else go ((slot + 1) land St.mask s) (dist + 1) (n + 1)
      in
      go (h land St.mask s) 0 0
    in
    let n, found = region_probes t.cur.store in
    if found then n
    else
      match t.old with
      | None -> n
      | Some o -> n + fst (region_probes o.store)

  (* Longest probe distance currently in the table — exposed for tests
     and diagnostics (Robin Hood keeps this small and low-variance). *)
  let max_probe_length t =
    let worst = ref 0 in
    let scan r =
      Region.iter_live
        (fun s slot -> worst := max !worst (Region.distance s slot))
        r.store
    in
    scan t.cur;
    (match t.old with None -> () | Some o -> scan o);
    !worst
end

module Heap = Make (Storage.Heap)
module Offheap = Make (Storage.Offheap)
