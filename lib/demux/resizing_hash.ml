type 'a t = { pool : 'a Pcb_pool.t; hasher : Hashing.Hashers.t }

let name = "resizing-hash"

let create ?(initial_buckets = 16) ?(hasher = Hashing.Hashers.multiplicative)
    () =
  if initial_buckets <= 0 then
    invalid_arg "Resizing_hash.create: initial_buckets <= 0";
  { pool = Pcb_pool.create ~chains:initial_buckets (); hasher }

let buckets t = Pcb_pool.chains t.pool

(* Allocation-free bucket selection from the flow's fields. *)
let bucket_index t flow =
  Hashing.Hashers.bucket_flow t.hasher ~buckets:(buckets t) flow

(* Double the buckets once the load factor reaches 1, before a new
   flow goes in; a duplicate raises without growing. *)
let insert t flow data =
  let n = buckets t in
  if Pcb_pool.length t.pool >= n && not (Pcb_pool.mem t.pool flow) then
    Pcb_pool.rechain t.pool ~chains:(2 * n)
      (Hashing.Hashers.bucket_flow t.hasher ~buckets:(2 * n));
  Pcb_pool.insert t.pool ~chain:(bucket_index t flow) flow data

let remove t flow =
  let s = Pcb_pool.remove t.pool flow in
  if s < 0 then None else Some (Pcb_pool.pcb t.pool s)

let lookup t ?kind:_ flow =
  Lookup_stats.begin_lookup (Pcb_pool.stats t.pool);
  Pcb_pool.finish t.pool ~hit_cache:false
    (Pcb_pool.scan t.pool ~chain:(bucket_index t flow) flow)

let note_send t flow = Pcb_pool.note_send t.pool flow
let stats t = Pcb_pool.stats t.pool
let length t = Pcb_pool.length t.pool
let iter f t = Pcb_pool.iter f t.pool
