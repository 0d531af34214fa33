type 'a t = { pool : 'a Pcb_pool.t; hasher : Hashing.Hashers.t }

let name = "hashed-mtf"

let create ?(chains = Sequent.default_chains)
    ?(hasher = Hashing.Hashers.multiplicative) () =
  if chains <= 0 then invalid_arg "Hashed_mtf.create: chains <= 0";
  { pool = Pcb_pool.create ~chains (); hasher }

(* Allocation-free bucket selection from the flow's fields. *)
let bucket_index t flow =
  Hashing.Hashers.bucket_flow t.hasher ~buckets:(Pcb_pool.chains t.pool) flow

let insert t flow data =
  Pcb_pool.insert t.pool ~chain:(bucket_index t flow) flow data

let remove t flow =
  let s = Pcb_pool.remove t.pool flow in
  if s < 0 then None else Some (Pcb_pool.pcb t.pool s)

let lookup t ?kind:_ flow =
  Lookup_stats.begin_lookup (Pcb_pool.stats t.pool);
  let s = Pcb_pool.scan t.pool ~chain:(bucket_index t flow) flow in
  if s >= 0 then Pcb_pool.move_to_front t.pool s;
  Pcb_pool.finish t.pool ~hit_cache:false s

let note_send t flow = Pcb_pool.note_send t.pool flow
let stats t = Pcb_pool.stats t.pool
let length t = Pcb_pool.length t.pool
let iter f t = Pcb_pool.iter f t.pool
