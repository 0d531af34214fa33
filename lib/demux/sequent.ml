type 'a t = {
  pool : 'a Pcb_pool.t;
  caches : int array;  (* per chain: the slot last found there, or -1 *)
  hasher : Hashing.Hashers.t;
}

let name = "sequent"
let default_chains = 19

let create ?(chains = default_chains) ?(hasher = Hashing.Hashers.multiplicative)
    () =
  if chains <= 0 then invalid_arg "Sequent.create: chains <= 0";
  { pool = Pcb_pool.create ~chains (); caches = Array.make chains (-1); hasher }

(* Allocation-free: hashes the flow's fields directly instead of
   serialising a fresh 12-byte key per packet. *)
let bucket_index t flow =
  Hashing.Hashers.bucket_flow t.hasher ~buckets:(Array.length t.caches) flow

let insert t flow data =
  Pcb_pool.insert t.pool ~chain:(bucket_index t flow) flow data

let remove t flow =
  let s = Pcb_pool.remove t.pool flow in
  if s < 0 then None
  else begin
    let chain = bucket_index t flow in
    if t.caches.(chain) = s then t.caches.(chain) <- -1;
    Some (Pcb_pool.pcb t.pool s)
  end

let lookup_pcb t flow =
  let stats = Pcb_pool.stats t.pool in
  Lookup_stats.begin_lookup stats;
  let chain = bucket_index t flow in
  let cached = Array.unsafe_get t.caches chain in
  if Pcb_pool.probe t.pool cached flow then
    Pcb_pool.found t.pool ~hit_cache:true cached
  else
    let s = Pcb_pool.scan t.pool ~chain flow in
    if s >= 0 then begin
      Array.unsafe_set t.caches chain s;
      Pcb_pool.found t.pool ~hit_cache:false s
    end
    else begin
      Lookup_stats.end_lookup stats ~hit_cache:false ~found:false;
      raise Not_found
    end

let lookup t ?kind:_ flow =
  match lookup_pcb t flow with
  | pcb -> Some pcb
  | exception Not_found -> None

let note_send t flow = Pcb_pool.note_send t.pool flow
let stats t = Pcb_pool.stats t.pool
let length t = Pcb_pool.length t.pool
let iter f t = Pcb_pool.iter f t.pool
let chain_lengths t =
  Array.init (Array.length t.caches) (fun chain ->
      Pcb_pool.chain_length t.pool ~chain)
