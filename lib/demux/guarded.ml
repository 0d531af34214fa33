type policy = Evict_lru | Reject_new

type config = {
  max_chain : int;
  max_total : int;
  chains : int;
  hasher : Hashing.Hashers.t;
  policy : policy;
}

let default_max_chain = 32
let default_max_total = 2048

let config ?(policy = Evict_lru) ?(max_chain = default_max_chain)
    ?(max_total = default_max_total) ?(chains = 1)
    ?(hasher = Hashing.Hashers.multiplicative) () =
  if max_chain <= 0 then invalid_arg "Guarded.config: max_chain <= 0";
  if max_total <= 0 then invalid_arg "Guarded.config: max_total <= 0";
  if chains <= 0 then invalid_arg "Guarded.config: chains <= 0";
  { max_chain; max_total; chains; hasher; policy }

(* Recency metadata carried in the guard's shadow chains: a logical
   timestamp bumped on every insert and every successful lookup. *)
type meta = { mutable tick : int }

type t = {
  cfg : config;
  shadow : meta Pcb_pool.t;  (* chain fronts = most recent *)
  mutable clock : int;
}

let create cfg =
  { cfg; shadow = Pcb_pool.create ~chains:cfg.chains (); clock = 0 }

let bucket_index t flow =
  Hashing.Hashers.bucket_flow t.cfg.hasher ~buckets:t.cfg.chains flow

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* The least recently touched slot across all shadow chains.  Each
   chain keeps recency order, so only the tails compete: O(chains);
   the first of equally old tails wins. *)
let global_lru t =
  let best = ref (-1) and best_age = ref max_int in
  for chain = 0 to t.cfg.chains - 1 do
    let s = Pcb_pool.tail t.shadow ~chain in
    if s >= 0 then begin
      let age = (Pcb_pool.pcb t.shadow s).Pcb.data.tick in
      if age < !best_age then begin
        best := s;
        best_age := age
      end
    end
  done;
  !best

(* Decide the fate of an insertion: [`Admit victims] means the caller
   must first evict [victims] from the underlying table (the guard has
   already forgotten them), [`Reject] means the insertion itself must
   be shed.  Mutates the guard state. *)
let admit t flow =
  if Pcb_pool.mem t.shadow flow then `Admit [] (* duplicate: inner decides *)
  else
    let chain = bucket_index t flow in
    let chain_full = Pcb_pool.chain_length t.shadow ~chain >= t.cfg.max_chain in
    let total_full = Pcb_pool.length t.shadow >= t.cfg.max_total in
    match t.cfg.policy with
    | Reject_new when chain_full || total_full -> `Reject
    | Reject_new | Evict_lru ->
      let victims = ref [] in
      let evict s =
        victims := (Pcb_pool.pcb t.shadow s).Pcb.flow :: !victims;
        Pcb_pool.free t.shadow s
      in
      if chain_full then evict (Pcb_pool.tail t.shadow ~chain);
      while Pcb_pool.length t.shadow >= t.cfg.max_total do
        (* max_total > 0 and the table is non-empty *)
        evict (global_lru t)
      done;
      `Admit (List.rev !victims)

let note_inserted t flow =
  if not (Pcb_pool.mem t.shadow flow) then
    ignore
      (Pcb_pool.insert t.shadow ~chain:(bucket_index t flow) flow
         { tick = tick t })

let note_touched t flow =
  let s = Pcb_pool.slot t.shadow flow in
  if s >= 0 then begin
    (Pcb_pool.pcb t.shadow s).Pcb.data.tick <- tick t;
    Pcb_pool.move_to_front t.shadow s
  end

let note_removed t flow = ignore (Pcb_pool.remove t.shadow flow)
