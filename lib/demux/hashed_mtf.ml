(* Index entry: the chain node plus its bucket, so [remove]/[note_send]
   never re-hash a flow the index already proved present. *)
type 'a entry = { node : 'a Chain.node; home : int }

type 'a t = {
  buckets : 'a Chain.t array;
  hasher : Hashing.Hashers.t;
  index : 'a entry Handle_table.t;
  stats : Lookup_stats.t;
  mutable next_id : int;
}

let name = "hashed-mtf"

let create ?(chains = Sequent.default_chains)
    ?(hasher = Hashing.Hashers.multiplicative) () =
  if chains <= 0 then invalid_arg "Hashed_mtf.create: chains <= 0";
  { buckets = Array.init chains (fun _ -> Chain.create ()); hasher;
    index = Handle_table.create ~initial_capacity:64 ();
    stats = Lookup_stats.create (); next_id = 0 }

let chains t = Array.length t.buckets

(* Allocation-free bucket selection from the flow's fields. *)
let bucket_index t flow =
  Hashing.Hashers.bucket_flow t.hasher ~buckets:(Array.length t.buckets) flow

let insert t flow data =
  if Handle_table.mem t.index flow then
    invalid_arg "Hashed_mtf.insert: duplicate flow";
  let pcb = Pcb.make ~id:t.next_id ~flow data in
  t.next_id <- t.next_id + 1;
  let home = bucket_index t flow in
  let node = Chain.push_front t.buckets.(home) pcb in
  Handle_table.replace t.index flow { node; home };
  Lookup_stats.note_insert t.stats;
  pcb

let remove t flow =
  match Handle_table.find t.index flow with
  | exception Not_found -> None
  | { node; home } ->
    Chain.remove t.buckets.(home) node;
    Handle_table.remove t.index flow;
    Lookup_stats.note_remove t.stats;
    Some (Chain.pcb node)

let lookup t ?kind:_ flow =
  Lookup_stats.begin_lookup t.stats;
  let chain = t.buckets.(bucket_index t flow) in
  match Chain.scan chain ~stats:t.stats flow with
  | Some node ->
    Chain.move_to_front chain node;
    let pcb = Chain.pcb node in
    Pcb.note_rx pcb;
    Lookup_stats.end_lookup t.stats ~hit_cache:false ~found:true;
    Some pcb
  | None ->
    Lookup_stats.end_lookup t.stats ~hit_cache:false ~found:false;
    None

let note_send t flow =
  match Handle_table.find t.index flow with
  | { node; _ } -> Pcb.note_tx (Chain.pcb node)
  | exception Not_found -> ()

let stats t = t.stats
let length t = Handle_table.length t.index
let iter f t = Array.iter (fun chain -> Chain.iter f chain) t.buckets
