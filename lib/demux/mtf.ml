type 'a t = 'a Pcb_pool.t

let name = "mtf"
let create () = Pcb_pool.create ()
let insert t flow data = Pcb_pool.insert t ~chain:0 flow data

let remove t flow =
  let s = Pcb_pool.remove t flow in
  if s < 0 then None else Some (Pcb_pool.pcb t s)

let lookup t ?kind:_ flow =
  Lookup_stats.begin_lookup (Pcb_pool.stats t);
  let s = Pcb_pool.scan t ~chain:0 flow in
  if s >= 0 then Pcb_pool.move_to_front t s;
  Pcb_pool.finish t ~hit_cache:false s

let note_send = Pcb_pool.note_send
let stats = Pcb_pool.stats
let length = Pcb_pool.length
let iter = Pcb_pool.iter

let front_flow t =
  let s = Pcb_pool.head t ~chain:0 in
  if s < 0 then None else Some (Pcb_pool.pcb t s).Pcb.flow
