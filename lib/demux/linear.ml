type 'a t = 'a Pcb_pool.t

let name = "linear"
let create () = Pcb_pool.create ()
let insert t flow data = Pcb_pool.insert t ~chain:0 flow data

let remove t flow =
  let s = Pcb_pool.remove t flow in
  if s < 0 then None else Some (Pcb_pool.pcb t s)

let lookup t ?kind:_ flow =
  Lookup_stats.begin_lookup (Pcb_pool.stats t);
  Pcb_pool.finish t ~hit_cache:false (Pcb_pool.scan t ~chain:0 flow)

let note_send = Pcb_pool.note_send
let stats = Pcb_pool.stats
let length = Pcb_pool.length
let iter = Pcb_pool.iter
