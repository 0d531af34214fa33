type 'a t = { pool : 'a Pcb_pool.t; mutable cache : int }

let name = "bsd"
let create () = { pool = Pcb_pool.create (); cache = -1 }
let insert t flow data = Pcb_pool.insert t.pool ~chain:0 flow data

let remove t flow =
  let s = Pcb_pool.remove t.pool flow in
  if s < 0 then None
  else begin
    if t.cache = s then t.cache <- -1;
    Some (Pcb_pool.pcb t.pool s)
  end

let lookup t ?kind:_ flow =
  Lookup_stats.begin_lookup (Pcb_pool.stats t.pool);
  let cached = t.cache in
  if Pcb_pool.probe t.pool cached flow then
    Some (Pcb_pool.found t.pool ~hit_cache:true cached)
  else begin
    let s = Pcb_pool.scan t.pool ~chain:0 flow in
    if s >= 0 then t.cache <- s;
    Pcb_pool.finish t.pool ~hit_cache:false s
  end

let note_send t flow = Pcb_pool.note_send t.pool flow
let stats t = Pcb_pool.stats t.pool
let length t = Pcb_pool.length t.pool
let iter f t = Pcb_pool.iter f t.pool

let cached_flow t =
  if t.cache < 0 then None else Some (Pcb_pool.pcb t.pool t.cache).Pcb.flow
