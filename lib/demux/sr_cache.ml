type 'a t = {
  pool : 'a Pcb_pool.t;
  mutable received : int;
  mutable sent : int;
}

let name = "sr-cache"
let create () = { pool = Pcb_pool.create (); received = -1; sent = -1 }
let insert t flow data = Pcb_pool.insert t.pool ~chain:0 flow data

let remove t flow =
  let s = Pcb_pool.remove t.pool flow in
  if s < 0 then None
  else begin
    if t.received = s then t.received <- -1;
    if t.sent = s then t.sent <- -1;
    Some (Pcb_pool.pcb t.pool s)
  end

let lookup t ?(kind = Types.Data) flow =
  Lookup_stats.begin_lookup (Pcb_pool.stats t.pool);
  let first, second =
    match kind with
    | Types.Data -> (t.received, t.sent)
    | Types.Pure_ack -> (t.sent, t.received)
  in
  let hit_cache, s =
    if Pcb_pool.probe t.pool first flow then (true, first)
    else if Pcb_pool.probe t.pool second flow then (true, second)
    else (false, Pcb_pool.scan t.pool ~chain:0 flow)
  in
  if s >= 0 then t.received <- s;
  Pcb_pool.finish t.pool ~hit_cache s

let note_send t flow =
  let s = Pcb_pool.slot t.pool flow in
  if s >= 0 then begin
    t.sent <- s;
    Pcb.note_tx (Pcb_pool.pcb t.pool s)
  end

let stats t = Pcb_pool.stats t.pool
let length t = Pcb_pool.length t.pool
let iter f t = Pcb_pool.iter f t.pool

let cached_flow t s =
  if s < 0 then None else Some (Pcb_pool.pcb t.pool s).Pcb.flow

let cached_received_flow t = cached_flow t t.received
let cached_sent_flow t = cached_flow t t.sent
