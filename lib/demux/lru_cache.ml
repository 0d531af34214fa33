(* The cache is an array of at most K pool slots in recency order
   (index 0 = most recent).  Probing scans it from the front, one PCB
   examined per comparison — exactly what a K-entry cache costs in
   comparisons. *)

type 'a t = {
  pool : 'a Pcb_pool.t;
  mru : int array;
  mutable cached : int;  (* mru.(0 .. cached - 1) are in use *)
}

let name = "lru-cache"

let create ?(entries = 8) () =
  if entries <= 0 then invalid_arg "Lru_cache.create: entries <= 0";
  { pool = Pcb_pool.create (); mru = Array.make entries (-1); cached = 0 }

let insert t flow data = Pcb_pool.insert t.pool ~chain:0 flow data

(* Put [s] at the front, shifting the [n] entries before it back one. *)
let to_front t s n =
  Array.blit t.mru 0 t.mru 1 n;
  t.mru.(0) <- s

let rec position t s i =
  if i = t.cached then -1 else if t.mru.(i) = s then i else position t s (i + 1)

let remove t flow =
  let s = Pcb_pool.remove t.pool flow in
  if s < 0 then None
  else begin
    let i = position t s 0 in
    if i >= 0 then begin
      Array.blit t.mru (i + 1) t.mru i (t.cached - i - 1);
      t.cached <- t.cached - 1
    end;
    Some (Pcb_pool.pcb t.pool s)
  end

let rec probe t flow i =
  if i = t.cached then -1
  else if Pcb_pool.matches t.pool t.mru.(i) flow then i
  else probe t flow (i + 1)

let lookup t ?kind:_ flow =
  let stats = Pcb_pool.stats t.pool in
  Lookup_stats.begin_lookup stats;
  let i = probe t flow 0 in
  if i >= 0 then begin
    Lookup_stats.examine stats ~count:(i + 1);
    to_front t t.mru.(i) i;
    Some (Pcb_pool.found t.pool ~hit_cache:true t.mru.(0))
  end
  else begin
    Lookup_stats.examine stats ~count:t.cached;
    let s = Pcb_pool.scan t.pool ~chain:0 flow in
    if s >= 0 then begin
      (* A full cache drops its least recent entry. *)
      if t.cached < Array.length t.mru then t.cached <- t.cached + 1;
      to_front t s (t.cached - 1)
    end;
    Pcb_pool.finish t.pool ~hit_cache:false s
  end

let note_send t flow = Pcb_pool.note_send t.pool flow
let stats t = Pcb_pool.stats t.pool
let length t = Pcb_pool.length t.pool
let iter f t = Pcb_pool.iter f t.pool
