(* Slots are small ints.  Slot [s] keeps its key words and links
   together in [links.(4s .. 4s+3)] — w0, w1, next, prev — so a scan
   step reads one run of three ints.  [homes.(s)] is the chain a live
   slot is linked in and -1 for a free one; free slots are threaded
   through [next] from [free].  Every free slot except the free-list
   head holds no PCB, so at most one removed PCB outlives its removal
   (the one [remove]'s caller may still read). *)

module P = Packed_table.Heap

let stride = 4
let nil = -1

(* Room for 56 flows before the index first grows, so a small table
   pays no index resize while it fills. *)
let index_capacity = 64

type 'a t = {
  index : P.t;                     (* flow -> slot *)
  mutable links : int array;
  mutable homes : int array;
  mutable pcbs : 'a Pcb.t array;
  mutable issued : int;            (* slots [0, issued) have been used *)
  mutable free : int;
  mutable heads : int array;
  mutable tails : int array;
  mutable lengths : int array;
  stats : Lookup_stats.t;
  mutable next_id : int;
}

(* What a slot without a PCB holds: an immediate, never read as a PCB,
   so a removed PCB is released to the GC once its slot is cleared. *)
let vacant () : 'a Pcb.t = Obj.magic 0

let create ?(chains = 1) () =
  if chains <= 0 then invalid_arg "Pcb_pool.create: chains <= 0";
  { index = P.create ~initial_capacity:index_capacity ();
    links = [||]; homes = [||]; pcbs = [||]; issued = 0; free = nil;
    heads = Array.make chains nil;
    tails = Array.make chains nil; lengths = Array.make chains 0;
    stats = Lookup_stats.create (); next_id = 0 }

let stats t = t.stats
let length t = P.length t.index
let chains t = Array.length t.heads
let chain_length t ~chain = t.lengths.(chain)
let head t ~chain = t.heads.(chain)
let tail t ~chain = t.tails.(chain)

let next t s = Array.unsafe_get t.links ((s * stride) + 2)
let set_next t s v = Array.unsafe_set t.links ((s * stride) + 2) v
let prev t s = Array.unsafe_get t.links ((s * stride) + 3)
let set_prev t s v = Array.unsafe_set t.links ((s * stride) + 3) v

let live t s = s >= 0 && s < t.issued && t.homes.(s) >= 0

let pcb t s = t.pcbs.(s)

let matches t s { Packet.Flow.w0; w1 } =
  let i = s * stride in
  t.links.(i) = w0 && t.links.(i + 1) = w1

let mem t { Packet.Flow.w0; w1 } = P.mem t.index ~w0 ~w1

let slot t { Packet.Flow.w0; w1 } =
  match P.find t.index ~w0 ~w1 with s -> s | exception Not_found -> nil

(* The slot arrays double with the number of slots issued, from 8. *)
let grow t =
  let n = max 8 (2 * t.issued) in
  let links = Array.make (n * stride) nil
  and homes = Array.make n nil
  and pcbs = Array.make n (vacant ()) in
  Array.blit t.links 0 links 0 (t.issued * stride);
  Array.blit t.homes 0 homes 0 t.issued;
  Array.blit t.pcbs 0 pcbs 0 t.issued;
  t.links <- links;
  t.homes <- homes;
  t.pcbs <- pcbs

let push_front t s c =
  let h = t.heads.(c) in
  set_next t s h;
  set_prev t s nil;
  if h >= 0 then set_prev t h s else t.tails.(c) <- s;
  t.heads.(c) <- s;
  t.homes.(s) <- c;
  t.lengths.(c) <- t.lengths.(c) + 1

let unlink t s =
  let c = t.homes.(s) and p = prev t s and n = next t s in
  if p >= 0 then set_next t p n else t.heads.(c) <- n;
  if n >= 0 then set_prev t n p else t.tails.(c) <- p;
  t.lengths.(c) <- t.lengths.(c) - 1

let release t s =
  unlink t s;
  if t.free >= 0 then t.pcbs.(t.free) <- vacant ();
  t.homes.(s) <- nil;
  set_next t s t.free;
  t.free <- s;
  Lookup_stats.note_remove t.stats

(* The index is offered the slot the insert would claim: it binds a new
   key to it, or answers an existing key's own slot, in one probe. *)
let insert ?id t ~chain flow data =
  let { Packet.Flow.w0; w1 } = flow in
  let s =
    if t.free >= 0 then t.free
    else begin
      if t.issued = Array.length t.homes then grow t;
      t.issued
    end
  in
  if P.add t.index ~w0 ~w1 s <> s then
    invalid_arg "Pcb_pool.insert: duplicate flow";
  if s = t.free then t.free <- next t s else t.issued <- t.issued + 1;
  let id =
    match id with
    | Some id -> id
    | None ->
      let id = t.next_id in
      t.next_id <- id + 1;
      id
  in
  let pcb = Pcb.make ~id ~flow data in
  t.pcbs.(s) <- pcb;
  t.links.(s * stride) <- w0;
  t.links.((s * stride) + 1) <- w1;
  push_front t s chain;
  Lookup_stats.note_insert t.stats;
  pcb

let remove t { Packet.Flow.w0; w1 } =
  let s = P.take t.index ~w0 ~w1 ~default:nil in
  if s >= 0 then release t s;
  s

let free t s =
  if not (live t s) then invalid_arg "Pcb_pool.free: slot not live";
  let i = s * stride in
  P.remove t.index ~w0:t.links.(i) ~w1:t.links.(i + 1);
  release t s

(* Top-level recursion over explicit arguments, so a scan allocates
   nothing; the count is charged once, at the end. *)
let rec walk stats links w0 w1 s n =
  if s < 0 then begin
    Lookup_stats.examine stats ~count:n;
    nil
  end
  else
    let i = s * stride in
    if Array.unsafe_get links i = w0 && Array.unsafe_get links (i + 1) = w1
    then begin
      Lookup_stats.examine stats ~count:(n + 1);
      s
    end
    else walk stats links w0 w1 (Array.unsafe_get links (i + 2)) (n + 1)

let probe t s flow =
  s >= 0
  && begin
    Lookup_stats.examine t.stats ~count:1;
    matches t s flow
  end

let scan t ~chain { Packet.Flow.w0; w1 } =
  walk t.stats t.links w0 w1 t.heads.(chain) 0

let found t ~hit_cache s =
  let pcb = pcb t s in
  Pcb.note_rx pcb;
  Lookup_stats.end_lookup t.stats ~hit_cache ~found:true;
  pcb

let finish t ~hit_cache s =
  if s >= 0 then Some (found t ~hit_cache s)
  else begin
    Lookup_stats.end_lookup t.stats ~hit_cache ~found:false;
    None
  end

let move_to_front t s =
  if not (live t s) then invalid_arg "Pcb_pool.move_to_front: slot not live";
  let c = t.homes.(s) in
  if t.heads.(c) <> s then begin
    unlink t s;
    push_front t s c
  end

let note_send t flow =
  let s = slot t flow in
  if s >= 0 then Pcb.note_tx (pcb t s)

let iter f t =
  for c = 0 to Array.length t.heads - 1 do
    let s = ref t.heads.(c) in
    while !s >= 0 do
      f (Array.unsafe_get t.pcbs !s);
      s := next t !s
    done
  done

let rechain t ~chains home =
  if chains <= 0 then invalid_arg "Pcb_pool.rechain: chains <= 0";
  let old = t.heads in
  t.heads <- Array.make chains nil;
  t.tails <- Array.make chains nil;
  t.lengths <- Array.make chains 0;
  Array.iter
    (fun first ->
      let s = ref first in
      while !s >= 0 do
        let following = next t !s in
        push_front t !s (home (pcb t !s).Pcb.flow);
        s := following
      done)
    old
