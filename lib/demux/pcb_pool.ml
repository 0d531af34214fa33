(* Slots are small ints: a resident PCB's identity behind [pcbs],
   [homes] and the flow index.  [homes.(s)] is the chain a live slot
   sits in; a free slot holds [-2 - next] there instead, which threads
   the free list (last freed, first reused) through [homes] with every
   free entry negative.  Every free slot except the free-list head holds
   no PCB, so at most one removed PCB outlives its removal (the one
   [remove]'s caller may still read).

   Each chain is one int array [| lo; hi; e; e; ... |] whose entries in
   [lo, hi) are stored tail-first: the head is the entry at [hi - 1], a
   push-front is an append, and a scan walks down from [hi] over
   adjacent ints.  An entry packs a 32-bit fingerprint of the PCB's key
   above its slot ([fp lsl slot_bits lor s]), so a scan compares one
   int per PCB and reads the PCB's own key words only where the
   fingerprint matches.  Empty chains share [empty], which no operation
   writes: a push to it allocates first, and nothing else touches an
   empty chain. *)

module P = Packed_table.Heap

let nil = -1
let lo_at = 0
let hi_at = 1
let first = 2
let empty = [| first; first |]
let slot_bits = 31
let slot_mask = (1 lsl slot_bits) - 1

(* The high 32 bits of a multiplicative mix of both key words. *)
let fingerprint w0 w1 =
  (((w0 * 0x2545F4914F6CDD1D) lxor w1) * 0x1F58476D1CE4E5B9) lsr slot_bits

(* Room for 56 flows before the index first grows, so a small table
   pays no index resize while it fills. *)
let index_capacity = 64

type 'a t = {
  index : P.t;                     (* flow -> slot *)
  mutable homes : int array;
  mutable pcbs : 'a Pcb.t array;
  mutable issued : int;            (* slots [0, issued) have been used *)
  mutable free : int;
  mutable lists : int array array; (* one per chain *)
  stats : Lookup_stats.t;
  mutable next_id : int;
}

(* What a slot without a PCB holds: an immediate, never read as a PCB,
   so a removed PCB is released to the GC once its slot is cleared. *)
let vacant () : 'a Pcb.t = Obj.magic 0

let create ?(chains = 1) () =
  if chains <= 0 then invalid_arg "Pcb_pool.create: chains <= 0";
  { index = P.create ~initial_capacity:index_capacity ();
    homes = [||]; pcbs = [||]; issued = 0; free = nil;
    lists = Array.make chains empty;
    stats = Lookup_stats.create (); next_id = 0 }

let stats t = t.stats
let length t = P.length t.index
let chains t = Array.length t.lists

let chain_length t ~chain =
  let a = t.lists.(chain) in
  a.(hi_at) - a.(lo_at)

let head t ~chain =
  let a = t.lists.(chain) in
  if a.(hi_at) = a.(lo_at) then nil else a.(a.(hi_at) - 1) land slot_mask

let tail t ~chain =
  let a = t.lists.(chain) in
  if a.(hi_at) = a.(lo_at) then nil else a.(a.(lo_at)) land slot_mask

let live t s = s >= 0 && s < t.issued && t.homes.(s) >= 0

let pcb t s = t.pcbs.(s)

let matches t s { Packet.Flow.w0; w1 } =
  let f = t.pcbs.(s).Pcb.flow in
  f.Packet.Flow.w1 = w1 && f.Packet.Flow.w0 = w0

let mem t { Packet.Flow.w0; w1 } = P.mem t.index ~w0 ~w1

let slot t { Packet.Flow.w0; w1 } =
  match P.find t.index ~w0 ~w1 with s -> s | exception Not_found -> nil

(* The slot arrays double with the number of slots issued, from 8. *)
let grow t =
  if t.issued > slot_mask then failwith "Pcb_pool: out of slots";
  let n = max 8 (2 * t.issued) in
  let homes = Array.make n nil and pcbs = Array.make n (vacant ()) in
  Array.blit t.homes 0 homes 0 t.issued;
  Array.blit t.pcbs 0 pcbs 0 t.issued;
  t.homes <- homes;
  t.pcbs <- pcbs

(* Chain [c]'s array with room for one more entry at [hi].  At the top
   of the array the entries slide down to [first] when at least a
   quarter of it lies free below [lo] (the slide moves at most three
   entries per entry appended since the last one), and otherwise move
   to an array of twice the entries, from one. *)
let room t c =
  let a = t.lists.(c) in
  let lo = a.(lo_at) and hi = a.(hi_at) and n = Array.length a in
  if hi < n then a
  else begin
    let b =
      if lo > first && 4 * (lo - first) >= n - first then a
      else Array.make (first + max 1 (2 * (n - first))) 0
    in
    for i = lo to hi - 1 do
      b.(first + i - lo) <- a.(i)
    done;
    b.(lo_at) <- first;
    b.(hi_at) <- first + hi - lo;
    t.lists.(c) <- b;
    b
  end

let push_front t c e =
  let a = room t c in
  let hi = a.(hi_at) in
  a.(hi) <- e;
  a.(hi_at) <- hi + 1;
  t.homes.(e land slot_mask) <- c

(* Where slot [s] sits in [a], searched from both ends at once ([i]
   climbs from the tail, [j] falls from the head), so finding it costs
   at most the entries on its shorter side.  [s] is in [a]. *)
let rec locate (a : int array) s i j =
  if a.(j) land slot_mask = s then j
  else if a.(i) land slot_mask = s then i
  else locate a s (i + 1) (j - 1)

(* Take slot [s]'s entry out of its chain by moving the shorter side
   over it. *)
let unlink t s =
  let a = t.lists.(t.homes.(s)) in
  let lo = a.(lo_at) and top = a.(hi_at) - 1 in
  let p = locate a s lo top in
  if p - lo < top - p then begin
    for i = p downto lo + 1 do
      a.(i) <- a.(i - 1)
    done;
    a.(lo_at) <- lo + 1
  end
  else begin
    for i = p to top - 1 do
      a.(i) <- a.(i + 1)
    done;
    a.(hi_at) <- top
  end

let release t s =
  unlink t s;
  if t.free >= 0 then t.pcbs.(t.free) <- vacant ();
  t.homes.(s) <- -2 - t.free;
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
  if s = t.free then t.free <- -2 - t.homes.(s)
  else t.issued <- t.issued + 1;
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
  push_front t chain ((fingerprint w0 w1 lsl slot_bits) lor s);
  Lookup_stats.note_insert t.stats;
  pcb

let remove t { Packet.Flow.w0; w1 } =
  let s = P.take t.index ~w0 ~w1 ~default:nil in
  if s >= 0 then release t s;
  s

let free t s =
  if not (live t s) then invalid_arg "Pcb_pool.free: slot not live";
  let { Packet.Flow.w0; w1 } = (pcb t s).Pcb.flow in
  P.remove t.index ~w0 ~w1;
  release t s

(* The position of the first entry from [i] down to [lo] whose PCB's key
   is [(w0, w1)], or [lo - 1]: one compare per PCB against the key's
   fingerprint [fp], and a read of the PCB's key words only where it
   matches.  Top-level recursion over explicit arguments, so a scan
   allocates nothing. *)
let rec walk pcbs (a : int array) fp w0 w1 lo i =
  if i < lo then i
  else
    let e = Array.unsafe_get a i in
    if e lsr slot_bits = fp
       && begin
         let f = (Array.unsafe_get pcbs (e land slot_mask)).Pcb.flow in
         f.Packet.Flow.w1 = w1 && f.Packet.Flow.w0 = w0
       end
    then i
    else walk pcbs a fp w0 w1 lo (i - 1)

let probe t s flow =
  s >= 0
  && begin
    Lookup_stats.examine t.stats ~count:1;
    matches t s flow
  end

(* The count is charged once, at the end: the entries from the head
   down to [i], the match included. *)
let scan t ~chain { Packet.Flow.w0; w1 } =
  let a = t.lists.(chain) in
  let lo = Array.unsafe_get a lo_at and top = Array.unsafe_get a hi_at - 1 in
  let i = walk t.pcbs a (fingerprint w0 w1) w0 w1 lo top in
  if i >= lo then begin
    Lookup_stats.examine t.stats ~count:(top - i + 1);
    Array.unsafe_get a i land slot_mask
  end
  else begin
    Lookup_stats.examine t.stats ~count:(top - i);
    nil
  end

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

let rec down (a : int array) s i =
  if a.(i) land slot_mask = s then i else down a s (i - 1)

(* Found from the head down, then the entries above it slide down one:
   the cost is the entries between the PCB and the head. *)
let move_to_front t s =
  if not (live t s) then invalid_arg "Pcb_pool.move_to_front: slot not live";
  let a = t.lists.(t.homes.(s)) in
  let top = a.(hi_at) - 1 in
  let p = down a s top in
  let e = a.(p) in
  for i = p to top - 1 do
    a.(i) <- a.(i + 1)
  done;
  a.(top) <- e

let note_send t flow =
  let s = slot t flow in
  if s >= 0 then Pcb.note_tx (pcb t s)

(* Chain [a]'s entries, head to tail. *)
let iter_chain f (a : int array) =
  for i = a.(hi_at) - 1 downto a.(lo_at) do
    f a.(i)
  done

let iter f t =
  Array.iter (iter_chain (fun e -> f t.pcbs.(e land slot_mask))) t.lists

let rechain t ~chains home =
  if chains <= 0 then invalid_arg "Pcb_pool.rechain: chains <= 0";
  let old = t.lists in
  t.lists <- Array.make chains empty;
  Array.iter
    (iter_chain (fun e ->
         push_front t (home (pcb t (e land slot_mask)).Pcb.flow) e))
    old
