(* A shadow replay of the stack's demultiplexing work.

   The stack's table sits behind its own interface, so the per-lookup
   cost is measured by replaying the same operations into a
   [Demux.Registry] built from the same spec: per datagram one lookup
   (a SYN's misses and is followed by the accept's insert), and after
   every timer tick as many TIME-WAIT removals, oldest first, as that
   tick reaped.  The shadow must examine exactly as many PCBs as the
   stack did — otherwise it measured different work and the run
   fails. *)

type t = {
  mutable lookups : int;
  mutable lookup_ns : int;
  mutable inserts : int;
  mutable insert_ns : int;
  mutable removes : int;
  mutable remove_ns : int;
  mutable resident_sum : int;      (* table size seen by steady lookups *)
  mutable steady_lookups : int;
  mutable steady_ns : int;         (* lookup + insert + remove, steady part *)
  mutable pass_stats : Demux.Lookup_stats.snapshot list;
      (* at the start and end of the second steady pass *)
  mutable total : Demux.Lookup_stats.snapshot option;
}

(* The stack's default demultiplexer. *)
let spec =
  Demux.Registry.Sequent
    { chains = Demux.Sequent.default_chains;
      hasher = Hashing.Hashers.multiplicative }

let flows datagrams =
  Array.map
    (fun b ->
      match Packet.Segment.peek_flow b ~off:0 with
      | Ok f -> f
      | Error e -> failwith ("shadow: unreadable datagram: " ^ e))
    datagrams

let kind_of = function
  | Trace.Hs_ack -> Demux.Types.Pure_ack
  | Trace.Syn | Trace.Request | Trace.Fin_ack -> Demux.Types.Data

(* Replay the life of a stack that processed [tr]'s setup and then
   [datagrams] steady datagrams, with [reaps] its advance_clock results
   in order. *)
let replay ~clock_ns (tr : Trace.t) ~datagrams ~reaps =
  let c = int_of_float clock_ns in
  let reg : unit Demux.Registry.t = Demux.Registry.create spec in
  let s =
    { lookups = 0; lookup_ns = 0; inserts = 0; insert_ns = 0; removes = 0;
      remove_ns = 0; resident_sum = 0; steady_lookups = 0; steady_ns = 0;
      pass_stats = []; total = None }
  in
  let reaps = Queue.copy reaps in
  let time_wait = Queue.create () in
  let fed = ref 0 and steady = ref false in
  let remove flow =
    let t0 = Measure.now_ns () in
    let r = reg.remove flow in
    let dt = Measure.now_ns () - t0 - c in
    if r = None then failwith "shadow: removal of an absent flow";
    s.removes <- s.removes + 1;
    s.remove_ns <- s.remove_ns + dt;
    if !steady then s.steady_ns <- s.steady_ns + dt
  in
  let one flow kind =
    let t0 = Measure.now_ns () in
    let found = reg.lookup ~kind:(kind_of kind) flow in
    let dt = Measure.now_ns () - t0 - c in
    s.lookups <- s.lookups + 1;
    s.lookup_ns <- s.lookup_ns + dt;
    if !steady then begin
      s.steady_ns <- s.steady_ns + dt;
      s.steady_lookups <- s.steady_lookups + 1;
      s.resident_sum <- s.resident_sum + reg.length ()
    end;
    if found = None && kind = Trace.Syn then begin
      let t0 = Measure.now_ns () in
      ignore (reg.insert flow ());
      let dt = Measure.now_ns () - t0 - c in
      s.inserts <- s.inserts + 1;
      s.insert_ns <- s.insert_ns + dt;
      if !steady then s.steady_ns <- s.steady_ns + dt
    end;
    if kind = Trace.Fin_ack then Queue.add flow time_wait;
    incr fed;
    if tr.Trace.clock_every > 0 && !fed mod tr.Trace.clock_every = 0 then
      for _ = 1 to Queue.pop reaps do
        remove (Queue.pop time_wait)
      done
  in
  let setup_flows = flows tr.Trace.setup in
  Array.iteri (fun i f -> one f tr.Trace.setup_kinds.(i)) setup_flows;
  steady := true;
  let steady_flows = flows tr.Trace.steady in
  let n = Array.length steady_flows in
  for i = 0 to datagrams - 1 do
    if i = n || i = 2 * n then
      s.pass_stats <- Demux.Lookup_stats.snapshot reg.stats :: s.pass_stats;
    one steady_flows.(i mod n) tr.Trace.steady_kinds.(i mod n)
  done;
  steady := false;
  s.total <- Some (Demux.Lookup_stats.snapshot reg.stats);
  (* Tear down, so that removal is measured on every workload. *)
  let resident = ref [] in
  reg.iter (fun pcb -> resident := pcb.Demux.Pcb.flow :: !resident);
  List.iter remove !resident;
  s

(* The comparable counters of two snapshots, or why they differ. *)
let mismatch (a : Demux.Lookup_stats.snapshot) (b : Demux.Lookup_stats.snapshot) =
  let fields =
    [ ("lookups", a.lookups, b.lookups);
      ("pcbs_examined", a.pcbs_examined, b.pcbs_examined);
      ("cache_hits", a.cache_hits, b.cache_hits);
      ("inserts", a.inserts, b.inserts);
      ("removes", a.removes, b.removes) ]
  in
  List.filter_map
    (fun (name, x, y) ->
      if x = y then None
      else Some (Printf.sprintf "shadow %s %d <> stack %d" name x y))
    fields

(* PCBs examined per lookup and cache hits per lookup over the second
   steady pass: a fixed stretch of the replay, so the figures repeat
   exactly for a seed however long the run. *)
let steady_delta s =
  match s.pass_stats with
  | [ b; a ] ->
    let lookups = b.Demux.Lookup_stats.lookups - a.Demux.Lookup_stats.lookups in
    ( float_of_int (b.pcbs_examined - a.pcbs_examined) /. float_of_int (max 1 lookups),
      float_of_int (b.cache_hits - a.cache_hits) /. float_of_int (max 1 lookups) )
  | _ -> (nan, nan)

let per_op ns n = if n = 0 then 0.0 else float_of_int ns /. float_of_int n
