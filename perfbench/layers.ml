(* The per-layer ledger of one traced run.

   Untraced rate and latency blocks alternate with traced blocks on
   one stack.  A traced block times each datagram's root span and its
   children — parse, handle_segment, poll_output and advance_clock —
   keeping the spans in memory; the last block's spans are written out
   at the end.  Every span has one clock read's cost subtracted.
   Demultiplexing is measured by the shadow replay, the pipeline by
   Parallel.Smp's stage histograms and by running the same trace
   through Smp and through a single stack, and the remaining probes
   time whole loops of calls to single public functions. *)

let block_datagrams = E2e.block_datagrams

type spans = {
  root : int array;
  parse : int array;
  handle : int array;
  poll : int array;
  clock : int array;
}

type sums = {
  mutable n : int;
  mutable t_parse : int;
  mutable t_handle : int;
  mutable t_poll : int;
  mutable t_clock : int;
  mutable ticks : int;
}

let traced_block (r : Single.t) sp sums =
  let steady = r.trace.Trace.steady in
  let t_block = ref 0 in
  for i = 0 to block_datagrams - 1 do
    let b = steady.(r.cursor) in
    let t0 = Measure.now_ns () in
    let parsed = Packet.Segment.parse b ~off:0 in
    let t1 = Measure.now_ns () in
    (match parsed with
    | Ok seg -> Tcpcore.Stack.handle_segment r.stack seg
    | Error _ -> r.errors <- r.errors + 1);
    let t2 = Measure.now_ns () in
    let out = Tcpcore.Stack.poll_output r.stack in
    let t3 = Measure.now_ns () in
    r.tx <- r.tx + List.length out;
    r.fed <- r.fed + 1;
    let t4 =
      if Single.tick_due r then begin
        Single.tick r;
        sums.ticks <- sums.ticks + 1;
        Measure.now_ns ()
      end
      else t3
    in
    let t5 = Measure.now_ns () in
    sp.root.(i) <- t5 - t0;
    sp.parse.(i) <- t1 - t0;
    sp.handle.(i) <- t2 - t1;
    sp.poll.(i) <- t3 - t2;
    sp.clock.(i) <- t4 - t3;
    t_block := !t_block + (t5 - t0);
    sums.t_parse <- sums.t_parse + (t1 - t0);
    sums.t_handle <- sums.t_handle + (t2 - t1);
    sums.t_poll <- sums.t_poll + (t3 - t2);
    sums.t_clock <- sums.t_clock + (t4 - t3);
    Single.wrap r
  done;
  sums.n <- sums.n + block_datagrams;
  float_of_int block_datagrams /. (float_of_int !t_block /. 1e9)

let write_spans path sp =
  let oc = open_out path in
  output_string oc "datagram\troot_ns\tparse_ns\thandle_segment_ns\tpoll_output_ns\tadvance_clock_ns\n";
  for i = 0 to Array.length sp.root - 1 do
    Printf.fprintf oc "%d\t%d\t%d\t%d\t%d\t%d\n" i sp.root.(i) sp.parse.(i)
      sp.handle.(i) sp.poll.(i) sp.clock.(i)
  done;
  close_out oc

(* Minor words per call of parse, handle_segment and poll_output, and
   reply segments per datagram, over one whole pass. *)
let words_pass (r : Single.t) =
  Single.finish_pass r;
  let steady = r.trace.Trace.steady in
  let n = Array.length steady in
  let w_parse = ref 0.0 and w_handle = ref 0.0 and tx = ref 0 in
  for i = 0 to n - 1 do
    let w0 = Gc.minor_words () in
    let parsed = Packet.Segment.parse steady.(i) ~off:0 in
    let w1 = Gc.minor_words () in
    (match parsed with
    | Ok seg -> Tcpcore.Stack.handle_segment r.stack seg
    | Error _ -> r.errors <- r.errors + 1);
    let w2 = Gc.minor_words () in
    w_parse := !w_parse +. (w1 -. w0);
    w_handle := !w_handle +. (w2 -. w1);
    let out = List.length (Tcpcore.Stack.poll_output r.stack) in
    tx := !tx + out;
    r.tx <- r.tx + out;
    r.fed <- r.fed + 1;
    if Single.tick_due r then Single.tick r;
    Single.wrap r
  done;
  let f x = x /. float_of_int n in
  (f !w_parse, f !w_handle, float_of_int !tx /. float_of_int n)

(* Mean nanoseconds per call of [f] over [n] calls, median of 7
   repetitions. *)
let per_call n f =
  Measure.median
    (List.init 7 (fun _ ->
         let t0 = Measure.now_ns () in
         for i = 0 to n - 1 do
           f i
         done;
         float_of_int (Measure.now_ns () - t0) /. float_of_int n))

let probes (tr : Trace.t) =
  let steady = tr.Trace.steady in
  let n = Array.length steady in
  let flows = Shadow.flows steady in
  let peek i = ignore (Sys.opaque_identity (Packet.Segment.peek_flow steady.(i mod n) ~off:0)) in
  let calls = max n 65536 in
  let peek_ns = per_call calls peek in
  let (), peek_words = Measure.minor_words (fun () -> for i = 0 to n - 1 do peek i done) in
  let hasher = Hashing.Hashers.multiplicative in
  let bucket_ns =
    per_call calls (fun i ->
        ignore
          (Sys.opaque_identity
             (Hashing.Hashers.bucket_flow hasher ~buckets:Demux.Sequent.default_chains
                flows.(i mod n))))
  in
  [ ("packet.peek_flow_ns", peek_ns);
    ("packet.peek_flow_words", peek_words /. float_of_int n);
    ("hashing.bucket_flow_ns", bucket_ns) ]

(* One datagram handed from one domain to another and back over two
   SPSC rings; half the round trip. *)
let ring_handoff_ns () =
  let trips = 100_000 in
  let there = Parallel.Ring.create ~capacity:64
  and back = Parallel.Ring.create ~capacity:64 in
  let echo =
    Domain.spawn (fun () ->
        let rec loop k =
          if k < trips then
            match Parallel.Ring.try_pop there with
            | Some v ->
              while not (Parallel.Ring.try_push back v) do
                Domain.cpu_relax ()
              done;
              loop (k + 1)
            | None ->
              Domain.cpu_relax ();
              loop k
        in
        loop 0)
  in
  let t0 = Measure.now_ns () in
  for i = 1 to trips do
    while not (Parallel.Ring.try_push there i) do
      Domain.cpu_relax ()
    done;
    let rec wait () =
      match Parallel.Ring.try_pop back with
      | Some _ -> ()
      | None ->
        Domain.cpu_relax ();
        wait ()
    in
    wait ()
  done;
  let dt = Measure.now_ns () - t0 in
  Domain.join echo;
  float_of_int dt /. float_of_int (2 * trips)

(* Seconds to replay [datagrams] through a fresh single stack (no
   timer ticks, as in Smp's worker). *)
let single_replay (tr : Trace.t) datagrams =
  let t0 = Measure.now_ns () in
  let stack = Single.create_stack tr in
  Array.iter
    (fun b ->
      ignore (Tcpcore.Stack.handle_bytes stack b);
      ignore (Tcpcore.Stack.poll_output stack))
    datagrams;
  Measure.seconds_since t0

(* Smp's defaults (1024-slot rings, Sequent-19, chain-affine
   steering) at one worker domain, serving the trace's application. *)
let smp_config ?(stages = false) (tr : Trace.t) =
  Parallel.Smp.config ~stages ~domains:1 ~on_data:(Single.on_data tr)
    ~local_addr:Trace.server_addr ~listen_port:Trace.server_port ()

let timed_smp cfg datagrams =
  let t0 = Measure.now_ns () in
  let res = Parallel.Smp.run cfg datagrams in
  (res, Measure.seconds_since t0)

(* The pipeline's oracle: a sound conservation ledger (which includes
   no unclassified or leftover datagrams), nothing rejected or dropped
   at dispatch, no drops in the stack, and every flow Established
   having received [bytes] of requests. *)
let smp_check (tr : Trace.t) ~bytes (res : Parallel.Smp.result) =
  let failures = ref [] and failed = ref 0 in
  let fail n s =
    failed := !failed + n;
    failures := s :: !failures
  in
  List.iter (fail 1) (Parallel.Smp.violations res);
  Array.iter
    (fun (d : Parallel.Smp.domain_result) ->
      if d.rejected + d.dropped_full > 0 then
        fail (d.rejected + d.dropped_full)
          (Printf.sprintf "domain %d: %d rejected, %d dropped at dispatch"
             d.index d.rejected d.dropped_full))
    res.per_domain;
  let drops = List.fold_left (fun n (_, c) -> n + c) 0 res.merged_drops in
  if drops > 0 then fail drops (Printf.sprintf "%d datagrams dropped" drops);
  let bad =
    List.length
      (List.filter
         (fun (c : Parallel.Smp.conn_summary) ->
           (not (Tcpcore.State.equal c.state Tcpcore.State.Established))
           || c.bytes_in <> bytes)
         res.connections)
  in
  if bad > 0 then
    fail bad (Printf.sprintf "%d flows not Established with %d bytes in" bad bytes);
  let n = List.length res.connections in
  if n <> tr.Trace.population then
    fail (abs (n - tr.Trace.population))
      (Printf.sprintf "%d connections, expected %d" n tr.Trace.population);
  (!failed, List.rev !failures)

(* The trace Smp and the single-stack comparison replay: setup and at
   least [pipeline_datagrams] steady datagrams — whole passes, each
   moved on from the last, taken before the replay moves the trace
   itself on.  Passes that repeat 4-tuples (churn-tw) are replayed
   once: Smp never drives the timers that would reap them. *)
let pipeline_datagrams = 16_384

let pipeline_trace (tr : Trace.t) =
  let scratch = Trace.copy tr in
  let len = Array.length tr.Trace.steady in
  let passes =
    if tr.Trace.seq_step = 0 then 1 else (pipeline_datagrams + len - 1) / len
  in
  let steady =
    List.init passes (fun _ ->
        let pass = Array.map Bytes.copy scratch.Trace.steady in
        Trace.advance scratch;
        pass)
  in
  (Array.concat (tr.Trace.setup :: steady), passes)

let run ?spans_file ~seconds ~clock_ns (tr : Trace.t) : E2e.result =
  let failures = ref [] and failed = ref 0 in
  let fail n s =
    failed := !failed + n;
    failures := !failures @ [ s ]
  in
  let full, pipeline_passes = pipeline_trace tr in
  let r = Single.create ~record_reaps:true tr in
  Single.setup r;
  Single.pass r;
  let q0 = Gc.quick_stat () in
  Single.pass r;
  let q1 = Gc.quick_stat () in
  let steady_len = float_of_int (Array.length tr.Trace.steady) in
  let parse_words, handle_words, tx_per_dg = words_pass r in
  (* Alternate untraced and traced blocks. *)
  let sp =
    { root = Array.make block_datagrams 0; parse = Array.make block_datagrams 0;
      handle = Array.make block_datagrams 0; poll = Array.make block_datagrams 0;
      clock = Array.make block_datagrams 0 }
  in
  let sums = { n = 0; t_parse = 0; t_handle = 0; t_poll = 0; t_clock = 0; ticks = 0 } in
  let b = E2e.blocks () and samples = Array.make block_datagrams 0 in
  let traced = ref [] and tw = ref [] in
  let t0 = Measure.now_ns () in
  while Measure.seconds_since t0 < seconds /. 2.0 || b.n < 10 do
    b.rate.(b.n) <- float_of_int block_datagrams /. Single.timed_block r block_datagrams;
    let p50, p99 = E2e.latency_block ~clock_ns r samples in
    b.p50.(b.n) <- p50;
    b.p99.(b.n) <- p99;
    b.n <- b.n + 1;
    traced := traced_block r sp sums :: !traced;
    tw := float_of_int (Tcpcore.Stack.pending_time_wait r.stack) :: !tw
  done;
  Option.iter (fun path -> write_spans path sp) spans_file;
  (* The idle timer tick, where the workload never ticks. *)
  let idle_clock_ns, idle_actions =
    if tr.Trace.clock_every > 0 then (nan, nan)
    else begin
      let calls = 2000 and acc = ref 0 and actions = ref 0 in
      for i = 1 to calls do
        let t0 = Measure.now_ns () in
        actions := !actions + Tcpcore.Stack.advance_clock r.stack ~now:(0.25 *. float_of_int i);
        acc := !acc + (Measure.now_ns () - t0)
      done;
      ( (float_of_int !acc /. float_of_int calls) -. clock_ns,
        float_of_int !actions /. float_of_int calls )
    end
  in
  Single.finish_pass r;
  let actions_per_call =
    if tr.Trace.clock_every > 0 then
      float_of_int r.Single.reaped /. float_of_int (max 1 r.Single.clock_calls)
    else idle_actions
  in
  (* The shadow replay of the stack's whole life so far. *)
  let steady_fed = r.Single.fed - Array.length tr.Trace.setup in
  let shadow =
    Shadow.replay ~clock_ns tr ~datagrams:steady_fed
      ~reaps:(Option.value r.Single.reaps ~default:(Queue.create ()))
  in
  let stack_stats = Demux.Lookup_stats.snapshot (Tcpcore.Stack.demux_stats r.stack) in
  (match shadow.Shadow.total with
  | Some s -> List.iter (fail 1) (Shadow.mismatch s stack_stats)
  | None -> fail 1 "shadow replay recorded no statistics");
  let examined, hit_ratio = Shadow.steady_delta shadow in
  let drops = Tcpcore.Stack.drop_counts r.stack in
  let n_failed, fs = Single.check r in
  failed := !failed + n_failed;
  failures := !failures @ fs;
  (* Smp: stage histograms, then pipeline vs single stack. *)
  let smp_bytes =
    if tr.Trace.closes then None
    else Some (tr.Trace.payload_per_pass * pipeline_passes)
  in
  let smp_checked res =
    (match smp_bytes with
    | Some bytes ->
      let n, fs = smp_check tr ~bytes res in
      failed := !failed + n;
      failures := !failures @ fs
    | None -> List.iter (fail 1) (Parallel.Smp.violations res));
    res
  in
  let staged = smp_checked (Parallel.Smp.run (smp_config ~stages:true tr) full) in
  let stage name =
    match List.assoc_opt name staged.Parallel.Smp.stages with
    | Some h -> Obs.Histogram.mean h -. clock_ns
    | None -> nan
  in
  let plain = smp_config tr in
  let pairs =
    List.init 7 (fun _ ->
        let res, smp_s = timed_smp plain full in
        ignore (smp_checked res);
        let single_s = single_replay tr full in
        (smp_s, single_s))
  in
  let n_full = float_of_int (Array.length full) in
  let smp_ns = Measure.median (List.map fst pairs) *. 1e9 /. n_full in
  let single_ns = Measure.median (List.map snd pairs) *. 1e9 /. n_full in
  let sum_over f = Array.fold_left (fun a d -> a + f d) 0 staged.per_domain in
  (* Self times per datagram. *)
  let n = float_of_int sums.n in
  let self total count = (float_of_int total /. n) -. (clock_ns *. count /. n) in
  let parse_ns = self sums.t_parse n in
  let handle_full = self sums.t_handle n in
  let poll_ns = self sums.t_poll n in
  let clock_per_dg = self sums.t_clock (float_of_int sums.ticks) in
  let demux_per_dg =
    float_of_int shadow.steady_ns /. float_of_int (max 1 shadow.steady_lookups)
  in
  let untraced_rate = Measure.median (Array.to_list (Array.sub b.rate 0 b.n))
  and traced_rate = Measure.median !traced in
  let untraced_ns = 1e9 /. untraced_rate in
  let layers_ns = parse_ns +. handle_full +. poll_ns +. clock_per_dg in
  let metrics =
    [ ("e2e.latency_p99_us", E2e.slow_latency_us b (fun i -> b.p99.(i)));
      ("packet.parse_ns", parse_ns);
      ("packet.parse_words", parse_words) ]
    @ probes tr
    @ [ ("demux.lookup_ns", Shadow.per_op shadow.lookup_ns shadow.lookups);
        ("demux.pcbs_examined_per_lookup", examined);
        ("demux.cache_hit_ratio", hit_ratio);
        ("demux.insert_ns", Shadow.per_op shadow.insert_ns shadow.inserts);
        ("demux.remove_ns", Shadow.per_op shadow.remove_ns shadow.removes);
        ("demux.resident_pcbs",
         float_of_int shadow.resident_sum /. float_of_int (max 1 shadow.steady_lookups));
        ("tcpcore.handle_segment_ns", handle_full -. demux_per_dg);
        ("tcpcore.handle_segment_words", handle_words);
        ("tcpcore.poll_output_ns", poll_ns);
        ("tcpcore.tx_segments_per_dg", tx_per_dg);
        ("tcpcore.advance_clock_ns",
         if tr.Trace.clock_every > 0 then
           (float_of_int sums.t_clock /. float_of_int (max 1 sums.ticks)) -. clock_ns
         else idle_clock_ns);
        ("tcpcore.timer_actions_per_call", actions_per_call);
        ("tcpcore.time_wait_resident", Measure.median !tw);
        ("tcpcore.drops", float_of_int (List.fold_left (fun a (_, c) -> a + c) 0 drops)) ]
    @ List.map (fun (reason, c) -> ("tcpcore.drops." ^ reason, float_of_int c)) drops
    @ [ ("parallel.steer_ns", stage "steer");
        ("parallel.enqueue_ns", stage "enqueue");
        ("parallel.ring_handoff_ns", ring_handoff_ns ());
        ("parallel.pipeline_overhead_ns", smp_ns -. single_ns);
        ("parallel.dropped_full", float_of_int (sum_over (fun d -> d.dropped_full)));
        ("parallel.rejected", float_of_int (sum_over (fun d -> d.rejected)));
        ("gc.promoted_words_per_dg", (q1.Gc.promoted_words -. q0.Gc.promoted_words) /. steady_len);
        ("gc.minor_collections_per_kdg",
         float_of_int (q1.Gc.minor_collections - q0.Gc.minor_collections) *. 1000.0 /. steady_len);
        ("obs.clock_read_ns", clock_ns);
        ("obs.tracing_overhead_ratio", untraced_rate /. traced_rate);
        ("ledger.untraced_ns_per_dg", untraced_ns);
        ("ledger.layers_ns_per_dg", layers_ns);
        ("ledger.residual_ratio", (untraced_ns -. layers_ns) /. untraced_ns) ]
  in
  { E2e.metrics; attempted = r.Single.fed; failed = !failed; failures = !failures }
