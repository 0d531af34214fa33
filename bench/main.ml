(* Benchmark harness: regenerates every table and figure of McKenney &
   Dove (1992) — experiment ids E1-E25 from DESIGN.md — plus the
   extension experiments E28-E36, from one declarative experiment
   table ([experiments], near the bottom of this file).

   Each entry is listed once.  Its [run] prints the paper-value vs
   our-value table (so EXPERIMENTS.md can be filled mechanically),
   emits its tcpdemux-bench/1 records and exits 1 on its own
   acceptance gate — all from a single run, so the printed table and
   the records are the same numbers.  Its [expects] names the records
   [--check] must find, built from the same lists [run] loops over.
   Wall clock is only the secondary check the paper's PCBs-examined
   metric stands in for; the direct timing loops of E29/E35 and the
   wall-clock sanity entry provide it. *)

let section title = Printf.printf "\n==== %s ====\n\n" title

let row fmt = Printf.printf fmt

(* Where an experiment's records go: [emit ~id ~units metric value]
   appends one tcpdemux-bench/1 record. *)
type emit = id:string -> ?units:string -> string -> float -> unit

let bench_seed = 42

(* ------------------------------------------------------------------ *)
(* The paper's analytic results                                        *)

let default_params = Analysis.Tpca_params.default

let run_e1 () =
  Report.Ascii_plot.print ~title:"Figure 4" [ Analysis.Comparison.figure4 () ];
  let p = default_params in
  row "spot values: N(5)=%.0f N(10)=%.0f N(50)=%.0f (curve: 0 -> 1999)\n"
    (Analysis.Mtf_model.expected_preceding p 5.0)
    (Analysis.Mtf_model.expected_preceding p 10.0)
    (Analysis.Mtf_model.expected_preceding p 50.0)

let run_e2_e3 ~smoke:_ ~(emit : emit) =
  let cost = Analysis.Bsd_model.cost default_params in
  let train = Analysis.Bsd_model.train_probability default_params in
  row "E2 BSD expected PCBs searched : paper 1001    ours %.1f\n" cost;
  row "E3 packet-train probability   : paper 1.9e-35 ours %.3g\n" train;
  emit ~id:"E2" ~units:"pcbs" "analysis.bsd.cost" cost;
  emit ~id:"E3" "analysis.bsd.train_probability" train

let run_e4_e6 () =
  row "%-6s %18s %16s %18s\n" "R" "entry: paper/ours" "ack: paper/ours"
    "overall: paper/ours";
  List.iter2
    (fun (paper_entry, paper_ack, paper_overall) (r, entry, ack, overall) ->
      row "%-6.1f %10d/%-7.0f %8d/%-7.0f %10d/%-7.0f\n" r paper_entry entry
        paper_ack ack paper_overall overall)
    [ (1019, 78, 549); (1045, 190, 618); (1086, 362, 724); (1150, 659, 904) ]
    (Analysis.Comparison.mtf_response_time_table [ 0.2; 0.5; 1.0; 2.0 ])

let run_e7 ~smoke:_ ~(emit : emit) =
  row "%-8s %18s\n" "D" "paper/ours";
  List.iter2
    (fun paper rtt ->
      let ours =
        Analysis.Srcache_model.overall_cost
          (Analysis.Tpca_params.v ~users:2000 ~rtt ())
      in
      row "%-8s %10d/%-8.0f\n" (Printf.sprintf "%gms" (rtt *. 1000.)) paper ours)
    [ 667; 993; 1002 ] [ 0.001; 0.010; 0.100 ];
  emit ~id:"E7" ~units:"pcbs" "analysis.sr-cache.cost"
    (Analysis.Srcache_model.overall_cost default_params)

let run_e8_e11 ~smoke:_ ~(emit : emit) =
  let p = default_params in
  let hit = Analysis.Sequent_model.hit_rate p ~chains:19 in
  let quiet19 = Analysis.Sequent_model.quiet_probability p ~chains:19 in
  let quiet51 = Analysis.Sequent_model.quiet_probability p ~chains:51 in
  let cost19 = Analysis.Sequent_model.cost p ~chains:19 in
  let naive19 = Analysis.Sequent_model.cost_naive p ~chains:19 in
  let cost100 = Analysis.Sequent_model.cost p ~chains:100 in
  row "E8  hit rate H=19          : paper ~0.95%%  ours %.2f%%\n" (100. *. hit);
  row "E9  quiet prob H=19 / H=51 : paper ~1.5%% / ~21%%  ours %.1f%% / %.1f%%\n"
    (100. *. quiet19) (100. *. quiet51);
  row "E10 cost (Eq 22 vs Eq 19)  : paper 53.0 vs 53.6  ours %.1f vs %.1f\n"
    cost19 naive19;
  row "E11 cost at H=100          : paper <9  ours %.2f\n" cost100;
  emit ~id:"E10" ~units:"pcbs" "analysis.sequent-19.cost" cost19;
  emit ~id:"E11" ~units:"pcbs" "analysis.sequent-100.cost" cost100

let run_e12_e13 () =
  Report.Ascii_plot.print ~title:"Figure 13" (Analysis.Comparison.figure13 ());
  section "E13 / Figure 14: detail, 0-1,000 connections";
  Report.Ascii_plot.print ~title:"Figure 14" (Analysis.Comparison.figure14 ())

(* Simulation-backed experiments.  Sized to keep the whole bench run in
   tens of seconds; `tcpdemux simulate` runs bigger ones. *)

let validation_params = Analysis.Tpca_params.v ~users:1000 ()

let sequent chains =
  Demux.Registry.Sequent { chains; hasher = Hashing.Hashers.multiplicative }

(* A TPC/A run over [validation_params]; [tweak] edits the config. *)
let tpca ?(duration = 120.0) ?(tweak = Fun.id) spec =
  Sim.Tpca_workload.run
    (tweak (Sim.Tpca_workload.default_config ~duration validation_params))
    spec

let mean (report : Sim.Report.t) = report.Sim.Report.overall_mean

let e14_metric algorithm = "sim.tpca." ^ algorithm ^ ".overall_mean"

(* E14, with an obs registry attached so the examined-count
   percentiles (E27) ride along on the same runs.  [smoke] shrinks the
   simulated population and window for CI. *)
let run_e14 ~smoke ~(emit : emit) =
  let params = Analysis.Tpca_params.v ~users:(if smoke then 200 else 1000) () in
  let config =
    Sim.Tpca_workload.default_config ~seed:bench_seed params
      ~duration:(if smoke then 20.0 else 150.0)
  in
  let obs = Obs.Registry.create () in
  let rows =
    Sim.Validate.compare ~obs ~config params Demux.Registry.default_specs
  in
  Format.printf "%a@." Sim.Validate.pp_rows rows;
  List.iter
    (fun (r : Sim.Validate.row) ->
      emit ~id:"E14" ~units:"pcbs" (e14_metric r.Sim.Validate.algorithm)
        r.Sim.Validate.simulated)
    rows;
  List.iter
    (fun { Obs.Registry.name; units; data; _ } ->
      match data with
      | Obs.Registry.Histogram (summary, _) ->
        emit ~id:"E27" ~units (name ^ ".p50")
          (float_of_int summary.Obs.Histogram.p50);
        emit ~id:"E27" ~units (name ^ ".p99")
          (float_of_int summary.Obs.Histogram.p99)
      | Obs.Registry.Counter _ | Obs.Registry.Gauge _ -> ())
    (Obs.Registry.snapshot obs)

let run_e15 () =
  let config = Sim.Polling_workload.default_config ~users:400 ~rounds:8 () in
  let report = Sim.Polling_workload.run config Demux.Registry.Mtf in
  row "MTF entry cost with deterministic think time, 400 users: paper N=400  ours %.1f\n"
    report.Sim.Report.entry_mean

let run_e16 () =
  let config = Sim.Trains_workload.default_config () in
  let report = Sim.Trains_workload.run config Demux.Registry.Bsd in
  row "BSD on mean-16 trains: hit rate %.2f (one-entry cache works), cost %.2f\n"
    report.Sim.Report.hit_rate (mean report)

let hashed_mtf_19 =
  Demux.Registry.Hashed_mtf
    { chains = 19; hasher = Hashing.Hashers.multiplicative }

let run_e17 () =
  row "sequent H=19      : %.2f PCBs/packet\n"
    (mean (tpca ~duration:150.0 (sequent 19)));
  row "hashed-mtf H=19   : %.2f  (paper: at best ~2x better)\n"
    (mean (tpca ~duration:150.0 hashed_mtf_19));
  row "sequent H=100     : %.2f  (paper: ~5x better — the better buy)\n"
    (mean (tpca ~duration:150.0 (sequent 100)))

let run_e18 () =
  row "conn-id cost: exactly %.2f PCB/packet — what TP4/X.25/XTP buy;\n"
    (mean (tpca ~duration:60.0 (Demux.Registry.Conn_id { capacity = 2048 })));
  row "hashing gets within a small constant of it without protocol changes.\n"

let run_e19 () =
  let delayed c = { c with Sim.Tpca_workload.delayed_acks = true } in
  row "bsd      : normal %.1f  delayed-acks %.1f  (paper: 'no effect at the server')\n"
    (mean (tpca Demux.Registry.Bsd))
    (mean (tpca ~tweak:delayed Demux.Registry.Bsd));
  row "sr-cache : normal %.1f  delayed-acks %.1f  (send cache no longer evicted by query acks)\n"
    (mean (tpca Demux.Registry.Sr_cache))
    (mean (tpca ~tweak:delayed Demux.Registry.Sr_cache))

let run_e20 () =
  let chatty c = { c with Sim.Tpca_workload.extra_query_packets = 2 } in
  let line label r packets_per_txn =
    row "%s : hit rate %.4f, %.1f PCBs/packet, %.0f PCBs/transaction\n" label
      r.Sim.Report.hit_rate (mean r) (mean r *. packets_per_txn)
  in
  line "efficient client" (tpca Demux.Registry.Bsd) 2.0;
  line "3x-chatty client" (tpca ~tweak:chatty Demux.Registry.Bsd) 4.0;
  row "Hit ratio soars; work per transaction does not drop — 'the miss\n";
  row "penalty dominates the hit ratio' (paper Section 3.4).\n"

let run_e21 () =
  let splay = tpca Demux.Registry.Splay and sequent = tpca (sequent 19) in
  row "splay      : %.2f PCBs/packet (worst %d) — self-adjusting, no tuning knob\n"
    (mean splay) splay.Sim.Report.max_examined;
  row "sequent-19 : %.2f PCBs/packet (worst %d)\n" (mean sequent)
    sequent.Sim.Report.max_examined;
  row "Splaying exploits the txn->ack locality the paper's caches chase,\n";
  row "with an O(log N) cold cost; 1992 hardware preferred hashing's\n";
  row "simpler memory behaviour, and so do modern stacks.\n"

let run_e22 () =
  Format.printf "%a" Parallel.Throughput.pp_results
    (Parallel.Throughput.scaling_table ~lookups_per_domain:20_000
       ~domains:[ 1; 2; 4 ]
       Parallel.Throughput.
         [ Coarse_bsd; Coarse_sequent 19; Striped_sequent 19 ]);
  row
    "A single lock serialises every inbound packet (coarse throughput\n\
     degrades as domains are added); per-chain locks let packets for\n\
     different connections proceed in parallel — the other reason\n\
     Sequent's parallel TCP hashed its PCBs.\n"

let run_e23 () =
  let config = Sim.Mixed_workload.default_config ~oltp_users:1000 () in
  Format.printf "%a" Sim.Mixed_workload.pp_results
    (List.map
       (Sim.Mixed_workload.run config)
       Demux.Registry.[ Bsd; Mtf; Sr_cache; sequent 19 ]);
  row
    "Sequent is an order of magnitude better on the OLTP class while\n\
     still catching the bulk trains in its per-chain caches; note the\n\
     send/receive cache's OLTP cost is WORSE here than under pure\n\
     OLTP — the bulk stream keeps evicting its two cache slots.\n"

let run_e24 () =
  row "%-10s %12s %12s\n" "K entries" "model" "simulated";
  List.iter
    (fun entries ->
      row "%-10d %12.1f %12.1f\n" entries
        (Analysis.Lru_model.cost validation_params ~entries)
        (mean (tpca (Demux.Registry.Lru_cache { entries }))))
    [ 1; 8; 64; 256 ];
  row
    "A K-entry LRU cache starts catching response acks once K exceeds\n\
     the response-window packet count (~%.0f here) — but the floor is\n\
     still an order of magnitude above sequent-19's ~26.  Bigger\n\
     caches cannot rescue the linear scan; the miss penalty dominates.\n"
    (2.0 *. 0.1 *. 0.201 *. 999.0)

let run_e25 () =
  (* Think-time distribution ablation: same mean (10 s), different
     shapes.  MTF's TPC/A advantage came from exponential randomness;
     Sequent does not care. *)
  row "%-16s %10s %12s\n" "think time" "mtf" "sequent-19";
  List.iter
    (fun (label, think) ->
      let tweak (base : Sim.Tpca_workload.config) =
        { base with
          Sim.Tpca_workload.think =
            Option.value think ~default:base.Sim.Tpca_workload.think;
          stagger =
            (* Deterministic think needs staggered starts to avoid a
               degenerate thundering herd. *)
            (match label with
            | "deterministic" -> Sim.Tpca_workload.Even
            | _ -> base.Sim.Tpca_workload.stagger) }
      in
      row "%-16s %10.1f %12.2f\n" label
        (mean (tpca ~tweak Demux.Registry.Mtf))
        (mean (tpca ~tweak (sequent 19))))
    [ ("truncated-exp", None);
      ("uniform(5,15)", Some (Numerics.Distribution.uniform ~min:5.0 ~max:15.0));
      ("deterministic", Some (Numerics.Distribution.deterministic 10.0)) ];
  row
    "MTF's win over BSD (~%.0f) exists only while think times are\n\
     random; make them deterministic and it collapses to ~N.  The\n\
     hashed scheme is insensitive to the shape — robustness the paper\n\
     credits when dismissing move-to-front.\n"
    (Analysis.Bsd_model.cost validation_params)

(* One record per (target, domains, batch) throughput cell; E28 and E33
   share the naming. *)
let throughput_metric target domains batch =
  Printf.sprintf "parallel.%s.d%d.b%d.lookups_per_s" target domains batch

let emit_throughput ~(emit : emit) ~id results =
  List.iter
    (fun (r : Parallel.Throughput.result) ->
      emit ~id ~units:"lookups/s"
        (throughput_metric r.Parallel.Throughput.target
           r.Parallel.Throughput.domains r.Parallel.Throughput.batch)
        r.Parallel.Throughput.lookups_per_second)
    results

(* E28: batched vs per-packet parallel lookup throughput on the striped
   table.  Smoke keeps the 4-domain batch-1/batch-64 pair — the cells
   a regression series follows — and the full ladder contains it. *)
let e28_target = Parallel.Throughput.Striped_sequent 19

let e28_grid ~smoke =
  if smoke then ([ 4 ], [ 1; 64 ]) else ([ 1; 2; 4; 8 ], [ 1; 8; 64 ])

let run_e28 ~smoke ~(emit : emit) =
  let domains, batches = e28_grid ~smoke in
  let results =
    Parallel.Throughput.scaling_table
      ~lookups_per_domain:(if smoke then 20_000 else 100_000)
      ~seed:bench_seed ~domains ~batches [ e28_target ]
  in
  Format.printf "%a" Parallel.Throughput.pp_results results;
  emit_throughput ~emit ~id:"E28" results;
  row
    "Per-packet lookup pays one mutex acquisition per packet; grouping\n\
     a burst by stripe and taking each stripe's lock once per batch\n\
     spreads that cost over the batch, so batched throughput pulls\n\
     ahead as domains (lock traffic) grow.  Timing is the monotonic\n\
     ns clock; per-lookup latencies are batch-amortised.\n"

(* E29: flat open-addressing PCB table vs chained Sequent, wall-clock
   and minor-heap allocation per warm lookup (DESIGN.md section 10).
   Both paths are allocation-free by construction; the regression bar
   is flat <= chained on {e both} metrics at every population. *)

let e29_populations = [ 100; 1_000; 10_000 ]

type e29_row = {
  n : int;
  chained_ns : float;
  chained_words : float;
  flat_ns : float;
  flat_words : float;
}

(* Best-of-[trials] ns per lookup and minor-words per lookup for
   [run lookups].  Minimum over trials on both metrics: the floor is
   the signal, everything above it is scheduler noise (ns) or
   measurement-harness boxing (words). *)
let measure_lookups ~trials ~lookups run =
  let best_ns = ref infinity and best_words = ref infinity in
  for _ = 1 to trials do
    let words_before = Gc.minor_words () in
    let t0 = Obs.Clock.now_ns () in
    run lookups;
    let t1 = Obs.Clock.now_ns () in
    let words_after = Gc.minor_words () in
    let per = float_of_int lookups in
    let ns = float_of_int (t1 - t0) /. per in
    if ns < !best_ns then best_ns := ns;
    let words = (words_after -. words_before) /. per in
    if words < !best_words then best_words := words
  done;
  (!best_ns, !best_words)

(* Minor words per [lookup k] over 200,000 calls, after 1,000 warm-up
   calls so the measured loop sees only steady-state finds. *)
let warm_words_per_lookup lookup =
  for k = 0 to 999 do lookup k done;
  let lookups = 200_000 in
  let before = Gc.minor_words () in
  for k = 0 to lookups - 1 do lookup k done;
  (Gc.minor_words () -. before) /. float_of_int lookups

let e29_measure ~trials ~lookups n =
  let population = Sim.Topology.flows n in
  let rng = Numerics.Rng.create ~seed:bench_seed in
  let order = Array.init lookups (fun _ -> Numerics.Rng.int rng ~bound:n) in
  let chained = Demux.Sequent.create ~chains:19 () in
  Array.iter (fun f -> ignore (Demux.Sequent.insert chained f ())) population;
  let flat = Demux.Packed_table.Heap.create ~initial_capacity:n () in
  Array.iteri
    (fun id { Packet.Flow.w0; w1 } ->
      Demux.Packed_table.Heap.replace flat ~w0 ~w1 id)
    population;
  let run_chained count =
    for k = 0 to count - 1 do
      ignore (Demux.Sequent.lookup_pcb chained population.(order.(k)))
    done
  in
  let run_flat count =
    for k = 0 to count - 1 do
      let { Packet.Flow.w0; w1 } = population.(order.(k)) in
      ignore (Demux.Packed_table.Heap.find flat ~w0 ~w1)
    done
  in
  (* Warm both tables (fault in code paths and caches) before timing. *)
  run_chained (min lookups 1_000);
  run_flat (min lookups 1_000);
  let chained_ns, chained_words = measure_lookups ~trials ~lookups run_chained in
  let flat_ns, flat_words = measure_lookups ~trials ~lookups run_flat in
  { n; chained_ns; chained_words; flat_ns; flat_words }

let e29 ~smoke () =
  let trials = if smoke then 3 else 5 in
  let lookups = if smoke then 50_000 else 200_000 in
  List.map (e29_measure ~trials ~lookups) e29_populations

(* The tentpole's acceptance bar, enforced wherever E29 runs: the flat
   table must not lose to the chained baseline on time or allocation.
   Allocation gets a hair of slack for the measurement harness's own
   float boxing (fractions of a word per lookup at these counts). *)
let assert_e29 rows =
  List.iter
    (fun r ->
      if r.flat_ns > r.chained_ns then begin
        Printf.eprintf
          "E29 REGRESSION: flat %.1f ns/lookup > chained %.1f at N=%d\n"
          r.flat_ns r.chained_ns r.n;
        exit 1
      end;
      if r.flat_words > r.chained_words +. 0.01 then begin
        Printf.eprintf
          "E29 REGRESSION: flat %.4f minor words/lookup > chained %.4f at N=%d\n"
          r.flat_words r.chained_words r.n;
        exit 1
      end)
    rows

(* The records each population yields: (table family, metric suffix,
   units, value). *)
let e29_fields =
  [ ("chained.sequent-19", "ns_per_lookup", "ns", fun r -> r.chained_ns);
    ("chained.sequent-19", "minor_words_per_lookup", "words",
     fun r -> r.chained_words);
    ("flat", "ns_per_lookup", "ns", fun r -> r.flat_ns);
    ("flat", "minor_words_per_lookup", "words", fun r -> r.flat_words) ]

let e29_metric n (family, suffix, _, _) =
  Printf.sprintf "demux.%s.n%d.%s" family n suffix

let run_e29 ~smoke ~(emit : emit) =
  let rows = e29 ~smoke () in
  row "%-8s %14s %14s %16s %16s\n" "N" "chained ns" "flat ns" "chained words"
    "flat words";
  List.iter
    (fun r ->
      row "%-8d %14.1f %14.1f %16.4f %16.4f\n" r.n r.chained_ns r.flat_ns
        r.chained_words r.flat_words;
      List.iter
        (fun ((_, _, units, value) as field) ->
          emit ~id:"E29" ~units (e29_metric r.n field) (value r))
        e29_fields)
    rows;
  assert_e29 rows;
  row
    "Same multiplicative hash, same packed 96-bit key; the chained\n\
     walk reads its chain's contiguous one-int entries (a key\n\
     fingerprint above a slot) from the head down, while the flat table\n\
     probes tag-filtered inline words.  Both paths allocate nothing per\n\
     lookup (the words columns are measurement-harness noise); the\n\
     chained walk grows with N/H PCBs per chain while the flat probe\n\
     stays put, which is the Cuckoo++/DPDK argument for flat connection\n\
     tracking.\n"

(* E31: per-insert latency tail across a churn ramp, incremental vs
   doubling resize (DESIGN.md section 12).  Keys are synthesized
   directly as packed words — no flow allocation, so the timed window
   sees only the table.  The ramp crosses several growth triggers;
   incremental resize must keep the tail flat while doubling pays its
   stop-the-world copy, which shows up as a max-latency cliff orders
   of magnitude over p50.

   A third run — the same ramp on a table pre-sized so it never grows
   — is the control.  Single-shot insert timings on a busy host have
   a tail of their own (scheduler ticks, cache and TLB misses on a
   multi-megabyte table) that sits far above 8x the ~300 ns median
   and hits every policy alike, so the flat-tail bar is applied to
   the {e excess} of incremental's p999 over the control's p999: the
   latency the resize machinery itself adds at the tail. *)

type e31_row = {
  policy : string;
  p50_ns : int;
  p999_ns : int;
  max_ns : int;
  resizes : int;
}

let e31_measure ~warmup ~total ?initial_capacity ~name resize =
  let table = Demux.Packed_table.Heap.create ?initial_capacity ~resize () in
  (* Distinct per-index keys: w0 carries the index, w1 is a mix. *)
  let w1_of i = (i lxor 0x2545F491) * 0x9E3779B9 in
  let insert i = Demux.Packed_table.Heap.replace table ~w0:i ~w1:(w1_of i) i in
  let remove i = Demux.Packed_table.Heap.remove table ~w0:i ~w1:(w1_of i) in
  (* Churn: every 16th insert retires a key 8 behind it (untimed), so
     the ramp exercises backward-shift deletion and migration under a
     mixed mutation stream, not a pure append.  Gc.minor between
     timed inserts keeps collector pauses out of the latency samples:
     the tail being measured is the table's, not the heap's. *)
  for i = 0 to warmup - 1 do
    insert i;
    if i land 15 = 15 then remove (i - 8);
    if i land 4095 = 0 then Gc.minor ()
  done;
  let timed = total - warmup in
  let latencies = Array.make timed 0 in
  for k = 0 to timed - 1 do
    let i = warmup + k in
    let t0 = Obs.Clock.now_ns () in
    insert i;
    let t1 = Obs.Clock.now_ns () in
    latencies.(k) <- t1 - t0;
    if i land 15 = 15 then remove (i - 8);
    if i land 4095 = 0 then Gc.minor ()
  done;
  Array.sort (fun (a : int) b -> compare a b) latencies;
  { policy = name;
    p50_ns = latencies.(timed / 2);
    p999_ns = latencies.(timed * 999 / 1000);
    max_ns = latencies.(timed - 1);
    resizes = Demux.Packed_table.Heap.resizes table }

(* Host noise on a shared core arrives in bursts (scheduler ticks,
   vCPU steal) that can inflate a whole measurement epoch; noise only
   ever adds latency, so the best of three repetitions is the closest
   estimate of the quiet-host tail each policy actually has. *)
let e31_best ~warmup ~total ?initial_capacity ~name resize =
  let best = ref (e31_measure ~warmup ~total ?initial_capacity ~name resize) in
  for _ = 2 to 3 do
    let r = e31_measure ~warmup ~total ?initial_capacity ~name resize in
    if r.p999_ns < !best.p999_ns then best := r
  done;
  !best

(* The two growing policies, then the control: (name, policy,
   pre-sized). *)
let e31_policies =
  Demux.Packed_table.
    [ ("incremental", Incremental, false); ("doubling", Doubling, false);
      ("presized", Incremental, true) ]

let e31 ~smoke () =
  let warmup, total =
    if smoke then (10_000, 120_000) else (100_000, 1_000_000)
  in
  (* Run control first and incremental last — each run leaves the heap
     grown for the next, and the tail gates were tuned in this order —
     and return the rows in declaration order. *)
  List.rev_map
    (fun (name, resize, presized) ->
      (* [2 * total] rounds up to a power of two past the 7/8 growth
         trigger for the whole ramp, so the control run never
         resizes. *)
      let initial_capacity = if presized then Some (2 * total) else None in
      e31_best ~warmup ~total ?initial_capacity ~name resize)
    (List.rev e31_policies)

(* The tentpole's acceptance bar: the ramp really crosses growth
   triggers for both growing policies, the control never grows,
   incremental resize keeps the tail flat, and doubling still
   exhibits its copy cliff — if the cliff vanished, doubling changed
   and the comparison is no longer measuring what it claims.

   "Flat" is judged against the doubling run, not the pre-sized one:
   the pre-sized table coasts at under half load, so its tail misses
   the probe cost every growing policy pays while hovering near the
   7/8 trigger.  Doubling shares incremental's exact load trajectory
   and does zero migration work between triggers, and its copy cost
   is confined to a handful of max-latency samples far above the
   p999 rank — so at p999, doubling IS the no-resize-cost baseline,
   and incremental's excess over it is pure migration tax.  That
   excess must stay within 8x p50 — up to measurement noise, whose
   scale the pre-sized control exposes: on a host where a churn ramp
   with no resizing at all already shows a single-shot p999 of many
   multiples of p50, the excess is allowed up to twice the control's
   p999 instead.  (On a quiet machine the 8x-p50 arm dominates and
   the bar is the strict one.) *)
let assert_e31 rows =
  let find name =
    match List.find_opt (fun r -> r.policy = name) rows with
    | Some r -> r
    | None ->
      Printf.eprintf "E31 BROKEN: missing %s row\n" name;
      exit 1
  in
  let incremental = find "incremental" in
  let doubling = find "doubling" in
  let presized = find "presized" in
  if presized.resizes <> 0 then begin
    Printf.eprintf
      "E31 BROKEN: pre-sized control resized %d time(s) — it no longer \
       isolates the noise floor\n"
      presized.resizes;
    exit 1
  end;
  List.iter
    (fun r ->
      if r.resizes < 2 then begin
        Printf.eprintf
          "E31 BROKEN: %s ramp crossed only %d growth trigger(s)\n" r.policy
          r.resizes;
        exit 1
      end)
    [ incremental; doubling ];
  let excess = incremental.p999_ns - doubling.p999_ns in
  let bar = max (8 * incremental.p50_ns) (2 * presized.p999_ns) in
  if excess > bar then begin
    Printf.eprintf
      "E31 REGRESSION: incremental p999 %d ns exceeds doubling's p999 \
       %d ns by %d ns > max(8x p50 %d ns, 2x pre-sized p999 %d ns)\n"
      incremental.p999_ns doubling.p999_ns excess incremental.p50_ns
      presized.p999_ns;
    exit 1
  end;
  if doubling.max_ns < 50 * doubling.p50_ns then begin
    Printf.eprintf
      "E31 BROKEN: doubling max %d ns < 50x p50 %d ns — the \
       stop-the-world cliff is missing\n"
      doubling.max_ns doubling.p50_ns;
    exit 1
  end

let e31_fields =
  [ ("p50_ns", fun r -> r.p50_ns); ("p999_ns", fun r -> r.p999_ns);
    ("max_ns", fun r -> r.max_ns) ]

let e31_metric policy suffix = Printf.sprintf "demux.resize.%s.%s" policy suffix

let run_e31 ~smoke ~(emit : emit) =
  let rows = e31 ~smoke () in
  row "%-14s %10s %10s %12s %9s\n" "policy" "p50 ns" "p999 ns" "max ns"
    "resizes";
  List.iter
    (fun r ->
      row "%-14s %10d %10d %12d %9d\n" r.policy r.p50_ns r.p999_ns r.max_ns
        r.resizes;
      List.iter
        (fun (suffix, value) ->
          emit ~id:"E31" ~units:"ns" (e31_metric r.policy suffix)
            (float_of_int (value r)))
        e31_fields)
    rows;
  assert_e31 rows;
  row
    "Same Robin-Hood table, same churn ramp (inserts with interleaved\n\
     removes, population 100k -> ~1M); the pre-sized row never grows\n\
     and so measures the host's own single-shot timing tail.  Doubling\n\
     stops the world at every growth trigger, so its worst insert\n\
     costs a full-table copy; incremental resize migrates a bounded\n\
     handful of entries per mutation, so its p999 tracks the control's\n\
     to within a few multiples of p50 — the latency a connection-setup\n\
     packet sees no longer depends on whether it arrived at a resize\n\
     boundary.\n"

(* E33: striped locks vs lock-free epoch reads across the domain
   ladder (DESIGN.md section 13).  The same read-heavy harness drives
   both tables; the acceptance bar is that the epoch table's read
   throughput still leads at 8 domains, where striping's
   one-mutex-per-lookup cost is at its worst.  The two read-path
   guarantees behind the claim are measured, not asserted in prose: a
   warm read phase performs zero mutex acquisitions and allocates zero
   minor words per lookup. *)

let e33_domains = [ 1; 2; 4; 8 ]
let e33_targets = Parallel.Throughput.[ Striped_sequent 19; Epoch_table ]

let e33 ~smoke () =
  let lookups_per_domain = if smoke then 20_000 else 100_000 in
  Parallel.Throughput.scaling_table ~lookups_per_domain ~seed:bench_seed
    ~domains:e33_domains e33_targets

let e33_read_path ~smoke () =
  let population = if smoke then 10_000 else 50_000 in
  let lookups = if smoke then 100_000 else 400_000 in
  let flows = Sim.Topology.flows population in
  let t = Epoch.Packed.Heap.create () in
  Epoch.Packed.Heap.load t
    (Array.mapi (fun i { Packet.Flow.w0; w1 } -> (w0, w1, i)) flows);
  let rng = Numerics.Rng.create ~seed:bench_seed in
  let order =
    Array.init lookups (fun _ -> Numerics.Rng.int rng ~bound:population)
  in
  let get { Packet.Flow.w0; w1 } =
    Epoch.Packed.Heap.get t ~w0 ~w1 ~default:(-1)
  in
  (* Warm: the one-time reader registration happens here, before the
     counters are read. *)
  for k = 0 to 999 do
    ignore (get flows.(order.(k)))
  done;
  let locks_before = Epoch.Packed.Heap.lock_acquisitions t in
  let words_before = Gc.minor_words () in
  for k = 0 to lookups - 1 do
    ignore (get flows.(order.(k)))
  done;
  let words =
    (Gc.minor_words () -. words_before) /. float_of_int lookups
  in
  (Epoch.Packed.Heap.lock_acquisitions t - locks_before, words)

let e33_rate results ~target ~domains =
  let found =
    List.find_opt
      (fun (r : Parallel.Throughput.result) ->
        r.Parallel.Throughput.target = target
        && r.Parallel.Throughput.domains = domains
        && r.Parallel.Throughput.batch = 1)
      results
  in
  match found with
  | Some r -> r.Parallel.Throughput.lookups_per_second
  | None ->
    Printf.eprintf "E33: missing %s at %d domains\n" target domains;
    exit 1

let assert_e33 results (mutex_delta, words_per_lookup) =
  let striped = e33_rate results ~target:"striped:sequent-19" ~domains:8
  and epoch = e33_rate results ~target:"epoch:table" ~domains:8 in
  if not (epoch > striped) then begin
    Printf.eprintf
      "E33 REGRESSION: epoch %.0f lookups/s <= striped %.0f at 8 domains\n"
      epoch striped;
    exit 1
  end;
  if mutex_delta <> 0 then begin
    Printf.eprintf
      "E33 REGRESSION: warm epoch read phase took %d mutex acquisitions\n"
      mutex_delta;
    exit 1
  end;
  (* The same harness-boxing slack as E29's allocation bar. *)
  if words_per_lookup > 0.01 then begin
    Printf.eprintf
      "E33 REGRESSION: warm epoch lookup allocates %.4f minor words\n"
      words_per_lookup;
    exit 1
  end

let run_e33 ~smoke ~(emit : emit) =
  let results = e33 ~smoke () in
  Format.printf "%a" Parallel.Throughput.pp_results results;
  emit_throughput ~emit ~id:"E33" results;
  let mutex_delta, words = e33_read_path ~smoke () in
  row "warm read phase: %d mutex acquisitions, %.4f minor words/lookup\n"
    mutex_delta words;
  emit ~id:"E33" ~units:"locks" "epoch.read_path.mutex_acquisitions"
    (float_of_int mutex_delta);
  emit ~id:"E33" ~units:"words" "epoch.read_path.minor_words_per_lookup" words;
  assert_e33 results (mutex_delta, words);
  row
    "Striping spreads the lock, it does not remove it: every lookup\n\
     still pays one acquisition, so the striped curve flattens as\n\
     domains grow.  An epoch reader pins (one atomic store), probes an\n\
     immutable published region and unpins — no mutex, no allocation —\n\
     so read throughput keeps scaling; writers pay instead with\n\
     copy-publish-retire work and grace-period reclamation\n\
     (DESIGN.md section 13).\n"

(* E34: churn at 10M resident flows, heap vs off-heap slot storage
   (DESIGN.md section 14).  E31 measured the resize machinery with GC
   pauses deliberately flushed between samples; E34 measures the
   opposite regime — the one a real receive path lives in.

   The ramp to 10M flows is deliberately UNTIMED: growth steps
   allocate multi-hundred-megabyte regions, and on the Bigarray side
   each such allocation also charges the GC's custom-memory
   accounting, scheduling extra major work.  Both are one-time
   construction costs; timing them would measure the ramp's allocation
   spikes, not the storage backends.  What E34 times is the steady
   state after the ramp: a churn plateau where every op inserts a
   fresh flow, removes the oldest resident one, and allocates one
   ~1 KB buffer (a stand-in for the packet being demultiplexed).
   With the shrunken minor heap below, those buffers force a minor
   collection every ~130 ops — an order of magnitude above the p999
   rank — so the op-latency tail measures what collections cost the
   packet path.

   A subtlety the pacing design forces on the gates: how much of the
   table's marking cost reaches the per-op tail depends on the
   runtime's slice scheduling, not on anything this code promises.
   At the full 10M configuration the collections riding on timed ops
   visibly carry the table (pauses tens of times worse on the heap
   backend), but at other scales — and under a tightened
   space_overhead, which makes the off-heap run's tiny major heap
   cycle continuously — the pacing can amortize or even invert the
   per-op comparison.  So the tail gate conservatively requires only
   parity (1.5x).  Where residency has signal no pacing can amortize
   is the cost of COMPLETING a cycle: a forced [Gc.full_major] — what
   compaction, a checkpoint, or any explicit collection pays — must
   mark the whole table on the heap backend and none of it off-heap.
   E34 measures that stall directly (best of three) and gates it
   hard.

   Alongside latency: bytes/flow (slot storage over resident flows,
   drained, against the packed lower bound — the smallest power-of-two
   region that admits the population at 7/8 load), the minor-pause
   distribution (a forced [Gc.minor] sampled every 1024 ops), and the
   warm-hit zero-allocation guarantee re-checked on the off-heap
   index. *)

type e34_row = {
  backend : string;
  e34_p50_ns : int;
  e34_p999_ns : int;
  e34_max_ns : int;
  bytes_per_flow : float;
  bytes_ratio : float;  (* resident bytes / packed lower bound *)
  pause_p50_ns : int;
  pause_p99_ns : int;
  full_major_ns : int;  (* cycle-completion stall: forced full major *)
  warm_words_per_lookup : float;
  e34_resizes : int;
}

(* Smallest power-of-two slot count (>= the table's 8-slot minimum)
   that holds [n] flows under the 7/8 growth trigger: the denominator
   of the bytes/flow ratio.  Power-of-two capacity is part of the
   design (mask probing), so the honest lower bound is the best
   power-of-two table, not a fictional perfectly-sized one. *)
let e34_lower_bound_bytes n =
  let rec fit cap = if n * 8 <= cap * 7 then cap else fit (cap * 2) in
  let cap = fit 8 in
  cap * Demux.Storage.Heap.bytes_per_slot

let e34_measure (module M : Demux.Packed_table.S) ~total ~plateau =
  let table = M.create () in
  let w1_of i = (i lxor 0x2545F491) * 0x9E3779B9 in
  let insert i = M.replace table ~w0:i ~w1:(w1_of i) i in
  let remove i = M.remove table ~w0:i ~w1:(w1_of i) in
  (* Untimed ramp: build the resident population (15/16 of [total])
     through the same 1-in-16 churn shape E31 uses.  Timing starts
     only at the plateau, so region-allocation spikes never pollute
     the latency histogram. *)
  for i = 0 to total - 1 do
    insert i;
    if i land 15 = 15 then remove (i - 8)
  done;
  (* Finish the in-flight drain before timing: mutations on a resident
     key still run the migration step, so this terminates in
     O(pending) steps.  Key 0 is never removed (the ramp removes only
     keys = 7 mod 16, the plateau only keys >= total/16). *)
  while M.pending_migration table > 0 do
    M.replace table ~w0:0 ~w1:(w1_of 0) 0
  done;
  (* Settle the ramp's scheduled major work (including the Bigarray
     custom-memory charge) so the plateau starts from a quiesced
     collector on both backends. *)
  Gc.full_major ();
  let resident0 = M.length table in
  (* A 64-slot rolling window keeps ~64 KB of noise data live across
     minor collections, so promotion keeps scheduling major cycles. *)
  let noise = Array.make 64 Bytes.empty in
  let next = ref total in
  (* One plateau op = insert a fresh flow, evict the oldest resident
     one (the population stays ~constant, so no resizes fire), and
     allocate one ~1 KB packet stand-in — all inside the timed
     window.  About 1 op in 16 draws an eviction key the ramp already
     removed; the miss costs a probe, identically on both backends. *)
  let measure_pass () =
    let latency = Obs.Histogram.create () in
    let pauses = Obs.Histogram.create () in
    for k = 0 to plateau - 1 do
      let i = !next in
      incr next;
      let t0 = Obs.Clock.now_ns () in
      Array.unsafe_set noise (k land 63) (Bytes.create 1000);
      insert i;
      remove (i - resident0);
      let t1 = Obs.Clock.now_ns () in
      Obs.Histogram.record latency (t1 - t0);
      if k land 1023 = 1023 then begin
        let p0 = Obs.Clock.now_ns () in
        Gc.minor ();
        let p1 = Obs.Clock.now_ns () in
        Obs.Histogram.record pauses (p1 - p0)
      end
    done;
    (latency, pauses)
  in
  (* Best-of-two passes by p999, same rationale as E31's
     best-of-three: host noise only ever adds latency. *)
  let l1, ps1 = measure_pass () in
  let l2, ps2 = measure_pass () in
  let latency, pauses =
    if Obs.Histogram.p999 l2 < Obs.Histogram.p999 l1 then (l2, ps2)
    else (l1, ps1)
  in
  let resident = M.length table in
  let bytes = M.bytes table in
  let warm_words =
    (* Probe a window of recently inserted plateau keys — all resident
       by construction (evictions trail the insert frontier by
       [resident0] >> 4096).  Warm once so the measured loop sees only
       steady-state finds. *)
    let base = !next - 4096 in
    warm_words_per_lookup (fun k ->
        let i = base + (k land 4095) in
        ignore (M.find table ~w0:i ~w1:(w1_of i)))
  in
  (* The cycle-completion stall: what any caller of [Gc.full_major]
     (compaction, a checkpoint, heap diagnostics) pays while the table
     is resident.  Best of three — host noise only adds latency. *)
  let full_major_ns =
    let best = ref max_int in
    for _ = 1 to 3 do
      let t0 = Obs.Clock.now_ns () in
      Gc.full_major ();
      let t1 = Obs.Clock.now_ns () in
      if t1 - t0 < !best then best := t1 - t0
    done;
    !best
  in
  { backend = M.backend;
    e34_p50_ns = Obs.Histogram.p50 latency;
    e34_p999_ns = Obs.Histogram.p999 latency;
    e34_max_ns = Obs.Histogram.max_value latency;
    bytes_per_flow = float_of_int bytes /. float_of_int resident;
    bytes_ratio =
      float_of_int bytes /. float_of_int (e34_lower_bound_bytes resident);
    pause_p50_ns = Obs.Histogram.p50 pauses;
    pause_p99_ns = Obs.Histogram.p99 pauses;
    full_major_ns;
    warm_words_per_lookup = warm_words;
    e34_resizes = M.resizes table }

(* The minor heap is shrunk for the duration so the alloc-noise
   stream yields a minor collection every ~130 ops — an order of
   magnitude above the p999 rank — then restored.  Pacing is left at
   the defaults: tightening space_overhead makes the OFF-HEAP run's
   tiny major heap cycle continuously (frequent cycle-end pauses)
   while barely changing the heap run's amortized slices, which
   inverts the comparison for reasons that have nothing to do with
   storage. *)
let e34_run (module M : Demux.Packed_table.S) ~total ~plateau =
  let control = Gc.get () in
  Gc.set { control with Gc.minor_heap_size = 16384 };
  Fun.protect
    ~finally:(fun () ->
      Gc.set control;
      Gc.compact ())
    (fun () -> e34_measure (module M : Demux.Packed_table.S) ~total ~plateau)

let e34_backends : (module Demux.Packed_table.S) list =
  [ (module Demux.Packed_table.Heap); (module Demux.Packed_table.Offheap) ]

let e34 ~smoke () =
  (* The full ramp's resident population crosses 10M flows (total
     minus the 1-in-16 churn removes); smoke keeps the same shape at
     CI scale, sized so the plateau's net insert drift stays under the
     growth trigger (no resize inside timed windows). *)
  let total = if smoke then 110_000 else 10_700_000 in
  let plateau = if smoke then 40_000 else 2_000_000 in
  List.map (fun m -> e34_run m ~total ~plateau) e34_backends

let assert_e34 ~smoke rows =
  let find backend =
    match List.find_opt (fun r -> r.backend = backend) rows with
    | Some r -> r
    | None ->
      Printf.eprintf "E34 BROKEN: missing %s row\n" backend;
      exit 1
  in
  let heap = find "heap" in
  let offheap = find "offheap" in
  List.iter
    (fun r ->
      if r.e34_resizes < 2 then begin
        Printf.eprintf
          "E34 BROKEN: %s ramp crossed only %d growth trigger(s)\n" r.backend
          r.e34_resizes;
        exit 1
      end;
      if r.bytes_ratio > 1.25 then begin
        Printf.eprintf
          "E34 REGRESSION: %s resident storage is %.3fx the packed \
           lower bound (bar 1.25x) — a drain leak or layout bloat\n"
          r.backend r.bytes_ratio;
        exit 1
      end)
    [ heap; offheap ];
  if offheap.warm_words_per_lookup > 0.01 then begin
    Printf.eprintf
      "E34 REGRESSION: warm off-heap hit allocates %.4f minor words\n"
      offheap.warm_words_per_lookup;
    exit 1
  end;
  (* The headline gates.  At smoke scale the table is a few MB, every
     GC effect is a coin flip between adjacent histogram octaves, and
     the only stable signal is the non-GC insert path, so smoke gates
     p50: off-heap accessors (Bigarray loads instead of array loads)
     must not be categorically slower than heap ones.  At full scale
     two gates apply.  The op-latency p999 is a PARITY bar with a
     1.5x noise allowance: the measured gap is far larger in
     off-heap's favor, but how much marking reaches the op tail is
     the runtime's slice-scheduling business (see the E34 header
     comment), so the gate only pins what the code promises — no
     regression.  The residency signal itself is gated where no
     pacing can amortize it: completing a
     full major cycle must mark ~0.5 GB of slot arrays on the heap
     backend and none of it off-heap, so the off-heap stall is
     required to come in at a quarter of the heap one (measured
     margin is ~100x; 4x keeps the gate honest under host noise). *)
  if smoke then begin
    if offheap.e34_p50_ns > 2 * heap.e34_p50_ns then begin
      Printf.eprintf
        "E34 REGRESSION: offheap p50 %d ns > 2x heap p50 %d ns — the \
         off-heap accessor path got categorically slower\n"
        offheap.e34_p50_ns heap.e34_p50_ns;
      exit 1
    end
  end
  else begin
    if 2 * offheap.e34_p999_ns > 3 * heap.e34_p999_ns then begin
      Printf.eprintf
        "E34 REGRESSION: offheap p999 %d ns > 1.5x heap p999 %d ns\n"
        offheap.e34_p999_ns heap.e34_p999_ns;
      exit 1
    end;
    if 4 * offheap.full_major_ns > heap.full_major_ns then begin
      Printf.eprintf
        "E34 REGRESSION: offheap full-major stall %d ns is not under \
         a quarter of the heap backend's %d ns — the collector is \
         still marking the slot storage\n"
        offheap.full_major_ns heap.full_major_ns;
      exit 1
    end
  end

(* The records each backend yields: (metric suffix, units, value). *)
let e34_fields =
  let ns get = ("ns", fun r -> float_of_int (get r)) in
  [ ("p50_ns", ns (fun r -> r.e34_p50_ns));
    ("p999_ns", ns (fun r -> r.e34_p999_ns));
    ("max_ns", ns (fun r -> r.e34_max_ns));
    ("bytes_per_flow", ("bytes", fun r -> r.bytes_per_flow));
    ("bytes_per_flow_ratio", ("", fun r -> r.bytes_ratio));
    ("minor_pause_p50_ns", ns (fun r -> r.pause_p50_ns));
    ("minor_pause_p99_ns", ns (fun r -> r.pause_p99_ns));
    ("full_major_ns", ns (fun r -> r.full_major_ns));
    ("warm_minor_words_per_lookup", ("words", fun r -> r.warm_words_per_lookup)) ]

let e34_metric backend suffix =
  Printf.sprintf "demux.storage.%s.%s" backend suffix

let run_e34 ~smoke ~(emit : emit) =
  let rows = e34 ~smoke () in
  row "%-10s %9s %9s %11s %8s %7s %11s %11s %10s %7s\n" "backend" "p50 ns"
    "p999 ns" "max ns" "B/flow" "ratio" "pause p50" "pause p99" "cycle ms"
    "words";
  List.iter
    (fun r ->
      row "%-10s %9d %9d %11d %8.1f %7.3f %11d %11d %10.1f %7.4f\n" r.backend
        r.e34_p50_ns r.e34_p999_ns r.e34_max_ns r.bytes_per_flow r.bytes_ratio
        r.pause_p50_ns r.pause_p99_ns
        (float_of_int r.full_major_ns /. 1e6)
        r.warm_words_per_lookup;
      List.iter
        (fun (suffix, (units, value)) ->
          emit ~id:"E34" ~units (e34_metric r.backend suffix) (value r))
        e34_fields)
    rows;
  assert_e34 ~smoke rows;
  row
    "Same Robin-Hood machinery, same untimed churn ramp to >10M\n\
     resident flows, then a timed steady-state plateau\n\
     (insert + evict + 1 KB packet stand-in per op); the only\n\
     difference is where the slot arrays live.  On the heap they are\n\
     ~0.5 GB of live int arrays the collector must traverse every\n\
     major cycle, and the collections that land inside timed ops\n\
     carry that work; in Bigarray storage the GC sees five small\n\
     custom blocks per region, so the same collections cost little.\n\
     The cycle-completion stall (the cycle-ms column: a forced full\n\
     major, what compaction or any checkpoint pays) is O(table) on\n\
     the heap and O(noise) off-heap.  Bytes/flow is identical by\n\
     construction (33 bytes/slot, power-of-two capacity) — off-heap\n\
     costs nothing in space and takes the table out of the\n\
     collector's workload (the \"millions of users\" scaling claim,\n\
     ROADMAP item 2).\n"

(* ------------------------------------------------------------------ *)
(* E35: flat Robin-Hood vs bucketized cuckoo under hostile lookups.

   The flat table's miss cost is load-dependent: a negative lookup
   walks the probe run until it meets an empty or richer slot, so an
   attacker who fills the table (SYN flood) or aims every query at
   one home slot (collision flood) taxes every miss.  The cuckoo
   table's per-bucket negative-lookup filter is the counter-claim:
   when no resident of the queried key's class was ever displaced out
   of its primary bucket, a miss resolves after scanning that single
   bucket's tag vector — one cache line — and the worst case is
   bounded by construction at two buckets plus the stash, independent
   of load and of the attacker's key choices.

   Four lookup profiles at N in {10k, 100k, 1M} residents:

   - uniform         — hits, uniformly random residents;
   - zipf            — hits, Zipf(1) popularity (hot keys dominate);
   - collision-flood — misses crafted via the inverted multiplicative
                       hash so every query homes to slot/bucket 0 of
                       either table (the strongest keyed attack
                       against the shared primary hash — the cuckoo
                       side still answers from one filtered bucket,
                       because the second hash is independent);
   - syn-flood       — misses, uniformly random absent keys (the
                       paper-scale table-bloat attack, miss-heavy).

   Each cell reports best-of-trials wall clock and an untimed probe
   census over the query set.  Probe units are each table's natural
   cost unit — slots inspected for flat (including the terminating
   slot), buckets scanned plus stash entries examined for cuckoo —
   i.e. cache lines touched by the key compare loop.  Gates: at 1M
   under syn-flood the cuckoo misses must beat flat on both ns and
   probes; every cuckoo cell's max probes must respect the 2 + stash
   structural bound; and a warm cuckoo hit must not allocate, on
   either storage backend. *)

type e35_row = {
  e35_algo : string;
  e35_profile : string;
  e35_n : int;
  e35_ns : float;
  e35_probes : float;  (* mean probes per lookup over the query set *)
  e35_max_probes : int;
}

let e35_populations = [ 10_000; 100_000; 1_000_000 ]
let e35_profiles = [ "uniform"; "zipf"; "collision-flood"; "syn-flood" ]

(* Query sets cycle a power-of-two pool so the timed loop indexes with
   a mask (no bounds math on the hot path). *)
let e35_qlen = 65536

let e35_w1_of i = (i lxor 0x2545F491) * 0x9E3779B9

(* Modular inverse of the golden-ratio multiplier mod 2^32, by Newton
   iteration (x <- x * (2 - a*x) doubles the correct low bits each
   round; odd a is its own inverse mod 8, so six rounds overshoot
   32 bits).  This is the attacker's tool: with the inverse in hand,
   any desired hash output can be turned into a fold32 preimage. *)
let e35_golden_inv =
  let a = 0x9E3779B1 in
  let rec refine x rounds =
    if rounds = 0 then x
    else refine ((x * (2 - (a * x))) land 0xFFFFFFFF) (rounds - 1)
  in
  let inv = refine a 6 in
  assert ((a * inv) land 0xFFFFFFFF = 1);
  inv

(* The j-th crafted absent key: its multiplicative hash is j lsl 21,
   so the low 21 bits are zero and the key homes to slot/bucket 0
   under any power-of-two mask up to 2^21 — which covers the flat
   table's 2^21 slots and the cuckoo table's 2^18 buckets at N = 1M,
   and every smaller population by mask nesting.  Work backwards:
   pick the 32-bit product P = j lsl 23 (j < 512 keeps P in range),
   recover the fold32 preimage f = P * golden^-1, then split f across
   (w0, w1) — w0 carries a >= 2^35 marker so the key can never equal
   a resident (residents use w0 = i < 2^20), and w1's low 16 bits are
   zeroed so the fold's OR term comes from w0 alone. *)
let e35_crafted_key j =
  let j = j land 511 in
  let product = j lsl 23 in
  let fold = (e35_golden_inv * product) land 0xFFFFFFFF in
  let w0 = ((0x80000 + j) lsl 16) lor 0x1234 in
  let high = (w0 lsr 16) lxor ((w0 land 0xFFFF) lsl 16) in
  let w1 = (fold lxor high) lsl 16 in
  (w0, w1)

(* Zipf(1) sampling by inverse CDF over the harmonic weights — the
   same popularity shape the locality workload uses, built once per
   population (the prefix-sum array is transient). *)
let e35_zipf_indexes ~n ~count rng =
  let cdf = Array.make n 0.0 in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. (1.0 /. float_of_int (i + 1));
    cdf.(i) <- !total
  done;
  Array.init count (fun _ ->
      let u = Numerics.Rng.float rng *. !total in
      let rec search lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if cdf.(mid) < u then search (mid + 1) hi else search lo mid
      in
      search 0 (n - 1))

let e35_queries ~profile ~n ~seed =
  let qw0 = Array.make e35_qlen 0 and qw1 = Array.make e35_qlen 0 in
  let rng = Numerics.Rng.create ~seed in
  (match profile with
  | "uniform" ->
    for k = 0 to e35_qlen - 1 do
      let i = Numerics.Rng.int rng ~bound:n in
      qw0.(k) <- i;
      qw1.(k) <- e35_w1_of i
    done
  | "zipf" ->
    let indexes = e35_zipf_indexes ~n ~count:e35_qlen rng in
    for k = 0 to e35_qlen - 1 do
      qw0.(k) <- indexes.(k);
      qw1.(k) <- e35_w1_of indexes.(k)
    done
  | "collision-flood" ->
    for k = 0 to e35_qlen - 1 do
      let w0, w1 = e35_crafted_key k in
      qw0.(k) <- w0;
      qw1.(k) <- w1
    done
  | "syn-flood" ->
    (* Random absent keys: the w0 marker bit keeps them disjoint from
       residents without constraining either hash. *)
    for k = 0 to e35_qlen - 1 do
      qw0.(k) <- (1 lsl 40) lor Numerics.Rng.int rng ~bound:(1 lsl 30);
      qw1.(k) <- Numerics.Rng.int rng ~bound:max_int
    done
  | _ -> invalid_arg ("e35_queries: unknown profile " ^ profile));
  (qw0, qw1)

(* One (table, profile) cell: an untimed probe census over the
   distinct query pool, a warm pass, then best-of-trials wall clock
   over [lookups] mask-cycled membership tests.  Both tables pay the
   same closure call, so the comparison is probe work only. *)
let e35_measure_cell ~mem ~probe ~qw0 ~qw1 ~lookups ~trials =
  let sum = ref 0 and max_probes = ref 0 in
  for k = 0 to e35_qlen - 1 do
    let p = probe ~w0:qw0.(k) ~w1:qw1.(k) in
    sum := !sum + p;
    if p > !max_probes then max_probes := p
  done;
  for k = 0 to e35_qlen - 1 do
    ignore (mem ~w0:qw0.(k) ~w1:qw1.(k))
  done;
  let best = ref infinity in
  for _ = 1 to trials do
    let t0 = Obs.Clock.now_ns () in
    for k = 0 to lookups - 1 do
      let i = k land (e35_qlen - 1) in
      ignore
        (mem ~w0:(Array.unsafe_get qw0 i) ~w1:(Array.unsafe_get qw1 i))
    done;
    let t1 = Obs.Clock.now_ns () in
    let ns = float_of_int (t1 - t0) /. float_of_int lookups in
    if ns < !best then best := ns
  done;
  (!best, float_of_int !sum /. float_of_int e35_qlen, !max_probes)

let e35 ~smoke () =
  let lookups = if smoke then 100_000 else 2_000_000 in
  let trials = if smoke then 2 else 3 in
  (* Populations stay full-size even under smoke: the miss-cost claim
     is about load, and a small table would test nothing.  Smoke only
     shortens the timed windows. *)
  List.concat_map
    (fun n ->
      let module F = Demux.Packed_table.Heap in
      let module C = Demux.Cuckoo_table.Heap in
      let flat = F.create () in
      for i = 0 to n - 1 do
        F.replace flat ~w0:i ~w1:(e35_w1_of i) i
      done;
      (* Finish the incremental migration so flat lookups probe one
         region — the steady state the resize policy converges to. *)
      while F.pending_migration flat > 0 do
        F.replace flat ~w0:0 ~w1:(e35_w1_of 0) 0
      done;
      let cuckoo = C.create () in
      for i = 0 to n - 1 do
        C.replace cuckoo ~w0:i ~w1:(e35_w1_of i) i
      done;
      List.concat_map
        (fun profile ->
          (* The syn-flood column measures the table mid-attack: the
             flood's embryonic connections have bloated both tables to
             just under their growth triggers (7/8 full for flat,
             15/16 for cuckoo) — the state the attack sustains, and
             the one where flat's miss runs are longest.  The flood
             keys live in a marker range disjoint from residents and
             from every query.  Profiles run in declaration order, so
             the hit columns are measured before the bloat.  No
             trigger is crossed (targets stop short), so capacity —
             and the crafted-collision mask argument — is unchanged. *)
          if profile = "syn-flood" then begin
            let flood length replace target =
              let j = ref 0 in
              while length () < target do
                replace ~w0:((1 lsl 41) lor !j) ~w1:(e35_w1_of (!j + 7)) !j;
                incr j
              done
            in
            flood (fun () -> F.length flat) (F.replace flat)
              ((F.capacity flat * 7 / 8) - 8);
            flood (fun () -> C.length cuckoo) (C.replace cuckoo)
              ((C.capacity cuckoo * 15 / 16)
              - Demux.Cuckoo_table.stash_capacity - 8)
          end;
          let qw0, qw1 = e35_queries ~profile ~n ~seed:(bench_seed + n) in
          let cell algo mem probe =
            let ns, probes, max_probes =
              e35_measure_cell ~mem ~probe ~qw0 ~qw1 ~lookups ~trials
            in
            { e35_algo = algo; e35_profile = profile; e35_n = n;
              e35_ns = ns; e35_probes = probes;
              e35_max_probes = max_probes }
          in
          [ cell "flat"
              (fun ~w0 ~w1 -> F.mem flat ~w0 ~w1)
              (fun ~w0 ~w1 -> F.probe_count flat ~w0 ~w1);
            cell "cuckoo"
              (fun ~w0 ~w1 -> C.mem cuckoo ~w0 ~w1)
              (fun ~w0 ~w1 -> C.probe_count cuckoo ~w0 ~w1) ])
        e35_profiles)
    e35_populations

(* Warm-hit allocation for the cuckoo read path, per storage backend:
   the same zero-allocation bar every other lookup structure in the
   tree is held to (DESIGN.md section 10). *)
let e35_warm_words (module M : Demux.Cuckoo_table.S) =
  let table = M.create () in
  for i = 0 to 4095 do
    M.replace table ~w0:i ~w1:(e35_w1_of i) i
  done;
  warm_words_per_lookup (fun k ->
      let i = k land 4095 in
      ignore (M.find table ~w0:i ~w1:(e35_w1_of i)))

let assert_e35 rows (heap_words, offheap_words) =
  let cell algo profile n =
    match
      List.find_opt
        (fun r ->
          r.e35_algo = algo && r.e35_profile = profile && r.e35_n = n)
        rows
    with
    | Some r -> r
    | None ->
      Printf.eprintf "E35 BROKEN: missing %s/%s/n%d cell\n" algo profile n;
      exit 1
  in
  (* The structural bound first: two buckets plus the stash, in every
     cell — if any adversarial profile pushed a cuckoo lookup past
     it, the filter/stash machinery is broken, not slow. *)
  let bound = 2 + Demux.Cuckoo_table.stash_capacity in
  List.iter
    (fun r ->
      if r.e35_algo = "cuckoo" && r.e35_max_probes > bound then begin
        Printf.eprintf
          "E35 BROKEN: cuckoo %s/n%d max probes %d exceeds the \
           structural bound %d\n"
          r.e35_profile r.e35_n r.e35_max_probes bound;
        exit 1
      end)
    rows;
  (* The headline miss-heavy gate: at 1M residents under syn-flood,
     the filtered cuckoo miss must beat the flat Robin-Hood miss on
     both probe count and wall clock, strictly. *)
  let flat = cell "flat" "syn-flood" 1_000_000 in
  let cuckoo = cell "cuckoo" "syn-flood" 1_000_000 in
  if cuckoo.e35_probes >= flat.e35_probes then begin
    Printf.eprintf
      "E35 REGRESSION: cuckoo syn-flood misses probe %.2f units vs \
       flat %.2f at 1M — the negative-lookup filter is not \
       short-circuiting\n"
      cuckoo.e35_probes flat.e35_probes;
    exit 1
  end;
  if cuckoo.e35_ns >= flat.e35_ns then begin
    Printf.eprintf
      "E35 REGRESSION: cuckoo syn-flood miss %.1f ns vs flat %.1f ns \
       at 1M — the probe advantage is not reaching wall clock\n"
      cuckoo.e35_ns flat.e35_ns;
    exit 1
  end;
  List.iter
    (fun (backend, words) ->
      if words > 0.01 then begin
        Printf.eprintf
          "E35 REGRESSION: warm cuckoo hit (%s) allocates %.4f minor \
           words per lookup\n"
          backend words;
        exit 1
      end)
    [ ("heap", heap_words); ("offheap", offheap_words) ]

(* The records each cell yields: (metric suffix, units, value). *)
let e35_fields =
  [ ("ns_per_lookup", "ns", fun r -> r.e35_ns);
    ("probes_per_lookup", "probes", fun r -> r.e35_probes);
    ("max_probes", "probes", fun r -> float_of_int r.e35_max_probes) ]

let e35_metric algo profile n suffix =
  Printf.sprintf "demux.e35.%s.%s.n%d.%s" algo profile n suffix

let e35_warm_metric backend =
  Printf.sprintf "demux.e35.cuckoo.%s.warm_minor_words_per_lookup" backend

let e35_warm_backends : (string * (module Demux.Cuckoo_table.S)) list =
  [ ("heap", (module Demux.Cuckoo_table.Heap));
    ("offheap", (module Demux.Cuckoo_table.Offheap)) ]

let run_e35 ~smoke ~(emit : emit) =
  let rows = e35 ~smoke () in
  row "%-8s %-16s %9s %10s %10s %6s\n" "algo" "profile" "n" "ns/lookup"
    "probes" "max";
  List.iter
    (fun r ->
      row "%-8s %-16s %9d %10.1f %10.2f %6d\n" r.e35_algo r.e35_profile
        r.e35_n r.e35_ns r.e35_probes r.e35_max_probes;
      List.iter
        (fun (suffix, units, value) ->
          emit ~id:"E35" ~units
            (e35_metric r.e35_algo r.e35_profile r.e35_n suffix)
            (value r))
        e35_fields)
    rows;
  let warm =
    List.map (fun (backend, m) -> (backend, e35_warm_words m)) e35_warm_backends
  in
  List.iter
    (fun (backend, words) ->
      row "warm cuckoo hit (%s): %.4f minor words/lookup\n" backend words;
      emit ~id:"E35" ~units:"words" (e35_warm_metric backend) words)
    warm;
  assert_e35 rows (List.assoc "heap" warm, List.assoc "offheap" warm);
  row
    "Hits are a wash — one filtered bucket vs a short Robin-Hood run\n\
     — but misses diverge: the flat walk lengthens with load and with\n\
     crafted home-slot collisions, while the cuckoo filter answers\n\
     most misses from one bucket's tag vector and is capped at two\n\
     buckets plus the stash by construction, whatever the attacker\n\
     knows about the primary hash.\n"

(* E36: the shared-nothing per-core stacks (DESIGN.md section 16).
   Every prior parallel experiment shared the flow table and scaled
   the lookup; here each domain owns a complete TCP stack — connection
   table, timer wheel, demux table — and a dispatcher steers raw
   datagrams by flow, so the full path (parse -> demux -> state
   machine) runs without a single shared mutable word.  Three passes:
   the domain ladder for delivered packets/sec, an instrumented run
   for the per-stage latency breakdown (steer and enqueue on the
   dispatcher, parse/demux/state on the owning core), and a migration
   run — every accepted connection handed off the listener core —
   gated on exact conservation.  Throughput rows are recorded at every
   rung regardless of the host; the strict 8-domain > 1-domain bar is
   only enforced where 8 hardware threads exist, because on fewer
   cores the ladder measures time-slicing, not scaling. *)

let e36_domains = [ 1; 2; 4; 8 ]

let e36_trace ~smoke () =
  let clients, requests = if smoke then (80, 4) else (800, 12) in
  Sim.Segment_workload.generate
    (Sim.Segment_workload.config ~clients ~requests_per_client:requests
       ~interleave:Sim.Segment_workload.Round_robin ~seed:bench_seed ())

let e36_server_addr = Sim.Topology.server.Packet.Flow.addr

let e36_gate ~label r =
  match Parallel.Smp.violations r with
  | [] -> ()
  | violations ->
    Printf.eprintf "E36 BROKEN: %s violates conservation:\n" label;
    List.iter (fun v -> Printf.eprintf "  %s\n" v) violations;
    exit 1

(* One pass over the trace, gated on conservation. *)
let e36_run trace ~label config =
  let r = Parallel.Smp.run config trace.Sim.Segment_workload.datagrams in
  e36_gate ~label r;
  r

(* The scaling ladder: chain-affine steering, no migration, stage
   clocks off so the rate is the pipeline's own. *)
let e36_scaling trace =
  List.map
    (fun domains ->
      ( domains,
        e36_run trace
          ~label:(Printf.sprintf "ladder at %d domains" domains)
          (Parallel.Smp.config ~domains ~local_addr:e36_server_addr ()) ))
    e36_domains

(* The instrumented pass: stage histograms on, 4 domains. *)
let e36_stages trace =
  e36_run trace ~label:"instrumented run"
    (Parallel.Smp.config ~stages:true ~domains:4 ~local_addr:e36_server_addr ())

(* The migration pass: listener core accepts, every connection
   migrates, stragglers forward; conservation is the result. *)
let e36_migrate trace =
  e36_run trace ~label:"migration run"
    (Parallel.Smp.config
       ~demux:(Demux.Registry.Conn_id { capacity = 65536 })
       ~migrate:true ~domains:4 ~local_addr:e36_server_addr ())

let e36_rate rows ~domains =
  match List.assoc_opt domains rows with
  | Some (r : Parallel.Smp.result) -> r.Parallel.Smp.packets_per_s
  | None ->
    Printf.eprintf "E36: missing ladder rung at %d domains\n" domains;
    exit 1

let e36_stage_names = [ "steer"; "enqueue"; "parse"; "demux"; "state" ]

let assert_e36 rows (instrumented : Parallel.Smp.result)
    (migrated : Parallel.Smp.result) =
  (* Stage coverage: the breakdown must exist and have seen every
     datagram, or the latency story is dark. *)
  List.iter
    (fun name ->
      match List.assoc_opt name instrumented.Parallel.Smp.stages with
      | None ->
        Printf.eprintf "E36 BROKEN: stage %s missing from breakdown\n" name;
        exit 1
      | Some h ->
        if Obs.Histogram.count h <> instrumented.Parallel.Smp.total then begin
          Printf.eprintf
            "E36 BROKEN: stage %s saw %d of %d datagrams\n" name
            (Obs.Histogram.count h) instrumented.Parallel.Smp.total;
          exit 1
        end)
    e36_stage_names;
  (* Migration actually happened, and conserved every segment. *)
  e36_gate ~label:"migration run" migrated;
  if migrated.Parallel.Smp.handoffs = 0 then begin
    Printf.eprintf "E36 BROKEN: migration run performed no handoffs\n";
    exit 1
  end;
  (* The scaling bar, where the hardware can express it. *)
  let threads = Domain.recommended_domain_count () in
  if threads >= 8 then begin
    let d1 = e36_rate rows ~domains:1 and d8 = e36_rate rows ~domains:8 in
    if not (d8 > d1) then begin
      Printf.eprintf
        "E36 REGRESSION: 8 shared-nothing stacks deliver %.0f pkts/s <= \
         %.0f at 1 domain on %d hardware threads\n"
        d8 d1 threads;
      exit 1
    end
  end
  else
    Printf.printf
      "E36: scaling bar skipped (%d hardware threads < 8); rates \
       recorded, not enforced\n"
      threads


let e36_ladder_metric domains = Printf.sprintf "smp.d%d.packets_per_s" domains

let e36_stage_fields =
  [ ("p50_ns", Obs.Histogram.p50); ("p99_ns", Obs.Histogram.p99) ]

let e36_stage_metric name suffix = Printf.sprintf "smp.stage.%s.%s" name suffix

(* The migration run's records: (name, units, value). *)
let e36_migrate_fields =
  [ ("handoffs", "flows", fun (r : Parallel.Smp.result) -> r.Parallel.Smp.handoffs);
    ("forwarded", "segments", fun r -> r.Parallel.Smp.forwarded);
    ("flushes", "flows", fun r -> r.Parallel.Smp.flushes);
    ("violations", "count", fun r -> List.length (Parallel.Smp.violations r)) ]

let e36_migrate_metric name = "smp.migrate." ^ name

let run_e36 ~smoke ~(emit : emit) =
  let trace = e36_trace ~smoke () in
  let rows = e36_scaling trace in
  row "%-10s %14s %12s %10s\n" "domains" "pkts/s" "delivered" "handoffs";
  List.iter
    (fun (d, (r : Parallel.Smp.result)) ->
      row "%-10d %14.0f %12d %10d\n" d r.Parallel.Smp.packets_per_s
        r.Parallel.Smp.total r.Parallel.Smp.handoffs;
      emit ~id:"E36" ~units:"pkts/s" (e36_ladder_metric d)
        r.Parallel.Smp.packets_per_s)
    rows;
  let instrumented = e36_stages trace in
  row "per-stage latency (4 domains, every datagram):\n";
  List.iter
    (fun name ->
      match List.assoc_opt name instrumented.Parallel.Smp.stages with
      | Some h ->
        row "  %-8s p50 %6d ns   p99 %8d ns\n" name (Obs.Histogram.p50 h)
          (Obs.Histogram.p99 h);
        List.iter
          (fun (suffix, value) ->
            emit ~id:"E36" ~units:"ns" (e36_stage_metric name suffix)
              (float_of_int (value h)))
          e36_stage_fields
      | None -> ())
    e36_stage_names;
  let migrated = e36_migrate trace in
  row
    "migration: %d handoffs, %d stragglers forwarded, %d flushes, \
     conservation exact\n"
    migrated.Parallel.Smp.handoffs migrated.Parallel.Smp.forwarded
    migrated.Parallel.Smp.flushes;
  List.iter
    (fun (name, units, value) ->
      emit ~id:"E36" ~units (e36_migrate_metric name)
        (float_of_int (value migrated)))
    e36_migrate_fields;
  assert_e36 rows instrumented migrated;
  row
    "Each domain owns its connection table, timer wheel and demux\n\
     table outright — the dispatcher steers whole flows, so no lookup,\n\
     timer or state transition ever crosses a core boundary, and the\n\
     migration pass shows the one moment ownership moves is a\n\
     message-passing handoff with exact segment accounting, not a\n\
     shared structure.\n"

let run_hash_ablation () =
  let flows = Array.to_list (Sim.Topology.flows 2000) in
  row "%-16s %9s %7s %9s %9s\n" "hash" "max-load" "cv" "chi2" "E[scan]";
  List.iter
    (fun hasher ->
      let q = Hashing.Quality.evaluate_hash hasher ~buckets:19 flows in
      row "%-16s %9d %7.3f %9.1f %9.2f\n" (Hashing.Hashers.name hasher)
        q.Hashing.Quality.max_load q.Hashing.Quality.coefficient_of_variation
        q.Hashing.Quality.chi_square q.Hashing.Quality.expected_search_cost)
    Hashing.Hashers.all

(* Wall-clock sanity check: PCBs examined is the paper's surrogate for
   time, so ns per lookup should rank the algorithms the same way.
   Steady-state OLTP lookups — 2,000 established connections looked up
   in a fixed pseudo-random order — timed with E29's best-of-trials
   direct loop. *)
let run_wallclock ~smoke ~emit:_ =
  let flows = Sim.Topology.flows 2000 in
  let rng = Numerics.Rng.create ~seed:bench_seed in
  let order = Array.init 65536 (fun _ -> Numerics.Rng.int rng ~bound:2000) in
  let lookups = if smoke then 2_000 else 20_000 in
  row "%-16s %12s %12s %13s\n" "algorithm" "PCBs/lookup" "ns/lookup"
    "words/lookup";
  List.iter
    (fun spec ->
      let demux = Demux.Registry.create spec in
      Array.iter (fun flow -> ignore (demux.Demux.Registry.insert flow ())) flows;
      let run count =
        for k = 0 to count - 1 do
          ignore (demux.Demux.Registry.lookup flows.(order.(k land 65535)))
        done
      in
      run 1_000;
      Demux.Lookup_stats.reset demux.Demux.Registry.stats;
      let ns, words = measure_lookups ~trials:3 ~lookups run in
      row "%-16s %12.1f %12.1f %13.4f\n" demux.Demux.Registry.name
        (Demux.Lookup_stats.mean_examined
           (Demux.Lookup_stats.snapshot demux.Demux.Registry.stats))
        ns words)
    Demux.Registry.
      [ Linear; Bsd; Mtf; Sr_cache; sequent 19; sequent 100; hashed_mtf_19;
        Conn_id { capacity = 2048 }; Resizing_hash; Splay ];
  row
    "An order-of-magnitude gap in PCBs examined is an order-of-magnitude\n\
     gap in time.\n"

(* ------------------------------------------------------------------ *)
(* The experiment table                                                *)

(* [id] is what --only selects.  [expects] lists the (record id,
   metric) pairs --check requires; an entry that expects records is one
   --smoke runs, so the CI smoke file always carries them. *)
type experiment = {
  id : string;
  title : string;
  run : smoke:bool -> emit:emit -> unit;
  expects : (string * string) list;
}

(* An entry that only prints: the paper-reproduction tables that carry
   no records and so run only in a full pass. *)
let printed id title f =
  { id; title; run = (fun ~smoke:_ ~emit:_ -> f ()); expects = [] }

let under id metrics = List.map (fun metric -> (id, metric)) metrics
let each xs f = List.concat_map f xs

let experiments =
  [ printed "E1" "E1 / Figure 4: N(T) for 2,000 TPC/A users" run_e1;
    { id = "E2";
      title = "E2/E3: BSD cost and packet-train probability (Section 3.1)";
      run = run_e2_e3;
      expects =
        [ ("E2", "analysis.bsd.cost"); ("E3", "analysis.bsd.train_probability") ]
    };
    printed "E4" "E4/E5/E6: move-to-front costs (Section 3.2)" run_e4_e6;
    { id = "E7"; title = "E7: send/receive cache overall cost (Section 3.3, Eq 17)";
      run = run_e7; expects = [ ("E7", "analysis.sr-cache.cost") ] };
    { id = "E8"; title = "E8-E11: Sequent hashed chains (Section 3.4)";
      run = run_e8_e11;
      expects =
        [ ("E10", "analysis.sequent-19.cost");
          ("E11", "analysis.sequent-100.cost") ] };
    printed "E12" "E12 / Figure 13: algorithm comparison, 0-10,000 connections"
      run_e12_e13;
    { id = "E14";
      title =
        "E14: simulation vs analysis (TPC/A, 1,000 users, 150 s; smoke 200 \
         users, 20 s)";
      run = run_e14;
      expects =
        under "E14"
          (List.map
             (fun spec -> e14_metric (Demux.Registry.spec_name spec))
             Demux.Registry.default_specs) };
    printed "E15" "E15: deterministic polling is MTF's worst case (Section 3.2)"
      run_e15;
    printed "E16" "E16: packet trains redeem the BSD cache (Section 1)" run_e16;
    printed "E17"
      "E17: hashing + move-to-front vs simply more chains (Section 3.5)" run_e17;
    printed "E18"
      "E18: connection-ID direct indexing (Section 3.5 counterfactual)" run_e18;
    printed "E19" "E19: delayed acknowledgements (paper footnote 2)" run_e19;
    printed "E20" "E20: the hit-ratio pitfall (Section 3.4, chatty clients)"
      run_e20;
    printed "E21" "E21 (extension): splay tree vs hashed chains" run_e21;
    printed "E22" "E22 (extension): parallel TCP, the paper's context [Dov90]"
      run_e22;
    printed "E23" "E23: mixed OLTP + bulk traffic (the abstract's full claim)"
      run_e23;
    printed "E24" "E24 (extension): would a bigger cache have saved BSD?" run_e24;
    printed "E25"
      "E25 (extension): think-time shape ablation (Section 3.2's caveat)" run_e25;
    { id = "E28";
      title =
        "E28 (extension): batched demultiplexing amortises the stripe locks";
      run = run_e28;
      expects =
        (let domains, batches = e28_grid ~smoke:true in
         let target = Parallel.Throughput.target_name e28_target in
         under "E28"
           (each domains (fun d -> List.map (throughput_metric target d) batches)))
    };
    (* E29's flat <= chained bar runs wherever E29 does, so the CI
       smoke run fails loudly on a hot-path regression; the coverage
       keeps every flat/chained series at every population, or the
       dashboard's regression series silently goes dark. *)
    { id = "E29";
      title =
        "E29 (extension): flat PCB table vs chained Sequent, warm lookups";
      run = run_e29;
      expects =
        under "E29"
          (each e29_populations (fun n -> List.map (e29_metric n) e29_fields))
    };
    (* Both growing policies plus the pre-sized control, all three tail
       points. *)
    { id = "E31";
      title =
        "E31 (extension): insert-latency tail under growth, incremental vs \
         doubling";
      run = run_e31;
      expects =
        under "E31"
          (each e31_policies (fun (policy, _, _) ->
               List.map (fun (suffix, _) -> e31_metric policy suffix) e31_fields))
    };
    (* Both targets at every rung of the domain ladder, plus the two
       read-path guarantee records. *)
    { id = "E33"; title = "E33 (extension): lock-free epoch reads vs striped locks";
      run = run_e33;
      expects =
        under "E33"
          (each e33_domains (fun d ->
               List.map
                 (fun target ->
                   throughput_metric (Parallel.Throughput.target_name target) d 1)
                 e33_targets)
          @ [ "epoch.read_path.mutex_acquisitions";
              "epoch.read_path.minor_words_per_lookup" ]) };
    (* Both backends, every metric — the off-heap claim is untestable
       against history if either side of the comparison goes dark. *)
    { id = "E34";
      title =
        "E34 (extension): off-heap vs heap slot storage at 10M flows, \
         GC-exposed tail";
      run = run_e34;
      expects =
        under "E34"
          (each e34_backends (fun (module M : Demux.Packed_table.S) ->
               List.map (fun (suffix, _) -> e34_metric M.backend suffix) e34_fields))
    };
    (* Both algorithms, every profile and population, plus the warm-hit
       allocation records — the SYN-flood claim needs the flat side of
       the comparison as much as the cuckoo side. *)
    { id = "E35";
      title =
        "E35 (extension): flat Robin-Hood vs bucketized cuckoo under \
         hostile lookup profiles";
      run = run_e35;
      expects =
        under "E35"
          (each [ "flat"; "cuckoo" ] (fun algo ->
               each e35_profiles (fun profile ->
                   each e35_populations (fun n ->
                       List.map
                         (fun (suffix, _, _) -> e35_metric algo profile n suffix)
                         e35_fields)))
          @ List.map (fun (backend, _) -> e35_warm_metric backend)
              e35_warm_backends) };
    (* The ladder at every rung, the five-stage breakdown and the
       migration records — the SMP claim is only auditable with the
       scaling curve AND the exact-handoff evidence side by side. *)
    { id = "E36";
      title =
        "E36 (extension): shared-nothing per-core TCP stacks with flow \
         steering";
      run = run_e36;
      expects =
        under "E36"
          (List.map e36_ladder_metric e36_domains
          @ each e36_stage_names (fun name ->
                List.map (fun (suffix, _) -> e36_stage_metric name suffix)
                  e36_stage_fields)
          @ List.map (fun (name, _, _) -> e36_migrate_metric name)
              e36_migrate_fields) };
    printed "ablation"
      "Ablation: hash-function chain balance (DESIGN.md section 6)"
      run_hash_ablation;
    { id = "wallclock";
      title = "Wall-clock sanity check: lookups over 2,000 connections";
      run = run_wallclock; expects = [] } ]

(* ------------------------------------------------------------------ *)
(* JSON record layer (BENCH_demux.json, schema tcpdemux-bench/1)       *)

let write_records path records =
  Obs.Json.write_file path
    (Obs.Json.Obj
       [ ("schema", Obs.Json.String "tcpdemux-bench/1");
         ("records", Obs.Json.List records) ]);
  Printf.printf "wrote %d benchmark records to %s\n" (List.length records)
    path

(* Schema sanity for --check: fail loudly (exit 1) on anything a
   regression dashboard could not ingest. *)
let check_records path =
  let fail message =
    Printf.eprintf "%s: %s\n" path message;
    exit 1
  in
  let field name json reader = Option.bind (Obs.Json.member name json) reader in
  match Obs.Json.of_file path with
  | Error message -> fail message
  | Ok json ->
    (match field "schema" json Obs.Json.to_string_opt with
    | Some "tcpdemux-bench/1" -> ()
    | Some other ->
      fail (Printf.sprintf "schema %S, want tcpdemux-bench/1" other)
    | None -> fail "missing schema field");
    (match field "records" json Obs.Json.to_list_opt with
    | None -> fail "records is not a list"
    | Some [] -> fail "records is empty"
    | Some items ->
      let present = Hashtbl.create 256 in
      List.iteri
        (fun index item ->
          let where name =
            Printf.sprintf "record %d: bad or missing %s" index name
          in
          let str name =
            match field name item Obs.Json.to_string_opt with
            | Some s -> s
            | None -> fail (where name)
          in
          let id = str "id" and metric = str "metric" in
          if id = "" then fail (where "id");
          if metric = "" then fail (where "metric");
          ignore (str "units");
          (match field "value" item Obs.Json.to_float_opt with
          | Some value when Float.is_finite value -> ()
          | Some _ | None -> fail (where "value"));
          (match field "seed" item Obs.Json.to_int_opt with
          | Some _ -> ()
          | None -> fail (where "seed"));
          Hashtbl.replace present (id, metric) item)
        items;
      (* Coverage gate: every record an experiment declares must be
         present, or its regression series silently goes dark. *)
      let expected = List.concat_map (fun e -> e.expects) experiments in
      List.iter
        (fun ((id, metric) as want) ->
          if not (Hashtbl.mem present want) then
            fail (Printf.sprintf "missing %s record %s" id metric))
        expected;
      Option.iter
        (fun item ->
          match field "value" item Obs.Json.to_float_opt with
          | Some 0. -> ()
          | Some v ->
            fail
              (Printf.sprintf
                 "E36 migration conservation violated (%d violations)"
                 (int_of_float v))
          | None -> fail "E36 smp.migrate.violations is not a number")
        (Hashtbl.find_opt present ("E36", "smp.migrate.violations"));
      Printf.printf
        "%s: %d records (all %d declared records present, migration \
         conservation ok), schema ok\n"
        path (List.length items) (List.length expected))

(* The differential-check gate: --check refuses to bless a benchmark
   run unless a passing tcpdemux-check/1 report sits next to it —
   perf numbers from tables the oracle has not cleared are not
   results.  The chaos gate has the same posture: a benchmark run is
   only blessed when the pipeline survived the fault scenarios with a
   clean replay audit. *)
let check_report ~schema ~command validate path =
  match validate path with
  | Ok () -> Printf.printf "%s: %s ok\n" path schema
  | Error message ->
    Printf.eprintf "%s: %s\n(run `tcpdemux %s --smoke --json %s` first)\n"
      path message command path;
    exit 1

(* ------------------------------------------------------------------ *)

let usage () =
  Printf.eprintf
    "usage: bench [--smoke] [--only ID[,ID...]] [--json FILE] [--check FILE] \
     [--check-report FILE] [--chaos-report FILE]\n\
     \  --smoke        small populations and windows; runs only the\n\
     \                 entries whose records --check requires (CI)\n\
     \  --only IDS     run only these comma-separated entries, of:\n\
     \                 %s\n\
     \                 (E34 at full size: ~minutes, ~1 GB resident)\n\
     \  --json FILE    write the run's tcpdemux-bench/1 records to FILE\n\
     \  --check FILE   validate a records file (plus the tcpdemux-check/1\n\
     \                 report, --check-report, default check.json, and the\n\
     \                 tcpdemux-chaos/1 report, --chaos-report, default\n\
     \                 chaos.json) and exit\n"
    (String.concat " " (List.map (fun e -> e.id) experiments));
  exit 2

let () =
  let smoke = ref false and only = ref None in
  let json = ref None and check = ref None in
  let check_path = ref "check.json" and chaos_path = ref "chaos.json" in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest -> smoke := true; parse rest
    | "--only" :: ids :: rest ->
      only := Some (String.split_on_char ',' ids); parse rest
    | "--json" :: path :: rest -> json := Some path; parse rest
    | "--check" :: path :: rest -> check := Some path; parse rest
    | "--check-report" :: path :: rest -> check_path := path; parse rest
    | "--chaos-report" :: path :: rest -> chaos_path := path; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !check with
  | Some path ->
    check_records path;
    check_report ~schema:"tcpdemux-check/1" ~command:"check"
      Check.Report.validate_file !check_path;
    check_report ~schema:"tcpdemux-chaos/1" ~command:"chaos"
      Check.Chaos.validate_file !chaos_path
  | None ->
    let selected =
      match !only with
      | Some ids ->
        List.iter
          (fun id ->
            if not (List.exists (fun e -> e.id = id) experiments) then begin
              Printf.eprintf "bench: unknown experiment id %S\n" id;
              usage ()
            end)
          ids;
        List.filter (fun e -> List.mem e.id ids) experiments
      | None when !smoke -> List.filter (fun e -> e.expects <> []) experiments
      | None -> experiments
    in
    print_endline
      "tcpdemux benchmark harness — McKenney & Dove (1992) reproduction";
    let records = ref [] in
    let emit ~id ?(units = "") metric value =
      records :=
        Obs.Json.Obj
          [ ("id", Obs.Json.String id); ("metric", Obs.Json.String metric);
            ("value", Obs.Json.Float value); ("units", Obs.Json.String units);
            ("seed", Obs.Json.Int bench_seed) ]
        :: !records
    in
    List.iter (fun e -> section e.title; e.run ~smoke:!smoke ~emit) selected;
    Option.iter (fun path -> write_records path (List.rev !records)) !json;
    print_endline "\ndone."
