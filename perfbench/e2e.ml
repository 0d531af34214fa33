(* The end-to-end metrics of one untraced run.  The measured window
   alternates rate blocks (no clock reads inside the loop) with
   latency blocks (every loop iteration timed), so both see the same
   host conditions. *)

type result = {
  metrics : (string * float) list;
  attempted : int;
  failed : int;
  failures : string list;
}

(* The window is cut into blocks so that each run sees many of the
   host's fast and slow phases, and each timing is reported from the
   slowest quarter of the blocks: the median rate of the slowest
   quarter of rate blocks, and the median p50 (and, in the traced
   run, p99) of the quarter of latency blocks with the highest p50.
   That is the level the receive path sustains through the slow phases, and it repeats from
   run to run far better than a mean or median over all blocks, which
   depends on how the phases happened to fall within the window. *)
let block_datagrams = 32768
let max_blocks = 8192

(* Setup is timed in slots spread over the window, one a second,
   so that it samples the host's phases as the blocks do.  A slot
   repeats setup for at least [slot_seconds] (and at least once),
   between full major collections, so that every repetition starts
   from the same heap state and leaves no garbage to the blocks.  Like
   the blocks, the repetitions are summarised by the median of their
   slowest quarter. *)
let slot_seconds = 0.02
let max_setups = 65536

type setups = { times : float array; mutable count : int }

let setups () = { times = Array.make max_setups 0.0; count = 0 }

let setup_slot st f =
  Gc.full_major ();
  let spent = ref 0.0 and n = ref 0 in
  while (!n = 0 || !spent < slot_seconds) && st.count < max_setups do
    let s = f () in
    st.times.(st.count) <- s;
    st.count <- st.count + 1;
    spent := !spent +. s;
    incr n
  done;
  Gc.full_major ()

(* Per-block figures, kept in arrays allocated before the live-heap
   baseline so the window itself adds nothing to the live heap. *)
type blocks = { rate : float array; p50 : float array; p99 : float array;
                mutable n : int }

let blocks () =
  { rate = Array.make max_blocks 0.0; p50 = Array.make max_blocks 0.0;
    p99 = Array.make max_blocks 0.0; n = 0 }

(* Run [rate ()] and [latency ()] alternately until [seconds] have
   passed (at least ten of each), and [setup ()] once a second. *)
let alternate ~seconds b ~rate ~latency ~setup =
  let t0 = Measure.now_ns () and next_setup = ref 0.0 in
  while (Measure.seconds_since t0 < seconds || b.n < 10) && b.n < max_blocks do
    if Measure.seconds_since t0 >= !next_setup then begin
      setup ();
      next_setup := !next_setup +. 1.0
    end;
    b.rate.(b.n) <- rate ();
    let p50, p99 = latency () in
    b.p50.(b.n) <- p50;
    b.p99.(b.n) <- p99;
    b.n <- b.n + 1
  done

(* The median of [value i] over the quarter of the indices [0, n) that
   rank first by [slower]. *)
let slow_quarter n ~slower value =
  let order = Array.init n Fun.id in
  Array.sort slower order;
  let k = max 1 (n / 4) in
  Measure.median (List.init k (fun i -> value order.(i)))

let slow_rate b =
  slow_quarter b.n ~slower:(fun i j -> compare b.rate.(i) b.rate.(j)) (fun i ->
      b.rate.(i))

(* Microseconds of the latency blocks' [pick] (p50 or p99). *)
let slow_latency_us b pick =
  slow_quarter b.n ~slower:(fun i j -> compare b.p50.(j) b.p50.(i)) pick /. 1e3

let slow_setup st =
  slow_quarter st.count ~slower:(fun i j -> compare st.times.(j) st.times.(i))
    (fun i -> st.times.(i))

(* One latency block: the loop timed per iteration, less one clock
   read; its p50 and p99 in nanoseconds. *)
let latency_block ~clock_ns r samples =
  Single.timed_run r block_datagrams samples;
  Measure.p50_p99 samples block_datagrams ~offset:clock_ns

let run ~seconds ~clock_ns (tr : Trace.t) =
  let steady_len = Array.length tr.Trace.steady in
  let samples = Array.make block_datagrams 0 in
  let b = blocks () and st = setups () in
  let base = Measure.live_words () in
  let r = Single.create tr in
  Single.setup r;
  Single.pass r;
  let (), words = Measure.minor_words (fun () -> Single.pass r) in
  let rate () =
    float_of_int block_datagrams /. Single.timed_block r block_datagrams
  in
  let latency () = latency_block ~clock_ns r samples in
  alternate ~seconds b ~rate ~latency
    ~setup:(fun () -> setup_slot st (fun () -> Single.setup_seconds tr));
  Single.finish_pass r;
  let live = Measure.live_words () - base in
  let resident = Tcpcore.Stack.connection_count r.Single.stack in
  ignore (Sys.opaque_identity samples);
  let failed, failures = Single.check r in
  { metrics =
      [ ("dps", slow_rate b);
        ("latency_p50_us", slow_latency_us b (fun i -> b.p50.(i)));
        ("minor_words_per_dg", words /. float_of_int steady_len);
          ("live_bytes_per_conn",
           float_of_int (live * (Sys.word_size / 8))
           /. float_of_int (max 1 resident));
          ("setup_s", slow_setup st) ];
    attempted = r.Single.fed; failed; failures }
