(* Clocks, calibration and order statistics. *)

let now_ns = Obs.Clock.now_ns

(* The cost of one clock read, measured as the mean gap between
   back-to-back reads; the median of several rounds.  Every interval
   timed with two reads carries one read's cost, which is subtracted
   from latency samples and span self times. *)
let clock_read_ns () =
  let round () =
    let n = 20_000 in
    let t0 = now_ns () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (now_ns ()))
    done;
    float_of_int (now_ns () - t0) /. float_of_int (n + 1)
  in
  let rounds = Array.init 15 (fun _ -> round ()) in
  Array.sort compare rounds;
  rounds.(Array.length rounds / 2)

(* Quantile of a sorted array, by linear interpolation between the
   nearest ranks. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  quantile_sorted a 0.5

(* [p50, p99] of the first [n] integer samples of [samples], each
   reduced by [offset]. *)
let p50_p99 samples n ~offset =
  let a = Array.init n (fun i -> float_of_int samples.(i) -. offset) in
  Array.sort compare a;
  (quantile_sorted a 0.5, quantile_sorted a 0.99)

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* Minor words allocated by [f ()] on this domain. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

(* Live heap words after a full major collection. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words
