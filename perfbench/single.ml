(* Closed-loop replay of a trace through one Tcpcore.Stack: for each
   datagram, [handle_bytes] then [poll_output] — the calls
   Parallel.Smp's worker makes — plus, on workloads with timers, an
   [advance_clock] on the virtual clock every [clock_every]
   datagrams. *)

type t = {
  trace : Trace.t;
  stack : Tcpcore.Stack.t;
  mutable fed : int;      (* datagrams fed; drives the virtual clock *)
  mutable passes : int;   (* steady passes completed *)
  mutable cursor : int;   (* next steady datagram *)
  mutable between_ns : int;
      (* time spent moving the trace on between passes, which timed
         blocks leave out *)
  mutable errors : int;   (* handle_bytes returned Error *)
  mutable tx : int;       (* segments drained by poll_output *)
  mutable reaped : int;   (* advance_clock actions *)
  mutable clock_calls : int;
  reaps : int Queue.t option;
      (* advance_clock result per call, in order, when recording *)
}

let on_data (tr : Trace.t) =
  if tr.closes then fun stack conn _ -> Tcpcore.Stack.close stack conn
  else fun _ _ _ -> ()

let create_stack (tr : Trace.t) =
  let stack =
    Tcpcore.Stack.create ~iss:Tcpcore.Stack.deterministic_iss
      ~time_wait_timeout:tr.time_wait ~local_addr:Trace.server_addr ()
  in
  Tcpcore.Stack.listen stack ~port:Trace.server_port ~on_data:(on_data tr);
  stack

let create ?(record_reaps = false) tr =
  { trace = tr; stack = create_stack tr; fed = 0; passes = 0; cursor = 0;
    between_ns = 0; errors = 0; tx = 0; reaped = 0; clock_calls = 0;
    reaps = (if record_reaps then Some (Queue.create ()) else None) }

(* Whether the datagram just fed is followed by a timer tick. *)
let tick_due r =
  r.trace.Trace.clock_every > 0 && r.fed mod r.trace.Trace.clock_every = 0

let tick r =
  let n =
    Tcpcore.Stack.advance_clock r.stack
      ~now:(float_of_int r.fed *. r.trace.Trace.clock_step)
  in
  r.reaped <- r.reaped + n;
  r.clock_calls <- r.clock_calls + 1;
  Option.iter (Queue.add n) r.reaps

let feed r b =
  (match Tcpcore.Stack.handle_bytes r.stack b with
  | Ok () -> ()
  | Error _ -> r.errors <- r.errors + 1);
  r.tx <- r.tx + List.length (Tcpcore.Stack.poll_output r.stack);
  r.fed <- r.fed + 1;
  if tick_due r then tick r

let setup r = Array.iter (feed r) r.trace.Trace.setup

(* After the last datagram of a pass: move the trace on to the next
   pass.  Not part of the receive path, so timed out of blocks. *)
let wrap r =
  r.cursor <- r.cursor + 1;
  if r.cursor = Array.length r.trace.Trace.steady then begin
    let t0 = Measure.now_ns () in
    r.cursor <- 0;
    r.passes <- r.passes + 1;
    Trace.advance r.trace;
    r.between_ns <- r.between_ns + (Measure.now_ns () - t0)
  end

(* Feed the next [n] steady datagrams, wrapping from pass to pass. *)
let run r n =
  let steady = r.trace.Trace.steady in
  for _ = 1 to n do
    feed r steady.(r.cursor);
    wrap r
  done

(* As [run], timing every iteration of the replay loop:
   [samples.(i)] receives iteration [i]'s raw duration. *)
let timed_run r n samples =
  let steady = r.trace.Trace.steady in
  for i = 0 to n - 1 do
    let t0 = Measure.now_ns () in
    feed r steady.(r.cursor);
    samples.(i) <- Measure.now_ns () - t0;
    wrap r
  done

(* Seconds [run r n] takes, less the time spent between passes. *)
let timed_block r n =
  let t0 = Measure.now_ns () and b0 = r.between_ns in
  run r n;
  float_of_int (Measure.now_ns () - t0 - (r.between_ns - b0)) /. 1e9

(* Complete the current pass. *)
let finish_pass r =
  if r.cursor <> 0 then run r (Array.length r.trace.Trace.steady - r.cursor)

(* One whole pass from the start of the steady part. *)
let pass r =
  finish_pass r;
  run r (Array.length r.trace.Trace.steady)

(* Seconds to bring a fresh stack through setup: creation, listen and
   the setup datagrams. *)
let setup_seconds tr =
  let t0 = Measure.now_ns () in
  setup (create tr);
  Measure.seconds_since t0

let count kind kinds =
  Array.fold_left (fun n k -> if k = kind then n + 1 else n) 0 kinds

(* The workload's oracle.  Returns the number of failed outcomes and
   a description of each kind of failure.  On churn-tw the remaining
   TIME-WAIT connections are reaped first, so call this last. *)
let check r =
  finish_pass r;
  let tr = r.trace in
  let st = r.stack in
  let failures = ref [] and failed = ref 0 in
  let fail n fmt =
    Printf.ksprintf
      (fun s ->
        failed := !failed + n;
        failures := s :: !failures)
      fmt
  in
  if r.errors > 0 then fail r.errors "handle_bytes returned Error %d times" r.errors;
  let drops = Tcpcore.Stack.drops_total st in
  if drops > 0 then fail drops "%d datagrams dropped" drops;
  let rsts = Tcpcore.Stack.rsts_sent st in
  if rsts > 0 then fail rsts "%d RSTs sent" rsts;
  let rtx = Tcpcore.Stack.retransmissions st in
  if rtx > 0 then fail rtx "%d retransmissions" rtx;
  if tr.Trace.closes then begin
    (* Reap everything still in TIME-WAIT. *)
    let now =
      (float_of_int r.fed *. tr.Trace.clock_step) +. (10.0 *. tr.Trace.time_wait)
    in
    r.reaped <- r.reaped + Tcpcore.Stack.advance_clock st ~now;
    let fins =
      count Trace.Fin_ack tr.Trace.setup_kinds
      + (r.passes * count Trace.Fin_ack tr.Trace.steady_kinds)
    in
    if r.reaped <> fins then
      fail (abs (fins - r.reaped)) "%d flows closed but %d reaped from TIME-WAIT"
        fins r.reaped;
    let left = Tcpcore.Stack.connection_count st in
    if left <> 0 then fail left "%d connections left after reaping" left
  end
  else begin
    let expected = tr.Trace.payload_per_pass * r.passes in
    let bad = ref 0 and seen = ref 0 in
    Tcpcore.Stack.iter_connections st (fun c ->
        incr seen;
        if
          (not (Tcpcore.State.equal c.Tcpcore.Stack.state Tcpcore.State.Established))
          || c.Tcpcore.Stack.bytes_in <> expected
        then incr bad);
    if !bad > 0 then
      fail !bad "%d flows not Established with %d bytes in" !bad expected;
    if !seen <> tr.Trace.population then
      fail (abs (tr.Trace.population - !seen)) "%d connections, expected %d"
        !seen tr.Trace.population
  end;
  (!failed, List.rev !failures)
