type result = {
  workers : int;
  batch : int;
  packets : int;
  found : int;
  batches : int;
  tier_dropped_packets : int;
  rejected_packets : int;
  max_ring_depth : int;
  elapsed_seconds : float;
  packets_per_second : float;
  per_worker_packets : int array;
}

let run ?obs ?(tracer = Obs.Trace.disabled) ?(ring_capacity = 64) ?pressure
    ?(pace = ignore) ~hash ~workers ~batch ~consume items =
  if workers <= 0 then invalid_arg "Dispatcher.run: workers <= 0";
  if batch <= 0 then invalid_arg "Dispatcher.run: batch <= 0";
  if ring_capacity <= 0 then invalid_arg "Dispatcher.run: ring_capacity <= 0";
  let total = Array.length items in
  if total = 0 then invalid_arg "Dispatcher.run: empty packet stream";
  let rings = Array.init workers (fun _ -> Ring.create ~capacity:ring_capacity) in
  (* Observability, matching lib/obs conventions: a batch-size
     histogram and a ring-depth histogram (sampled at each push), and a
     max-depth gauge. *)
  let batch_histogram =
    Option.map
      (fun obs ->
        Obs.Registry.histogram obs ~units:"packets"
          ~help:"packets per batch pushed to a worker ring"
          "pipeline.batch_size")
      obs
  in
  let depth_histogram =
    Option.map
      (fun obs ->
        Obs.Registry.histogram obs ~units:"batches"
          ~help:"destination ring depth sampled at each push"
          "pipeline.ring_depth")
      obs
  in
  let batches = ref 0 and max_depth = ref 0 in
  let tier_dropped = ref 0 and rejected = ref 0 in
  Option.iter
    (fun obs ->
      Obs.Registry.register_gauge obs ~units:"batches"
        ~help:"deepest worker-ring occupancy observed by the dispatcher"
        ~name:"pipeline.ring_depth_max"
        (fun () -> float_of_int !max_depth))
    obs;
  let counts = Array.make workers (0, 0) in
  let domains =
    Array.init workers (fun w ->
        Domain.spawn (fun () ->
            let found = ref 0 and packets = ref 0 in
            Ring.consume rings.(w) (fun (batch, hashes) ->
                packets := !packets + Array.length batch;
                found := !found + consume ~worker:w batch ~hashes);
            counts.(w) <- (!packets, !found)))
  in
  let buffers = Array.init workers (fun _ -> Array.make batch items.(0)) in
  (* Each item's full hash, computed once at dispatch and shipped with
     the batch so downstream stages (stripe grouping in
     [Striped.lookup_batch_keyed]) never re-derive it. *)
  let hash_buffers = Array.init workers (fun _ -> Array.make batch 0) in
  let fills = Array.make workers 0 in
  let started = Obs.Clock.now_ns () in
  (* Ship worker [w]'s partial buffer as one immutable batch, through
     the pressure tier gate. *)
  let flush w =
    let fill = fills.(w) in
    if fill > 0 then begin
      fills.(w) <- 0;
      let shipment =
        if fill = batch then
          (Array.copy buffers.(w), Array.copy hash_buffers.(w))
        else (Array.sub buffers.(w) 0 fill, Array.sub hash_buffers.(w) 0 fill)
      in
      let ring = rings.(w) in
      let depth = Ring.length ring in
      match Pressure.offer pressure ring shipment ~packets:fill with
      | `Rejected -> rejected := !rejected + fill
      | verdict ->
        if depth > !max_depth then max_depth := depth;
        Option.iter (fun h -> Obs.Histogram.record h depth) depth_histogram;
        if verdict = `Dropped then tier_dropped := !tier_dropped + fill
        else begin
          incr batches;
          Option.iter (fun h -> Obs.Histogram.record h fill) batch_histogram;
          Obs.Trace.record tracer Obs.Trace.Batch fill w
        end
    end
  in
  (* RSS: shard every item by its hash, so one connection's packets
     always reach the same worker (per-stripe caches stay warm and no
     two workers contend on one connection's stripe).  The hash is
     computed exactly once per item, here; the worker index is its
     reduction mod workers (identical sharding to [bucket_flow]) and
     the full value ships with the batch. *)
  for i = 0 to total - 1 do
    pace i;
    let item = items.(i) in
    let h = hash item in
    let w = h mod workers in
    buffers.(w).(fills.(w)) <- item;
    hash_buffers.(w).(fills.(w)) <- h;
    fills.(w) <- fills.(w) + 1;
    if fills.(w) = batch then flush w
  done;
  for w = 0 to workers - 1 do
    flush w
  done;
  Array.iter Ring.close rings;
  Array.iter Domain.join domains;
  let elapsed =
    float_of_int (Obs.Clock.now_ns () - started) /. 1e9
  in
  let delivered = Array.fold_left (fun a (p, _) -> a + p) 0 counts in
  let found = Array.fold_left (fun a (_, f) -> a + f) 0 counts in
  { workers; batch; packets = total; found; batches = !batches;
    tier_dropped_packets = !tier_dropped;
    rejected_packets = !rejected; max_ring_depth = !max_depth;
    elapsed_seconds = elapsed;
    packets_per_second =
      (if elapsed > 0.0 then float_of_int delivered /. elapsed else 0.0);
    per_worker_packets = Array.map fst counts }

let lost_packets r = r.tier_dropped_packets + r.rejected_packets

let pp ppf r =
  Format.fprintf ppf
    "@[<v>%d workers x batch %d: %d packets (%d found, %d dropped) in %.3f s \
     = %.0f pkts/s@,%d batches, max ring depth %d, per-worker %s@]"
    r.workers r.batch r.packets r.found (lost_packets r) r.elapsed_seconds
    r.packets_per_second r.batches r.max_ring_depth
    (String.concat ","
       (Array.to_list (Array.map string_of_int r.per_worker_packets)));
  if r.tier_dropped_packets > 0 || r.rejected_packets > 0 then
    Format.fprintf ppf
      "@,pressure: %d dropped at drop-batches, %d refused at reject"
      r.tier_dropped_packets r.rejected_packets
