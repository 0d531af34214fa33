(* perfbench --workload NAME --seed N --seconds S --trace 0|1

   Replays a seeded wire-format trace through the receive path and
   prints one JSON object: the end-to-end metrics (--trace 0) or the
   per-layer ledger (--trace 1), the oracle's verdict, and the
   datagram counts; the oracle's findings go to standard error.  With
   --spans FILE a traced run also writes its last block's spans there.
   Exits 1 when the oracle finds a wrong outcome. *)

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_string s = Printf.sprintf "%S" s

let print_result ~correct ~attempted ~failed metrics =
  let field (name, v) =
    Printf.sprintf "%s: %s" (json_string name) (json_number v)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " (List.map field metrics))

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0
  and trace = ref (-1) and spans = ref None in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--spans" :: v :: rest -> spans := Some v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  let tr =
    match Trace.generate ~seed:!seed !workload with
    | Some tr -> tr
    | None ->
      Printf.eprintf "unknown workload %S (one of %s)\n" !workload
        (String.concat ", " Trace.workloads);
      exit 2
  in
  let clock_ns = Measure.clock_read_ns () in
  let r =
    if !trace = 1 then Layers.run ?spans_file:!spans ~seconds:!seconds ~clock_ns tr
    else E2e.run ~seconds:!seconds ~clock_ns tr
  in
  let correct = r.E2e.failed = 0 && r.E2e.failures = [] in
  List.iter (fun f -> prerr_endline ("oracle: " ^ f)) r.E2e.failures;
  print_result ~correct ~attempted:r.E2e.attempted ~failed:r.E2e.failed
    r.E2e.metrics;
  if not correct then exit 1
