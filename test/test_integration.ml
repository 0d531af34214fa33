(* Cross-module integration tests: the paper's qualitative claims
   checked end-to-end — real packets, real stacks, real workloads —
   plus reporting round-trips. *)

let addr = Packet.Ipv4.addr_of_octets

(* ------------------------------------------------------------------ *)
(* The paper's headline ordering, measured on the real structures      *)

let test_algorithm_ordering_under_tpca () =
  (* At 500 users: BSD ~ 250, MTF and SR-cache in between, Sequent an
     order of magnitude below, conn-id at 1. *)
  let params = Analysis.Tpca_params.v ~users:500 () in
  let config = Sim.Tpca_workload.default_config ~duration:200.0 params in
  let run spec = (Sim.Tpca_workload.run config spec).Sim.Report.overall_mean in
  let bsd = run Demux.Registry.Bsd in
  let mtf = run Demux.Registry.Mtf in
  let sr = run Demux.Registry.Sr_cache in
  let sequent =
    run
      (Demux.Registry.Sequent
         { chains = 19; hasher = Hashing.Hashers.multiplicative })
  in
  let conn_id = run (Demux.Registry.Conn_id { capacity = 512 }) in
  Alcotest.(check bool)
    (Printf.sprintf "mtf %.0f < bsd %.0f" mtf bsd)
    true (mtf < bsd);
  Alcotest.(check bool)
    (Printf.sprintf "sr %.0f < bsd %.0f" sr bsd)
    true (sr < bsd);
  Alcotest.(check bool)
    (Printf.sprintf "sequent %.1f at least 10x below bsd %.0f" sequent bsd)
    true
    (sequent *. 10.0 < bsd);
  Alcotest.(check (float 0.01)) "conn-id is 1" 1.0 conn_id

let test_paper_operating_point () =
  (* The strongest regression anchor: the paper's own operating point,
     2000 users, R = 0.2 s, D = 1 ms.  Simulated means must stay
     within 3% of the quoted analytic values (BSD 1001, MTF 549,
     SR 667) and within 5% for Sequent (hash-occupancy sensitive). *)
  let params = Analysis.Tpca_params.default in
  let config = Sim.Tpca_workload.default_config ~duration:240.0 params in
  let check ?(tolerance = 0.03) spec paper =
    let report = Sim.Tpca_workload.run config spec in
    let ratio = report.Sim.Report.overall_mean /. paper in
    if Float.abs (ratio -. 1.0) > tolerance then
      Alcotest.failf "%s at paper scale: expected ~%.0f, simulated %.1f"
        report.Sim.Report.algorithm paper report.Sim.Report.overall_mean
  in
  check Demux.Registry.Bsd 1001.0;
  check Demux.Registry.Mtf 549.0;
  check Demux.Registry.Sr_cache 667.0;
  check ~tolerance:0.05
    (Demux.Registry.Sequent
       { chains = 19; hasher = Hashing.Hashers.multiplicative })
    53.0

let test_every_hash_supports_sequent () =
  (* The Sequent result must not hinge on one lucky hash function. *)
  let params = Analysis.Tpca_params.v ~users:300 () in
  let config = Sim.Tpca_workload.default_config ~duration:150.0 params in
  let bsd =
    (Sim.Tpca_workload.run config Demux.Registry.Bsd).Sim.Report.overall_mean
  in
  List.iter
    (fun hasher ->
      let report =
        Sim.Tpca_workload.run config
          (Demux.Registry.Sequent { chains = 19; hasher })
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f well below bsd %.1f"
           (Hashing.Hashers.name hasher)
           report.Sim.Report.overall_mean bsd)
        true
        (report.Sim.Report.overall_mean *. 5.0 < bsd))
    Hashing.Hashers.all

(* ------------------------------------------------------------------ *)
(* Wire-level OLTP through the stack on every algorithm                *)

let run_wire_oltp spec =
  let server_addr = addr 192 168 1 1 in
  let server = Tcpcore.Stack.create ~demux:spec ~local_addr:server_addr () in
  let answered = ref 0 in
  Tcpcore.Stack.listen server ~port:8888 ~on_data:(fun t conn payload ->
      incr answered;
      Tcpcore.Stack.send t conn ("OK:" ^ payload));
  let server_ep = Packet.Flow.endpoint server_addr 8888 in
  let clients = 40 in
  let client_ep i =
    Packet.Flow.endpoint (addr 10 0 0 (i + 1)) (3000 + i)
  in
  (* Handshakes via raw bytes. *)
  let server_seq = Array.make clients 0l in
  for i = 0 to clients - 1 do
    let syn =
      Packet.Segment.make ~src:(client_ep i) ~dst:server_ep
        ~flags:Packet.Tcp_header.flag_syn
        ~seq:(Int32.of_int (i * 1000))
        ()
    in
    (match Tcpcore.Stack.handle_bytes server (Packet.Segment.to_bytes syn) with
    | Ok () -> ()
    | Error e -> Alcotest.fail e);
    match Tcpcore.Stack.poll_output server with
    | [ syn_ack ] ->
      Alcotest.(check bool) "syn-ack flags" true
        (syn_ack.Packet.Segment.tcp.Packet.Tcp_header.flags.Packet.Tcp_header.syn
        && syn_ack.Packet.Segment.tcp.Packet.Tcp_header.flags.Packet.Tcp_header.ack);
      server_seq.(i) <-
        Int32.add syn_ack.Packet.Segment.tcp.Packet.Tcp_header.seq 1l;
      let ack =
        Packet.Segment.make ~src:(client_ep i) ~dst:server_ep
          ~flags:Packet.Tcp_header.flag_ack
          ~seq:(Int32.of_int ((i * 1000) + 1))
          ~ack_number:server_seq.(i) ()
      in
      (match Tcpcore.Stack.handle_bytes server (Packet.Segment.to_bytes ack) with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    | _ -> Alcotest.fail "no SYN-ACK"
  done;
  Alcotest.(check int) "all established" clients
    (Tcpcore.Stack.connection_count server);
  (* Interleaved queries, the anti-train pattern. *)
  let rng = Numerics.Rng.create ~seed:3 in
  let order = Array.init clients Fun.id in
  Numerics.Rng.shuffle rng order;
  Array.iter
    (fun i ->
      let query =
        Packet.Segment.make ~src:(client_ep i) ~dst:server_ep
          ~flags:Packet.Tcp_header.flag_psh_ack
          ~seq:(Int32.of_int ((i * 1000) + 1))
          ~ack_number:server_seq.(i) ~payload:(Printf.sprintf "TXN-%d" i) ()
      in
      match Tcpcore.Stack.handle_bytes server (Packet.Segment.to_bytes query) with
      | Ok () -> ignore (Tcpcore.Stack.poll_output server)
      | Error e -> Alcotest.fail e)
    order;
  Alcotest.(check int) "all queries answered" clients !answered;
  Alcotest.(check int) "no RSTs" 0 (Tcpcore.Stack.rsts_sent server);
  Demux.Lookup_stats.snapshot (Tcpcore.Stack.demux_stats server)

let test_wire_oltp_all_algorithms () =
  let specs =
    Demux.Registry.
      [ Linear; Bsd; Mtf; Sr_cache;
        Sequent { chains = 19; hasher = Hashing.Hashers.multiplicative };
        Hashed_mtf { chains = 19; hasher = Hashing.Hashers.multiplicative };
        Conn_id { capacity = 64 }; Resizing_hash ]
  in
  let costs =
    List.map
      (fun spec ->
        let s = run_wire_oltp spec in
        ( Demux.Registry.spec_name spec,
          Demux.Lookup_stats.mean_examined s ))
      specs
  in
  (* Same functional outcome everywhere; hashed structures cheaper than
     the single list even at 40 connections. *)
  let cost name = List.assoc name costs in
  Alcotest.(check bool)
    (Printf.sprintf "sequent %.2f < linear %.2f" (cost "sequent-19")
       (cost "linear"))
    true
    (cost "sequent-19" < cost "linear")

(* ------------------------------------------------------------------ *)
(* Reporting round-trips                                               *)

let test_csv_of_figures () =
  let series = Analysis.Comparison.figure13 () in
  let csv = Report.Csv.series_to_string series in
  let lines = String.split_on_char '\n' (String.trim csv) in
  (* Header + 101 sweep points. *)
  Alcotest.(check int) "lines" 102 (List.length lines);
  (match lines with
  | header :: _ ->
    Alcotest.(check bool) "header has BSD" true
      (String.length header >= 3
      && String.split_on_char ',' header |> List.mem "BSD")
  | [] -> Alcotest.fail "empty csv");
  (* Every data row has the same arity as the header. *)
  let arity line = List.length (String.split_on_char ',' line) in
  match lines with
  | header :: rows ->
    List.iter
      (fun row_line ->
        Alcotest.(check int) "arity" (arity header) (arity row_line))
      rows
  | [] -> ()

let test_csv_escaping () =
  Alcotest.(check string) "plain" "abc" (Report.Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Report.Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Report.Csv.escape "a\"b");
  Alcotest.(check string) "newline" "\"a\nb\"" (Report.Csv.escape "a\nb")

let test_csv_rejects_mismatched_series () =
  let a = { Analysis.Comparison.label = "a"; points = [| (0.0, 1.0) |] } in
  let b =
    { Analysis.Comparison.label = "b"; points = [| (0.0, 1.0); (1.0, 2.0) |] }
  in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Csv.write_series: series lengths differ") (fun () ->
      ignore (Report.Csv.series_to_string [ a; b ]))

let test_table_rendering () =
  let rendered =
    Report.Table.render
      ~columns:
        Report.Table.[ column ~align:Left "name"; column "value" ]
      [ [ "alpha"; "1.00" ]; [ "beta-long-name"; "123.45" ] ]
  in
  let lines = String.split_on_char '\n' (String.trim rendered) in
  Alcotest.(check int) "four lines" 4 (List.length lines);
  (* All rows equally wide. *)
  (match lines with
  | first :: rest ->
    List.iter
      (fun line ->
        Alcotest.(check int) "width" (String.length first) (String.length line))
      rest
  | [] -> ());
  Alcotest.check_raises "row too wide"
    (Invalid_argument "Table.render: row wider than header") (fun () ->
      ignore
        (Report.Table.render
           ~columns:[ Report.Table.column "only" ]
           [ [ "a"; "b" ] ]))

let test_float_cell () =
  Alcotest.(check string) "two decimals" "3.14" (Report.Table.float_cell 3.14159);
  Alcotest.(check string) "nan" "-" (Report.Table.float_cell Float.nan);
  Alcotest.(check string) "decimals" "3.1416"
    (Report.Table.float_cell ~decimals:4 3.14159)

let test_ascii_plot_renders () =
  let series = [ Analysis.Comparison.figure4 () ] in
  let plot = Report.Ascii_plot.render ~title:"test" series in
  Alcotest.(check bool) "has title" true
    (String.length plot > 0 && String.sub plot 0 4 = "test");
  Alcotest.(check bool) "has glyphs" true (String.contains plot '*');
  Alcotest.(check string) "empty input" "(no data to plot)\n"
    (Report.Ascii_plot.render [])

(* ------------------------------------------------------------------ *)
(* Full trace pipeline: stack -> pcap -> parse -> demux                *)

let test_trace_pipeline () =
  let path = Filename.temp_file "tcpdemux_integration" ".pcap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let server_addr = addr 192 168 1 1 in
      let server = Tcpcore.Stack.create ~local_addr:server_addr () in
      Tcpcore.Stack.listen server ~port:8888 ~on_data:(fun _ _ _ -> ());
      let server_ep = Packet.Flow.endpoint server_addr 8888 in
      let oc = open_out_bin path in
      let writer = Packet.Pcap.create_writer oc in
      let time = ref 0.0 in
      for i = 0 to 9 do
        let syn =
          Packet.Segment.make
            ~src:(Packet.Flow.endpoint (addr 10 0 0 (i + 1)) (4000 + i))
            ~dst:server_ep ~flags:Packet.Tcp_header.flag_syn ()
        in
        let bytes = Packet.Segment.to_bytes syn in
        time := !time +. 0.01;
        Packet.Pcap.write_packet writer ~time:!time bytes;
        match Tcpcore.Stack.handle_bytes server bytes with
        | Ok () ->
          List.iter
            (fun reply ->
              time := !time +. 0.001;
              Packet.Pcap.write_packet writer ~time:!time
                (Packet.Segment.to_bytes reply))
            (Tcpcore.Stack.poll_output server)
        | Error e -> Alcotest.fail e
      done;
      close_out oc;
      let ic = open_in_bin path in
      let records =
        match Packet.Pcap.read_all ic with
        | Ok r -> r
        | Error e -> Alcotest.fail e
      in
      close_in ic;
      Alcotest.(check int) "20 packets traced" 20 (List.length records);
      (* Timestamps monotone; every record parses with valid checksums. *)
      let last = ref 0.0 in
      List.iter
        (fun record ->
          Alcotest.(check bool) "monotone time" true
            (record.Packet.Pcap.time >= !last);
          last := record.Packet.Pcap.time;
          match Packet.Segment.parse record.Packet.Pcap.data ~off:0 with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e)
        records)

(* Byte identity of the wire format: a fixed-seed conversation through
   the real stack (handshakes, requests and their replies, and a SYN to
   a closed port that draws a RST), with addresses on both sides of
   128.0.0.0 and the extreme ports, captured as pcap and digested.  Any
   change in how addresses, ports, sequence numbers, payloads or
   checksums reach the wire moves the digest. *)
let wire_trace_digest = "b11f093188ac0d5762b94a89cdbe0b15"

let test_wire_format_pinned () =
  let path = Filename.temp_file "tcpdemux_wire" ".pcap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let server_addr = addr 192 168 1 1 in
      let server =
        Tcpcore.Stack.create ~iss:Tcpcore.Stack.deterministic_iss
          ~local_addr:server_addr ()
      in
      Tcpcore.Stack.listen server ~port:8888 ~on_data:(fun t conn payload ->
          Tcpcore.Stack.send t conn ("OK " ^ payload));
      let server_ep = Packet.Flow.endpoint server_addr 8888 in
      let rng = Numerics.Rng.create ~seed:7 in
      let oc = open_out_bin path in
      let writer = Packet.Pcap.create_writer oc in
      let clock = ref 0.0 in
      let record segment =
        clock := !clock +. 0.0001;
        Packet.Pcap.write_packet writer ~time:!clock
          (Packet.Segment.to_bytes segment)
      in
      let inject segment =
        record segment;
        Tcpcore.Stack.handle_segment server segment;
        List.iter record (Tcpcore.Stack.poll_output server)
      in
      let ( +: ) a b = Int32.add a (Int32.of_int b) in
      for i = 0 to 15 do
        let first = if i land 1 = 0 then 10 else 128 + (8 * i) in
        let port =
          match i with
          | 0 -> 0
          | 1 -> 65535
          | _ -> 1024 + Numerics.Rng.int rng ~bound:64000
        in
        let client =
          Packet.Flow.endpoint
            (addr first (Numerics.Rng.int rng ~bound:256) 0 (i + 1))
            port
        in
        let c_iss = Int32.of_int (Numerics.Rng.int rng ~bound:0x3FFFFFFF) in
        let s_iss =
          Tcpcore.Stack.deterministic_iss
            (Packet.Flow.v ~local:server_ep ~remote:client)
        in
        let seg ?payload ?(dst = server_ep) ~flags ~seq ~ack () =
          Packet.Segment.make ?payload ~flags ~seq ~ack_number:ack ~src:client
            ~dst ()
        in
        inject (seg ~flags:Packet.Tcp_header.flag_syn ~seq:c_iss ~ack:0l ());
        inject
          (seg ~flags:Packet.Tcp_header.flag_ack ~seq:(c_iss +: 1)
             ~ack:(s_iss +: 1) ());
        inject
          (seg ~payload:(Printf.sprintf "TXN client=%d" i)
             ~flags:Packet.Tcp_header.flag_psh_ack ~seq:(c_iss +: 1)
             ~ack:(s_iss +: 1) ());
        if i = 3 then
          inject
            (seg
               ~dst:(Packet.Flow.endpoint server_addr 9999)
               ~flags:Packet.Tcp_header.flag_syn ~seq:c_iss ~ack:0l ())
      done;
      let packets = Packet.Pcap.packet_count writer in
      close_out oc;
      Alcotest.(check int) "packets captured" 98 packets;
      Alcotest.(check string) "pcap digest" wire_trace_digest
        (Digest.to_hex (Digest.file path)))

(* ------------------------------------------------------------------ *)
(* Analysis <-> simulation property                                    *)

let prop_sim_tracks_model_for_bsd =
  (* For random small populations, the simulated BSD cost lands within
     15% of Equation 1. *)
  QCheck.Test.make ~count:8 ~name:"simulated BSD within 15% of Eq 1"
    QCheck.(int_range 50 300)
    (fun users ->
      let params = Analysis.Tpca_params.v ~users () in
      let config = Sim.Tpca_workload.default_config ~duration:250.0 params in
      let report = Sim.Tpca_workload.run config Demux.Registry.Bsd in
      let ratio =
        report.Sim.Report.overall_mean /. Analysis.Bsd_model.cost params
      in
      ratio > 0.85 && ratio < 1.15)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_sim_tracks_model_for_bsd ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "integration"
    [ ( "paper-claims",
        [ Alcotest.test_case "paper operating point (N=2000)" `Slow
            test_paper_operating_point;
          Alcotest.test_case "algorithm ordering (headline)" `Slow
            test_algorithm_ordering_under_tpca;
          Alcotest.test_case "robust across hashes" `Slow
            test_every_hash_supports_sequent ] );
      ( "wire-level",
        [ Alcotest.test_case "OLTP through the stack, all algorithms" `Quick
            test_wire_oltp_all_algorithms;
          Alcotest.test_case "trace pipeline" `Quick test_trace_pipeline;
          Alcotest.test_case "wire format pinned" `Quick test_wire_format_pinned ] );
      ( "reporting",
        [ Alcotest.test_case "figures to CSV" `Quick test_csv_of_figures;
          Alcotest.test_case "CSV escaping" `Quick test_csv_escaping;
          Alcotest.test_case "CSV mismatch" `Quick test_csv_rejects_mismatched_series;
          Alcotest.test_case "table rendering" `Quick test_table_rendering;
          Alcotest.test_case "float cells" `Quick test_float_cell;
          Alcotest.test_case "ascii plot" `Quick test_ascii_plot_renders ] );
      ("properties", qcheck_cases) ]
