let marker = "CLOSE"

let close_on_marker t conn payload =
  if String.equal payload marker then Tcpcore.Stack.close t conn

type expectation = {
  flow : Packet.Flow.t;
  state : Tcpcore.State.t;
  bytes_in : int;
}

type lowered = {
  datagrams : bytes array;
  expectations : expectation list;
  opened : int;
  closed : int;
  probes : int;
  payload_bytes : int;
}

(* Per-flow client state while walking the program.  [sent] counts
   payload bytes (data + marker) so the next seq is always
   c_iss + 1 + sent, plus one more once the FIN has gone out. *)
type fstate = {
  mutable sent : int;
  mutable data_segs : int;
  mutable fin_sent : bool;
  mutable probe : Packet.Segment.t option;
}

let lower ?(payload = 64) (prog : Op.t) =
  if payload <= 0 then invalid_arg "Smp_trace.lower: payload <= 0";
  let tbl : fstate Demux.Flow_table.t = Demux.Flow_table.create 64 in
  let order = ref [] in
  let segs = ref [] in
  let opened = ref 0 and closed = ref 0 and probes = ref 0 in
  let payload_bytes = ref 0 in
  let error = ref None in
  let fail i kind msg =
    if !error = None then
      error := Some (Printf.sprintf "op %d (%s): %s" i kind msg)
  in
  Array.iteri
    (fun i { Op.kind; flow } ->
      if !error = None then begin
        let src = Packet.Flow.remote flow and dst = Packet.Flow.local flow in
        let seg ?payload ~flags ~seq ~ack_number () =
          Packet.Segment.make ?payload ~flags ~seq ~ack_number ~src ~dst ()
        in
        let push s = segs := s :: !segs in
        let c_iss =
          Tcpcore.Stack.deterministic_iss (Packet.Flow.reverse flow)
        in
        let s_iss = Tcpcore.Stack.deterministic_iss flow in
        let c_seq st =
          Int32.add c_iss
            (Int32.of_int (1 + st.sent + if st.fin_sent then 1 else 0))
        in
        let st = Demux.Flow_table.find_opt tbl flow in
        match (kind, st) with
        | Op.Insert, Some _ -> fail i "I" "Insert on an already-open flow"
        | Op.Insert, None ->
          Demux.Flow_table.replace tbl flow
            { sent = 0; data_segs = 0; fin_sent = false; probe = None };
          order := flow :: !order;
          incr opened;
          push (seg ~flags:Packet.Tcp_header.flag_syn ~seq:c_iss ~ack_number:0l ());
          push
            (seg ~flags:Packet.Tcp_header.flag_ack ~seq:(Int32.add c_iss 1l)
               ~ack_number:(Int32.add s_iss 1l) ())
        | ((Op.Lookup | Op.Ack_lookup | Op.Remove | Op.Send) as k), None ->
          let letter =
            match k with
            | Op.Lookup -> "L"
            | Op.Ack_lookup -> "A"
            | Op.Remove -> "R"
            | Op.Send -> "S"
            | Op.Insert -> assert false
          in
          fail i letter "operation on a flow never inserted"
        | Op.Lookup, Some st ->
          if st.fin_sent then fail i "L" "Lookup after Remove"
          else begin
            let fill =
              String.make payload
                (Char.chr (Char.code 'a' + (st.data_segs mod 26)))
            in
            push
              (seg ~payload:fill ~flags:Packet.Tcp_header.flag_psh_ack
                 ~seq:(c_seq st) ~ack_number:(Int32.add s_iss 1l) ());
            st.sent <- st.sent + payload;
            st.data_segs <- st.data_segs + 1;
            payload_bytes := !payload_bytes + payload
          end
        | Op.Ack_lookup, Some st ->
          (* Pure ACK; after Remove it acks the server's FIN too. *)
          let ack = Int32.add s_iss (if st.fin_sent then 2l else 1l) in
          push
            (seg ~flags:Packet.Tcp_header.flag_ack ~seq:(c_seq st)
               ~ack_number:ack ())
        | Op.Remove, Some st ->
          if st.fin_sent then fail i "R" "Remove of an already-closed flow"
          else begin
            (* Marker data: the server app closes on delivery, emitting
               its FIN (snd_nxt -> s_iss + 2)... *)
            push
              (seg ~payload:marker ~flags:Packet.Tcp_header.flag_psh_ack
                 ~seq:(c_seq st) ~ack_number:(Int32.add s_iss 1l) ());
            st.sent <- st.sent + String.length marker;
            payload_bytes := !payload_bytes + String.length marker;
            (* ... and the client's FIN+ACK acks that FIN, so the server
               goes Fin_wait_1 -> Time_wait in one hop. *)
            let fin =
              seg ~flags:Packet.Tcp_header.flag_fin_ack ~seq:(c_seq st)
                ~ack_number:(Int32.add s_iss 2l) ()
            in
            push fin;
            st.fin_sent <- true;
            st.probe <- Some fin;
            incr closed
          end
        | Op.Send, Some st -> (
          match st.probe with
          | None -> fail i "S" "duplicate-FIN probe before Remove"
          | Some fin ->
            push fin;
            incr probes)
      end)
    prog.Op.ops;
  match !error with
  | Some e -> Error e
  | None ->
    let expectations =
      List.rev_map
        (fun flow ->
          let st = Demux.Flow_table.find tbl flow in
          { flow;
            state =
              (if st.fin_sent then Tcpcore.State.Time_wait
               else Tcpcore.State.Established);
            bytes_in = st.sent })
        !order
    in
    Ok
      { datagrams =
          Array.of_list (List.rev_map Packet.Segment.to_bytes !segs);
        expectations;
        opened = !opened;
        closed = !closed;
        probes = !probes;
        payload_bytes = !payload_bytes }
