type t = { ip : Ipv4.t; tcp : Tcp_header.t; payload : string }

let build ?seq ?ack_number ?flags ?window ?options ?(payload = "") ?ttl
    ?identification ~src_addr ~src_port ~dst_addr ~dst_port () =
  let tcp =
    Tcp_header.make ?seq ?ack_number ?flags ?window ?options ~src_port
      ~dst_port ()
  in
  let tcp_len = Tcp_header.header_length tcp + String.length payload in
  let ip =
    Ipv4.make ?ttl ?identification ~src:src_addr ~dst:dst_addr
      ~protocol:Ipv4.Tcp ~payload_length:tcp_len ()
  in
  { ip; tcp; payload }

let make ?seq ?ack_number ?flags ?window ?options ?payload ?ttl
    ?identification ~(src : Flow.endpoint) ~(dst : Flow.endpoint) () =
  build ?seq ?ack_number ?flags ?window ?options ?payload ?ttl
    ?identification ~src_addr:src.Flow.addr ~src_port:src.Flow.port
    ~dst_addr:dst.Flow.addr ~dst_port:dst.Flow.port ()

let of_flow ?seq ?ack_number ?flags ?payload (flow : Flow.t) =
  build ?seq ?ack_number ?flags ?payload
    ~src_addr:(Flow.addr_of_word flow.Flow.w0)
    ~src_port:(Flow.port_of_word flow.Flow.w0)
    ~dst_addr:(Flow.addr_of_word flow.Flow.w1)
    ~dst_port:(Flow.port_of_word flow.Flow.w1) ()

let flow t = Flow.of_headers t.ip t.tcp
let length t = Ipv4.header_length + t.ip.Ipv4.payload_length

let write t buf ~off =
  Ipv4.serialize t.ip buf ~off;
  let pseudo_sum = Ipv4.pseudo_header_sum t.ip in
  let tcp_len =
    Tcp_header.serialize t.tcp ~pseudo_sum ~payload:t.payload buf
      ~off:(off + Ipv4.header_length)
  in
  Ipv4.header_length + tcp_len

let to_bytes t =
  let buf = Bytes.create (length t) in
  let written = write t buf ~off:0 in
  assert (written = Bytes.length buf);
  buf

(* Read only the five header fields a steering layer needs — version,
   IHL, protocol, addresses, ports — without checksum verification or
   payload copying.  This is the work a NIC's RSS engine does per
   packet; full validation stays with [parse] on the owning core. *)
let peek_flow buf ~off =
  let len = Bytes.length buf - off in
  if len < Ipv4.header_length + 4 then Error "segment: truncated datagram"
  else
    let first = Bytes.get_uint8 buf off in
    if first lsr 4 <> 4 then Error "ipv4: bad version"
    else
      let ihl = (first land 0xF) * 4 in
      if ihl < Ipv4.header_length then Error "ipv4: header too short"
      else if len < ihl + 4 then Error "segment: truncated datagram"
      else if Bytes.get_uint8 buf (off + 9) <> 6 then Error "segment: not TCP"
      else
        (* The receiver's key: local = destination, remote = source. *)
        Ok
          (Flow.make
             ~local_addr:(Ipv4.get_addr buf (off + 16))
             ~local_port:(Bytes.get_uint16_be buf (off + ihl + 2))
             ~remote_addr:(Ipv4.get_addr buf (off + 12))
             ~remote_port:(Bytes.get_uint16_be buf (off + ihl)))

let parse ?(verify_checksum = true) buf ~off =
  match Ipv4.parse buf ~off with
  | Error _ as e -> e
  | Ok (ip, tcp_off) ->
    if ip.Ipv4.protocol <> Ipv4.Tcp then Error "segment: not TCP"
    else if ip.Ipv4.more_fragments || ip.Ipv4.fragment_offset <> 0 then
      Error "segment: fragmented datagram"
    else
      let pseudo_sum =
        if verify_checksum then Some (Ipv4.pseudo_header_sum ip) else None
      in
      let tcp_len = ip.Ipv4.payload_length in
      (match Tcp_header.parse ?pseudo_sum ~len:tcp_len buf ~off:tcp_off with
      | Error _ as e -> e
      | Ok (tcp, payload_off) ->
        let payload_len = tcp_off + tcp_len - payload_off in
        let payload = Bytes.sub_string buf payload_off payload_len in
        Ok { ip; tcp; payload })

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@,%a payload=%d bytes@]" Ipv4.pp t.ip
    Tcp_header.pp t.tcp (String.length t.payload)
