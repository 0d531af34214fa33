(* Wire-format datagram traces for the four traffic shapes.

   Every trace is pure data generated from a seed before any stack
   exists: client addresses, ports, initial sequence numbers and
   payload bytes all come from the seeded generator, and the server's
   sequence numbers are known in advance because stacks are created
   with [Tcpcore.Stack.deterministic_iss].  A trace has a setup part
   (the handshakes that establish the population) and a steady part,
   one "pass", that the replay repeats for as long as it measures. *)

type kind = Syn | Hs_ack | Request | Fin_ack

type t = {
  population : int;        (** Connections established by [setup]. *)
  setup : bytes array;
  setup_kinds : kind array;
  steady : bytes array;    (** One pass. *)
  steady_kinds : kind array;
  seq_step : int;
      (** Client sequence advance per pass: before the next pass every
          steady datagram's sequence number moves on by this much
          ({!advance}).  0 when each pass is self-contained. *)
  payload_per_pass : int;  (** Request bytes per flow per pass. *)
  closes : bool;           (** The server closes after each request. *)
  clock_every : int;       (** [advance_clock] every n datagrams; 0 = never. *)
  clock_step : float;      (** Virtual seconds per datagram. *)
  time_wait : float;       (** 2MSL reaping delay. *)
}

let server_addr = Packet.Ipv4.addr_of_octets 192 168 1 1
let server_port = 8888
let server = Packet.Flow.endpoint server_addr server_port

(* [n] distinct client endpoints drawn from 10.0.0.0/8. *)
let clients rng n =
  let seen = Hashtbl.create (2 * n) in
  Array.init n (fun _ ->
      let rec draw () =
        let a = Numerics.Rng.int rng ~bound:0xFFFFFF in
        let port = 1024 + Numerics.Rng.int rng ~bound:(65536 - 1024) in
        if Hashtbl.mem seen (a, port) then draw ()
        else begin
          Hashtbl.add seen (a, port) ();
          Packet.Flow.endpoint
            (Packet.Ipv4.addr_of_octets 10 (a lsr 16) ((a lsr 8) land 0xFF)
               (a land 0xFF))
            port
        end
      in
      draw ())

let random_payload rng n =
  String.init n (fun _ -> Char.chr (Numerics.Rng.int rng ~bound:256))

(* One client's connection: the segments it can send, with sequence
   numbers that the server (ISS = deterministic_iss) will accept. *)
type conn = { src : Packet.Flow.endpoint; c_iss : int32; s_iss : int32 }

let conn rng src =
  let flow = Packet.Flow.v ~local:server ~remote:src in
  { src; c_iss = Int64.to_int32 (Numerics.Rng.bits64 rng);
    s_iss = Tcpcore.Stack.deterministic_iss flow }

let datagram c ~flags ~seq ~ack ?payload () =
  Packet.Segment.to_bytes
    (Packet.Segment.make ?payload ~flags ~seq ~ack_number:ack ~src:c.src
       ~dst:server ())

let ( +: ) a b = Int32.add a (Int32.of_int b)
let syn c = datagram c ~flags:Packet.Tcp_header.flag_syn ~seq:c.c_iss ~ack:0l ()

let hs_ack c =
  datagram c ~flags:Packet.Tcp_header.flag_ack ~seq:(c.c_iss +: 1)
    ~ack:(c.s_iss +: 1) ()

(* Request [k] of a connection whose requests are [size] bytes. *)
let request rng c ~size k =
  datagram c ~flags:Packet.Tcp_header.flag_psh_ack
    ~seq:(c.c_iss +: (1 + (k * size)))
    ~ack:(c.s_iss +: 1)
    ~payload:(random_payload rng size) ()

(* The client's FIN, acknowledging the server's FIN that followed one
   [size]-byte request. *)
let fin_ack c ~size =
  datagram c ~flags:Packet.Tcp_header.flag_fin_ack
    ~seq:(c.c_iss +: (1 + size))
    ~ack:(c.s_iss +: 2) ()

let handshakes conns =
  ( Array.append (Array.map syn conns) (Array.map hs_ack conns),
    Array.append
      (Array.map (fun _ -> Syn) conns)
      (Array.map (fun _ -> Hs_ack) conns) )

let established ~rng ~conns:n ~steady ~seq_step ~payload_per_pass =
  let conns = Array.map (conn rng) (clients rng n) in
  let setup, setup_kinds = handshakes conns in
  let steady = steady conns in
  { population = n; setup; setup_kinds; steady;
    steady_kinds = Array.map (fun _ -> Request) steady; seq_step;
    payload_per_pass; closes = false; clock_every = 0; clock_step = 0.0;
    time_wait = 60.0 }

(* Round-robin rounds: request r of every connection, then r + 1. *)
let rounds rng ~size ~rounds conns =
  let n = Array.length conns in
  Array.init (rounds * n) (fun i ->
      request rng conns.(i mod n) ~size (i / n))

(* TPC/A: 4096 connections, one 64-byte request each per round, no
   packet trains. *)
let oltp rng =
  let r = 8 and size = 64 in
  established ~rng ~conns:4096
    ~steady:(rounds rng ~size ~rounds:r) ~seq_step:(r * size)
    ~payload_per_pass:(r * size)

(* Bulk transfer: 16 connections, each sending a train of 64
   full-sized segments in turn. *)
let bulk rng =
  let train = 64 and size = 1460 in
  established ~rng ~conns:16
    ~steady:(fun conns ->
      let n = Array.length conns in
      Array.init (n * train) (fun i ->
          request rng conns.(i / train) ~size (i mod train)))
    ~seq_step:(train * size) ~payload_per_pass:(train * size)

(* Short connections ending in server TIME-WAIT.  [slots] connections
   are in flight; each generation every slot runs one connection
   through four rounds — SYN, handshake ACK, one request (which the
   server answers by closing), FIN+ACK — and the slot then starts a
   new connection with a new 4-tuple.  A pass is [generations]
   generations; 4-tuples repeat from pass to pass, long after their
   TIME-WAIT has been reaped.  One datagram is one virtual
   millisecond, the timer wheel is driven once per round, and 2MSL is
   a little under one generation, so the TIME-WAIT population stays
   about the size of the in-flight set. *)
let churn rng =
  let slots = 256 and generations = 16 and size = 64 in
  let generation conns =
    let phase = function
      | 0 -> (syn, Syn)
      | 1 -> (hs_ack, Hs_ack)
      | 2 -> ((fun c -> request rng c ~size 0), Request)
      | _ -> ((fun c -> fin_ack c ~size), Fin_ack)
    in
    List.concat_map
      (fun p ->
        let mk, kind = phase p in
        Array.to_list (Array.map (fun c -> (mk c, kind)) conns))
      [ 0; 1; 2; 3 ]
  in
  let all = Array.map (conn rng) (clients rng (slots * (generations + 1))) in
  let gen g = Array.sub all (g * slots) slots in
  let split l = (Array.of_list (List.map fst l), Array.of_list (List.map snd l)) in
  let setup, setup_kinds = split (generation (gen generations)) in
  let steady, steady_kinds =
    split (List.concat_map (fun g -> generation (gen g)) (List.init generations Fun.id))
  in
  { population = 0; setup; setup_kinds; steady;
    steady_kinds; seq_step = 0; payload_per_pass = size; closes = true;
    clock_every = slots; clock_step = 0.001; time_wait = 1.0 }

let workloads = [ "oltp-4k"; "bulk-trains"; "churn-tw" ]

let generate ~seed name =
  let rng = Numerics.Rng.create ~seed in
  match name with
  | "oltp-4k" -> Some (oltp rng)
  | "bulk-trains" -> Some (bulk rng)
  | "churn-tw" -> Some (churn rng)
  | _ -> None

(* One's-complement update of the TCP sequence number of an IPv4
   datagram without options (RFC 1624, eqn. 3): the checksum stays
   valid without re-summing the segment. *)
let add_seq buf delta =
  let tcp = 20 in
  let old = Bytes.get_int32_be buf (tcp + 4) in
  let next = Int32.add old (Int32.of_int delta) in
  Bytes.set_int32_be buf (tcp + 4) next;
  let fold s = (s land 0xFFFF) + (s lsr 16) in
  let words x =
    let x = Int32.to_int x land 0xFFFFFFFF in
    (x lsr 16, x land 0xFFFF)
  in
  let oh, ol = words old and nh, nl = words next in
  let hc = Bytes.get_uint16_be buf (tcp + 16) in
  let sum =
    (lnot hc land 0xFFFF) + (lnot oh land 0xFFFF) + (lnot ol land 0xFFFF)
    + nh + nl
  in
  Bytes.set_uint16_be buf (tcp + 16) (lnot (fold (fold sum)) land 0xFFFF)

(* Move the steady part on to the next pass. *)
let advance t =
  if t.seq_step <> 0 then Array.iter (fun b -> add_seq b t.seq_step) t.steady

let copy t = { t with steady = Array.map Bytes.copy t.steady }
