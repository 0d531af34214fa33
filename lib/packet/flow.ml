(* The packing needs 48 significant bits per word.  On a platform with
   31- or 32-bit native ints the [lsl 16] would silently truncate the
   address, so refuse to start rather than mis-demultiplex: every table
   in lib/demux keys on these words. *)
let () =
  if Sys.int_size < 63 then
    failwith
      (Printf.sprintf
         "Flow: packed 48-bit flow words require 63-bit native ints, but \
          Sys.int_size = %d on this platform (32-bit and js_of_ocaml \
          runtimes are unsupported)"
         Sys.int_size)

type endpoint = { addr : Ipv4.addr; port : int }

let check_port fn port =
  if port < 0 || port > 0xFFFF then invalid_arg (fn ^ ": bad port")

let endpoint addr port =
  check_port "Flow.endpoint" port;
  { addr; port }

let pp_endpoint ppf e = Format.fprintf ppf "%a:%d" Ipv4.pp_addr e.addr e.port

type t = { w0 : int; w1 : int }

(* The one place an address and a port become a key word. *)
let pack (addr : Ipv4.addr) port = ((addr :> int) lsl 16) lor port
let word e = pack e.addr e.port
let v ~local ~remote = { w0 = word local; w1 = word remote }

let make ~local_addr ~local_port ~remote_addr ~remote_port =
  check_port "Flow.make" local_port;
  check_port "Flow.make" remote_port;
  { w0 = pack local_addr local_port; w1 = pack remote_addr remote_port }

let of_words ~w0 ~w1 =
  if (w0 lor w1) lsr 48 <> 0 then
    invalid_arg "Flow.of_words: word above 48 bits";
  { w0; w1 }

let of_headers (ip : Ipv4.t) (tcp : Tcp_header.t) =
  { w0 = pack ip.Ipv4.dst tcp.Tcp_header.dst_port;
    w1 = pack ip.Ipv4.src tcp.Tcp_header.src_port }

let w0 t = t.w0
let w1 t = t.w1
let addr_of_word w = Ipv4.addr_of_int (w lsr 16)
let port_of_word w = w land 0xFFFF
let endpoint_of_word w = { addr = addr_of_word w; port = port_of_word w }
let local t = endpoint_of_word t.w0
let remote t = endpoint_of_word t.w1
let equal a b = a.w0 = b.w0 && a.w1 = b.w1

(* Flipping an address's top bit (bit 47 of its word) maps the signed
   32-bit address order onto the words' int order, port breaking
   ties. *)
let sign = 1 lsl 47

let compare a b =
  let c = Int.compare (a.w0 lxor sign) (b.w0 lxor sign) in
  if c <> 0 then c else Int.compare (a.w1 lxor sign) (b.w1 lxor sign)

let hash t = Hashtbl.hash ((t.w0 * 0x9E3779B1) lxor t.w1)
let reverse t = { w0 = t.w1; w1 = t.w0 }

let to_key_bytes t =
  let buf = Bytes.create 12 in
  Ipv4.set_addr buf 0 (addr_of_word t.w0);
  Ipv4.set_addr buf 4 (addr_of_word t.w1);
  Bytes.set_uint16_be buf 8 (port_of_word t.w0);
  Bytes.set_uint16_be buf 10 (port_of_word t.w1);
  buf

let pp ppf t =
  Format.fprintf ppf "%a <- %a" pp_endpoint (local t) pp_endpoint (remote t)

let to_string t = Format.asprintf "%a" pp t
