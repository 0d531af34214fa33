(** Connection identity: the 96-bit demultiplexing key.

    A flow names one TCP connection {e from the receiving host's point
    of view}: [local] is this host's address/port, [remote] the peer's.
    Every PCB-lookup algorithm in the library maps an inbound
    segment's flow to a PCB using exactly this key, which is the
    "source and destination Internet Protocol addresses and TCP ports
    [totalling] 96 bits" of the paper's introduction.

    The key is two immediate ints, one per endpoint:

    {v
      w0 = local  addr (32 bits) lsl 16  lor  local  port (16 bits)
      w1 = remote addr (32 bits) lsl 16  lor  remote port (16 bits)
    v}

    48 significant bits per word, so equality is two int compares and
    the hashed tables store the words inline.  Requires 63-bit native
    ints: loading this module where [Sys.int_size < 63] (32-bit,
    js_of_ocaml) raises [Failure] at startup instead of silently
    truncating addresses. *)

type endpoint = { addr : Ipv4.addr; port : int }

val endpoint : Ipv4.addr -> int -> endpoint
(** @raise Invalid_argument if the port is outside [0, 65535]. *)

val pp_endpoint : Format.formatter -> endpoint -> unit

val word : endpoint -> int
(** An endpoint's packed word, as it appears in [w0]/[w1]. *)

type t = private { w0 : int; w1 : int }

val v : local:endpoint -> remote:endpoint -> t

val make :
  local_addr:Ipv4.addr -> local_port:int -> remote_addr:Ipv4.addr ->
  remote_port:int -> t
(** [v] without building the endpoint records.
    @raise Invalid_argument if a port is outside [0, 65535]. *)

val of_words : w0:int -> w1:int -> t
(** Rebuild a key from words a table stored.
    @raise Invalid_argument if a word has bits above 48 set. *)

val of_headers : Ipv4.t -> Tcp_header.t -> t
(** The flow of a {e received} segment: local = (dst addr, dst port),
    remote = (src addr, src port). *)

val w0 : t -> int
val w1 : t -> int

val local : t -> endpoint
val remote : t -> endpoint

val addr_of_word : int -> Ipv4.addr
val port_of_word : int -> int

val equal : t -> t -> bool

val compare : t -> t -> int
(** Local endpoint first, then remote; within an endpoint the address
    as a signed 32-bit value ({!Ipv4.compare_addr}), then the port.
    Splay's tree shapes and the checker's flow sets follow this
    order. *)

val hash : t -> int
(** A hash consistent with {!equal}, for [Hashtbl.Make].  The
    demultiplexers hash with {!Hashing.Hashers} instead. *)

val reverse : t -> t
(** Swap local and remote — the flow of traffic in the other
    direction. *)

val to_key_bytes : t -> bytes
(** The canonical 12-byte (96-bit) wire-order key: local addr, remote
    addr, local port, remote port.  This is the byte string the
    {!Hashing} functions consume. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
