(** IPv4 addresses and headers (RFC 791).

    The demultiplexing key the paper analyses is the 96-bit
    (source address, destination address, source port, destination
    port) tuple; the address half comes from this header. *)

(** {1 Addresses} *)

type addr = private int
(** An IPv4 address as an immediate in [0, 2{^32}-1], e.g. 10.0.0.1 is
    [0x0A000001]. *)

val addr_of_int : int -> addr
(** @raise Invalid_argument if the int is outside [0, 2{^32}-1]. *)

val addr_of_octets : int -> int -> int -> int -> addr
(** [addr_of_octets a b c d] is the address [a.b.c.d].
    @raise Invalid_argument if any octet is outside [0, 255]. *)

val addr_of_string : string -> (addr, string) result
(** Parse dotted-quad notation: four octets of 1 to 3 decimal digits
    each (see {!decimal}). *)

val decimal : max_digits:int -> string -> int option
(** [decimal ~max_digits s] reads 1 to [max_digits] ASCII decimal
    digits and nothing else, so a sign, an underscore or a radix
    prefix ([0x], [0o], [0b]) is rejected. *)

val addr_to_string : addr -> string
val pp_addr : Format.formatter -> addr -> unit
val equal_addr : addr -> addr -> bool

val compare_addr : addr -> addr -> int
(** Orders addresses as signed 32-bit values, so 128.0.0.0 and above
    sort before 0.0.0.0. *)

val get_addr : bytes -> int -> addr
(** The big-endian address at a byte offset.
    @raise Invalid_argument if the 4 bytes are out of bounds. *)

val set_addr : bytes -> int -> addr -> unit
(** Write an address big-endian at a byte offset.
    @raise Invalid_argument if the 4 bytes are out of bounds. *)

(** {1 Header} *)

type protocol = Tcp | Udp | Icmp | Other of int

val protocol_to_int : protocol -> int
val protocol_of_int : int -> protocol
val pp_protocol : Format.formatter -> protocol -> unit

type t = {
  tos : int;                (** Type of service. *)
  identification : int;     (** Fragment identification. *)
  dont_fragment : bool;
  more_fragments : bool;
  fragment_offset : int;    (** In 8-byte units. *)
  ttl : int;
  protocol : protocol;
  src : addr;
  dst : addr;
  payload_length : int;     (** Bytes following the (option-free) header. *)
}
(** A parsed IPv4 header.  We do not model IP options: no 1992 TCP
    fast path did either (options forced the slow path), and the
    demultiplexing question is unaffected. *)

val header_length : int
(** Serialized size: 20 bytes (IHL = 5, no options). *)

val make :
  ?tos:int -> ?identification:int -> ?dont_fragment:bool -> ?ttl:int ->
  src:addr -> dst:addr -> protocol:protocol -> payload_length:int -> unit -> t
(** Header for an unfragmented datagram.  Defaults: [tos = 0],
    [identification = 0], [dont_fragment = true], [ttl = 64].
    @raise Invalid_argument if a field is out of range. *)

val serialize : t -> bytes -> off:int -> unit
(** Write 20 bytes at [off], computing the header checksum.
    @raise Invalid_argument if the buffer is too small. *)

val parse : bytes -> off:int -> (t * int, string) result
(** Parse a header at [off]; on success returns the header and the
    offset of the payload.  Rejects bad version, truncated buffers,
    IHL < 5 and checksum mismatch.  Headers with options are accepted
    (options skipped). *)

val pseudo_header_sum : t -> int
(** One's-complement sum of the TCP pseudo-header (src, dst, protocol,
    TCP length) for this datagram, to seed the TCP checksum. *)

val pp : Format.formatter -> t -> unit
