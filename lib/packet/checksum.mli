(** RFC 1071 Internet checksum (16-bit one's-complement sum). *)

val ones_complement_sum : ?initial:int -> bytes -> off:int -> len:int -> int
(** Running 16-bit one's-complement sum (not yet complemented) of
    [len] bytes starting at [off]; odd trailing byte is padded with
    zero, per RFC 1071.  [initial] chains partial sums (e.g. a
    pseudo-header) and must be non-negative.

    The result is defined only modulo 0xFFFF (and is zero only when
    [initial] and every byte are zero): its exact value depends on how
    the sum was grouped, so callers must only pass it to {!finish} or
    on as [initial].  Sums 16 bytes per step; see DESIGN §5.
    @raise Invalid_argument on out-of-range [off]/[len]. *)

val finish : int -> int
(** Fold carries and complement a running sum into the on-wire 16-bit
    checksum value. *)

val compute : ?initial:int -> bytes -> off:int -> len:int -> int
(** [finish (ones_complement_sum ...)]. *)

val verify : ?initial:int -> bytes -> off:int -> len:int -> bool
(** True when the region (which must include its embedded checksum
    field) sums to the all-ones pattern, i.e. the checksum is valid. *)
