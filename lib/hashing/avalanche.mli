(** Avalanche analysis: how well single-bit input changes diffuse into
    output bits.

    A good mixing hash flips each output bit with probability ~1/2
    when any single input bit flips; folding hashes flip exactly the
    bits the input bit maps onto.  Poor avalanche means correlated key
    bits can cancel, as they do under xor-fold and the multiplicative
    hash's XOR pre-fold. *)

type report = {
  output_bits : int;      (** Width examined (low bits of the hash). *)
  trials : int;           (** Input-bit flips performed. *)
  mean_flip_rate : float; (** Mean fraction of output bits flipped;
                              ideal 0.5. *)
  worst_bit_rate : float; (** The input bit with the least effect:
                              its output-flip fraction (0 = some input
                              bit never changes the output). *)
}

val measure :
  ?keys:int -> ?key_length:int -> ?output_bits:int -> Hashers.t -> report
(** Flip every bit of [keys] random keys of [key_length] bytes
    (defaults: 64 keys of 12 bytes, 16 output bits) and summarise.
    Deterministic (fixed internal seed).
    @raise Invalid_argument on non-positive sizes. *)

val pp_report : Format.formatter -> report -> unit
