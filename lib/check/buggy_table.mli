(** {!Demux.Packed_table.Heap} with a planted bug, for proving the
    fuzzer's teeth.

    Everything is the real engine except [remove], which empties the
    victim's live-region slot instead of backward-shifting its
    displaced successors.  The hole it leaves terminates later probe
    sequences early, so entries that were pushed past the deleted slot
    become unreachable: lookups miss residents and [iter] still sees
    them, exactly the membership corruption the differential oracle's
    content audit describes.

    Test-only: nothing outside [test/] should depend on this module.
    Its surface is {!Subject.INDEX}, so [Subject.of_index] adapts it
    straight into the harness. *)

type t

val create : unit -> t
val length : t -> int
val find_opt : t -> w0:int -> w1:int -> int option
val mem : t -> w0:int -> w1:int -> bool
val replace : t -> w0:int -> w1:int -> int -> unit

val remove : t -> w0:int -> w1:int -> unit
(** The bug: clears a live-region slot without the backward shift. *)

val iter : (w0:int -> w1:int -> int -> unit) -> t -> unit
