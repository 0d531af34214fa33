(* Unchecked 64-bit load in the machine's byte order; only used after
   the region check below has covered every byte it reads. *)
external unsafe_get_int64_ne : bytes -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* Fold carries until the sum fits in 16 bits. *)
let fold sum =
  let s = ref sum in
  while !s lsr 16 <> 0 do
    s := (!s land 0xFFFF) + (!s lsr 16)
  done;
  !s

let ones_complement_sum ?(initial = 0) buf ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Checksum.ones_complement_sum: region out of range";
  (* Sum 16 bytes per step as four 32-bit little-endian halves, with the
     carries left in the high bits of the 63-bit int (DESIGN §5). *)
  let wide_stop = off + (len land lnot 15) in
  let wide = ref 0 in
  let i = ref off in
  while !i < wide_stop do
    let a = unsafe_get_int64_ne buf !i in
    let b = unsafe_get_int64_ne buf (!i + 8) in
    let a = if Sys.big_endian then swap64 a else a in
    let b = if Sys.big_endian then swap64 b else b in
    wide :=
      !wide
      + (Int64.to_int a land 0xFFFF_FFFF)
      + Int64.to_int (Int64.shift_right_logical a 32)
      + (Int64.to_int b land 0xFFFF_FFFF)
      + Int64.to_int (Int64.shift_right_logical b 32);
    i := !i + 16
  done;
  (* Fold to 16 bits, then swap back to network order (RFC 1071 §2). *)
  let w = fold !wide in
  let sum = ref (initial + ((w land 0xFF) lsl 8) + (w lsr 8)) in
  let stop = off + len in
  while !i + 1 < stop do
    sum := !sum + Bytes.get_uint16_be buf !i;
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (Bytes.get_uint8 buf !i lsl 8);
  !sum

let finish sum = lnot (fold sum) land 0xFFFF

let compute ?initial buf ~off ~len =
  finish (ones_complement_sum ?initial buf ~off ~len)

let verify ?initial buf ~off ~len =
  finish (ones_complement_sum ?initial buf ~off ~len) = 0
