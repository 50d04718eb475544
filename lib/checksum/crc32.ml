open Bufkit

(* Built eagerly: [lazy] is not safe to force from two domains at once
   (the second forcer can observe [CamlinternalLazy.Undefined]), and CRC32
   runs on stage-2 worker domains. 256 table entries cost nothing at
   start-up. *)
let table =
  let t = Array.make 256 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  t

(* Slicing-by-8 (Intel's extension of Sarwate's algorithm): seven more
   tables where [tk.(b)] is the register effect of byte [b] followed by
   [k] zero bytes, so one 64-bit load advances the CRC with eight
   independent lookups instead of eight chained byte steps. This is what
   lets the fused ILP word loop keep a CRC stage at word speed. *)
let table1, table2, table3, table4, table5, table6, table7 =
  let next t8 prev =
    let t = Array.make 256 0 in
    for n = 0 to 255 do
      t.(n) <- t8.(prev.(n) land 0xff) lxor (prev.(n) lsr 8)
    done;
    t
  in
  let t1 = next table table in
  let t2 = next table t1 in
  let t3 = next table t2 in
  let t4 = next table t3 in
  let t5 = next table t4 in
  let t6 = next table t5 in
  let t7 = next table t6 in
  (t1, t2, t3, t4, t5, t6, t7)

type state = int

let init = 0xFFFFFFFF

let feed_byte st b =
  let t = table in
  t.((st lxor (b land 0xff)) land 0xff) lxor (st lsr 8)

let[@inline] feed_word64le st w =
  (* XOR the register into the low 32 bits of the word, then slice: byte
     k of the result is followed by 7-k more bytes of this word. *)
  let lo = Int64.to_int (Int64.logand w 0xFFFFFFFFL) lxor st in
  let hi = Int64.to_int (Int64.shift_right_logical w 32) land 0xFFFFFFFF in
  Array.unsafe_get table7 (lo land 0xff)
  lxor Array.unsafe_get table6 ((lo lsr 8) land 0xff)
  lxor Array.unsafe_get table5 ((lo lsr 16) land 0xff)
  lxor Array.unsafe_get table4 ((lo lsr 24) land 0xff)
  lxor Array.unsafe_get table3 (hi land 0xff)
  lxor Array.unsafe_get table2 ((hi lsr 8) land 0xff)
  lxor Array.unsafe_get table1 ((hi lsr 16) land 0xff)
  lxor Array.unsafe_get table ((hi lsr 24) land 0xff)

(* Block-grain feed for the fused ILP flush: eight sliced word steps in
   one call, so the caller pays one cross-module dispatch per 64 bytes
   instead of one per word. *)
let feed_block64 st bytes off =
  let st = feed_word64le st (Bytes.get_int64_le bytes off) in
  let st = feed_word64le st (Bytes.get_int64_le bytes (off + 8)) in
  let st = feed_word64le st (Bytes.get_int64_le bytes (off + 16)) in
  let st = feed_word64le st (Bytes.get_int64_le bytes (off + 24)) in
  let st = feed_word64le st (Bytes.get_int64_le bytes (off + 32)) in
  let st = feed_word64le st (Bytes.get_int64_le bytes (off + 40)) in
  let st = feed_word64le st (Bytes.get_int64_le bytes (off + 48)) in
  feed_word64le st (Bytes.get_int64_le bytes (off + 56))

let feed_sub st buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytebuf.length buf then
    raise
      (Bytebuf.Bounds
         (Printf.sprintf "Crc32.feed_sub: pos=%d len=%d in slice of %d" pos
            len (Bytebuf.length buf)));
  let t = table in
  let bytes = Bytebuf.storage buf and base = Bytebuf.offset buf in
  let st = ref st in
  let i = ref pos in
  let word_end = pos + (len land lnot 7) in
  while !i < word_end do
    st := feed_word64le !st (Bytes.get_int64_le bytes (base + !i));
    i := !i + 8
  done;
  while !i < pos + len do
    let b = Char.code (Bytes.unsafe_get bytes (base + !i)) in
    st := t.((!st lxor b) land 0xff) lxor (!st lsr 8);
    incr i
  done;
  !st

let feed st buf = feed_sub st buf ~pos:0 ~len:(Bytebuf.length buf)
let finish_int st = (st lxor 0xFFFFFFFF) land 0xFFFFFFFF
let finish st = Int32.of_int (finish_int st)
let digest buf = finish (feed init buf)
let digest_string s = digest (Bytebuf.of_string s)

(* CRC concatenation without re-reading either input, via the standard
   GF(2) matrix trick (same construction as zlib's crc32_combine): the
   effect on the CRC register of appending one zero {e bit} is a linear
   map over GF(2); squaring it repeatedly gives the map for 2^k zero
   bytes, and applying the maps selected by the bits of [len2] shifts
   [crc1] past [len2] bytes of zeros, after which the CRC of the
   concatenation is that result xor [crc2]. This is what lets a fused
   send path compute the payload CRC once, in the marshalling loop, and
   still produce header-spanning digests without touching the payload
   again. *)

let gf2_times mat vec =
  let sum = ref 0 in
  let v = ref vec in
  let i = ref 0 in
  while !v <> 0 do
    if !v land 1 = 1 then sum := !sum lxor mat.(!i);
    v := !v lsr 1;
    incr i
  done;
  !sum

let gf2_square dst mat =
  for n = 0 to 31 do
    dst.(n) <- gf2_times mat mat.(n)
  done

let combine crc1 crc2 len2 =
  (* Appending zero bytes is the identity map on the register, but the
     second digest must still be folded in: [crc2] of the empty string is
     0, so for a genuinely empty suffix this is [crc1] — and for a
     non-empty digest spliced at a zero-length offset (empty-payload ADU
     seals), dropping [crc2] would silently corrupt the composition. *)
  if len2 <= 0 then Int32.logxor crc1 crc2
  else begin
    let odd = Array.make 32 0 and even = Array.make 32 0 in
    (* Operator for one zero bit (reflected polynomial). *)
    odd.(0) <- 0xEDB88320;
    let row = ref 1 in
    for n = 1 to 31 do
      odd.(n) <- !row;
      row := !row lsl 1
    done;
    gf2_square even odd;
    (* even = 2 zero bits *)
    gf2_square odd even;
    (* odd = 4 zero bits *)
    let crc = ref (Int32.to_int crc1 land 0xFFFFFFFF) in
    let len = ref len2 in
    let continue = ref true in
    while !continue do
      gf2_square even odd;
      if !len land 1 = 1 then crc := gf2_times even !crc;
      len := !len lsr 1;
      if !len = 0 then continue := false
      else begin
        gf2_square odd even;
        if !len land 1 = 1 then crc := gf2_times odd !crc;
        len := !len lsr 1;
        if !len = 0 then continue := false
      end
    done;
    Int32.of_int ((!crc lxor (Int32.to_int crc2 land 0xFFFFFFFF)) land 0xFFFFFFFF)
  end
