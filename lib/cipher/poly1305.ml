open Bufkit

(* RFC 8439 Poly1305 in 5 x 26-bit limbs (poly1305-donna-32 shape).

   Every partial product is bounded by 2^27 * 5*2^26 < 2^56 and the
   five-term sums stay under 2^59, so the whole accumulator lives in
   OCaml's 63-bit native ints — no Int64 boxing, no allocation per block.
   Input arrives through a 24-byte staging buffer so 64-bit word feeds
   (the fused loop's unit) and byte tails mix freely; a block is folded
   the moment 16 bytes are resident. *)

let m26 = 0x3FFFFFF

type t = {
  r0 : int;
  r1 : int;
  r2 : int;
  r3 : int;
  r4 : int; (* clamped r, 26-bit limbs *)
  rr1 : int;
  rr2 : int;
  rr3 : int;
  rr4 : int; (* 5*r1 .. 5*r4, for the mod 2^130-5 fold *)
  s0 : int;
  s1 : int;
  s2 : int;
  s3 : int; (* the added-at-the-end s half, u32 words *)
  mutable h0 : int;
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
  buf : Bytes.t; (* 24 bytes: <= 15 resident + one whole 8-byte word *)
  mutable buf_len : int;
}

let lo32 x = Int64.to_int (Int64.logand x 0xFFFFFFFFL)
let hi32 x = Int64.to_int (Int64.logand (Int64.shift_right_logical x 32) 0xFFFFFFFFL)

let create ~k0 ~k1 ~k2 ~k3 =
  (* r is clamped per RFC 8439 §2.5: top 4 bits of each u32 clear, bottom
     2 bits of the upper three u32s clear. *)
  let t0 = lo32 k0 land 0x0FFFFFFF in
  let t1 = hi32 k0 land 0x0FFFFFFC in
  let t2 = lo32 k1 land 0x0FFFFFFC in
  let t3 = hi32 k1 land 0x0FFFFFFC in
  let r0 = t0 land m26 in
  let r1 = ((t0 lsr 26) lor (t1 lsl 6)) land m26 in
  let r2 = ((t1 lsr 20) lor (t2 lsl 12)) land m26 in
  let r3 = ((t2 lsr 14) lor (t3 lsl 18)) land m26 in
  let r4 = t3 lsr 8 in
  {
    r0;
    r1;
    r2;
    r3;
    r4;
    rr1 = 5 * r1;
    rr2 = 5 * r2;
    rr3 = 5 * r3;
    rr4 = 5 * r4;
    s0 = lo32 k2;
    s1 = hi32 k2;
    s2 = lo32 k3;
    s3 = hi32 k3;
    h0 = 0;
    h1 = 0;
    h2 = 0;
    h3 = 0;
    h4 = 0;
    buf = Bytes.create 24;
    buf_len = 0;
  }

(* Fold one 16-byte block, given as four u32 words, into the
   accumulator: h = (h + m + hibit) * r mod p. *)
let process_words t m0 m1 m2 m3 ~hibit =
  let h0 = t.h0 + (m0 land m26) in
  let h1 = t.h1 + (((m0 lsr 26) lor (m1 lsl 6)) land m26) in
  let h2 = t.h2 + (((m1 lsr 20) lor (m2 lsl 12)) land m26) in
  let h3 = t.h3 + (((m2 lsr 14) lor (m3 lsl 18)) land m26) in
  let h4 = t.h4 + ((m3 lsr 8) lor hibit) in
  let d0 =
    (h0 * t.r0) + (h1 * t.rr4) + (h2 * t.rr3) + (h3 * t.rr2) + (h4 * t.rr1)
  in
  let d1 =
    (h0 * t.r1) + (h1 * t.r0) + (h2 * t.rr4) + (h3 * t.rr3) + (h4 * t.rr2)
  in
  let d2 =
    (h0 * t.r2) + (h1 * t.r1) + (h2 * t.r0) + (h3 * t.rr4) + (h4 * t.rr3)
  in
  let d3 =
    (h0 * t.r3) + (h1 * t.r2) + (h2 * t.r1) + (h3 * t.r0) + (h4 * t.rr4)
  in
  let d4 =
    (h0 * t.r4) + (h1 * t.r3) + (h2 * t.r2) + (h3 * t.r1) + (h4 * t.r0)
  in
  let h0 = d0 land m26 in
  let d1 = d1 + (d0 lsr 26) in
  let h1 = d1 land m26 in
  let d2 = d2 + (d1 lsr 26) in
  let h2 = d2 land m26 in
  let d3 = d3 + (d2 lsr 26) in
  let h3 = d3 land m26 in
  let d4 = d4 + (d3 lsr 26) in
  let h4 = d4 land m26 in
  let h0 = h0 + (5 * (d4 lsr 26)) in
  let h1 = h1 + (h0 lsr 26) in
  let h0 = h0 land m26 in
  t.h0 <- h0;
  t.h1 <- h1;
  t.h2 <- h2;
  t.h3 <- h3;
  t.h4 <- h4

let process t ~hibit =
  let b = t.buf in
  let u32 off =
    Char.code (Bytes.unsafe_get b off)
    lor (Char.code (Bytes.unsafe_get b (off + 1)) lsl 8)
    lor (Char.code (Bytes.unsafe_get b (off + 2)) lsl 16)
    lor (Char.code (Bytes.unsafe_get b (off + 3)) lsl 24)
  in
  process_words t (u32 0) (u32 4) (u32 8) (u32 12) ~hibit

let[@inline] compact t =
  if t.buf_len >= 16 then begin
    process t ~hibit:(1 lsl 24);
    let rem = t.buf_len - 16 in
    if rem > 0 then Bytes.blit t.buf 16 t.buf 0 rem;
    t.buf_len <- rem
  end

let feed_word64 t w =
  Bytes.set_int64_le t.buf t.buf_len w;
  t.buf_len <- t.buf_len + 8;
  compact t

let feed_byte t b =
  Bytes.unsafe_set t.buf t.buf_len (Char.unsafe_chr (b land 0xff));
  t.buf_len <- t.buf_len + 1;
  compact t

(* Block-grain feed for the fused ILP loop: 64 bytes, four limb folds,
   straight from the backing store — no staging-buffer round trip. Only
   valid mid-stream on a block boundary; when bytes are resident (odd
   AAD lengths) it degrades to the staged word feed. *)
let feed_block64 t bytes off =
  if t.buf_len <> 0 then
    for k = 0 to 7 do
      feed_word64 t (Bytes.get_int64_le bytes (off + (8 * k)))
    done
  else
    for k = 0 to 3 do
      let wlo = Bytes.get_int64_le bytes (off + (16 * k)) in
      let whi = Bytes.get_int64_le bytes (off + (16 * k) + 8) in
      process_words t (lo32 wlo) (hi32 wlo) (lo32 whi) (hi32 whi)
        ~hibit:(1 lsl 24)
    done

let feed_sub t buf =
  let bytes = Bytebuf.storage buf and boff = Bytebuf.offset buf in
  let n = Bytebuf.length buf in
  let i = ref 0 in
  while !i + 8 <= n do
    feed_word64 t (Bytes.get_int64_le bytes (boff + !i));
    i := !i + 8
  done;
  while !i < n do
    feed_byte t (Char.code (Bytes.unsafe_get bytes (boff + !i)));
    incr i
  done

let pad16 t =
  (* The residue mod 16 of everything fed so far is exactly [buf_len]
     (blocks are folded eagerly), so zero-extending it to 16 pads the
     stream to a block boundary. *)
  if t.buf_len > 0 then begin
    Bytes.fill t.buf t.buf_len (16 - t.buf_len) '\000';
    t.buf_len <- 16;
    compact t
  end

let finish t =
  if t.buf_len > 0 then begin
    (* Final partial block: append 0x01 then zeros — the length-encoding
       bit lands inside the block, so no 2^128 hibit. *)
    Bytes.set t.buf t.buf_len '\001';
    if t.buf_len < 15 then Bytes.fill t.buf (t.buf_len + 1) (15 - t.buf_len) '\000';
    t.buf_len <- 16;
    process t ~hibit:0;
    t.buf_len <- 0
  end;
  (* Full carry propagation, then reduce once more if h >= 2^130 - 5. *)
  let h0 = t.h0 and h1 = t.h1 and h2 = t.h2 and h3 = t.h3 and h4 = t.h4 in
  let h2 = h2 + (h1 lsr 26) and h1 = h1 land m26 in
  let h3 = h3 + (h2 lsr 26) and h2 = h2 land m26 in
  let h4 = h4 + (h3 lsr 26) and h3 = h3 land m26 in
  let h0 = h0 + (5 * (h4 lsr 26)) and h4 = h4 land m26 in
  let h1 = h1 + (h0 lsr 26) and h0 = h0 land m26 in
  let g0 = h0 + 5 in
  let g1 = h1 + (g0 lsr 26) and g0 = g0 land m26 in
  let g2 = h2 + (g1 lsr 26) and g1 = g1 land m26 in
  let g3 = h3 + (g2 lsr 26) and g2 = g2 land m26 in
  let g4 = h4 + (g3 lsr 26) - (1 lsl 26) and g3 = g3 land m26 in
  let h0, h1, h2, h3, h4 =
    if g4 >= 0 then (g0, g1, g2, g3, g4 land m26) else (h0, h1, h2, h3, h4)
  in
  (* tag = (h + s) mod 2^128, as four u32 adds with carry. *)
  let f0 = ((h0 lor (h1 lsl 26)) land 0xFFFFFFFF) + t.s0 in
  let f1 = (((h1 lsr 6) lor (h2 lsl 20)) land 0xFFFFFFFF) + t.s1 + (f0 lsr 32) in
  let f2 = (((h2 lsr 12) lor (h3 lsl 14)) land 0xFFFFFFFF) + t.s2 + (f1 lsr 32) in
  let f3 = (((h3 lsr 18) lor (h4 lsl 8)) land 0xFFFFFFFF) + t.s3 + (f2 lsr 32) in
  let lo =
    Int64.logor
      (Int64.of_int (f0 land 0xFFFFFFFF))
      (Int64.shift_left (Int64.of_int (f1 land 0xFFFFFFFF)) 32)
  in
  let hi =
    Int64.logor
      (Int64.of_int (f2 land 0xFFFFFFFF))
      (Int64.shift_left (Int64.of_int (f3 land 0xFFFFFFFF)) 32)
  in
  (lo, hi)
