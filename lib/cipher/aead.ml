open Bufkit

(* RFC 8439 AEAD_CHACHA20_POLY1305, decomposed into word-at-a-time
   combinators so the whole construction — XOR with keystream, MAC over
   the ciphertext — runs inside one fused ILP pass. The caller drives the
   payload through [seal_word]/[open_word] in position order (the plan
   compiler's word loop already does), then closes with [tag].

   MAC input: AAD ‖ pad16 ‖ ciphertext ‖ pad16 ‖ len(AAD)_LE64 ‖
   len(ct)_LE64, keyed by ChaCha20 block 0; payload keystream starts at
   block 1. *)

type t = {
  c : Chacha20.t;
  p : Poly1305.t;
  aad_len : int;
  mutable ct_len : int;
}

let create ~key ~n0 ~n1 ~n2 ~aad =
  let c = Chacha20.create ~key ~n0 ~n1 ~n2 in
  let k0, k1, k2, k3 = Chacha20.poly_key c in
  let p = Poly1305.create ~k0 ~k1 ~k2 ~k3 in
  Poly1305.feed_sub p aad;
  Poly1305.pad16 p;
  { c; p; aad_len = Bytebuf.length aad; ct_len = 0 }

let[@inline] seal_word t pos w =
  let ct = Int64.logxor w (Chacha20.word64_at t.c pos) in
  Poly1305.feed_word64 t.p ct;
  t.ct_len <- t.ct_len + 8;
  ct

let[@inline] open_word t pos w =
  Poly1305.feed_word64 t.p w;
  t.ct_len <- t.ct_len + 8;
  Int64.logxor w (Chacha20.word64_at t.c pos)

let[@inline] seal_byte t pos b =
  let ct = (b lxor Chacha20.byte_at t.c pos) land 0xff in
  Poly1305.feed_byte t.p ct;
  t.ct_len <- t.ct_len + 1;
  ct

let[@inline] open_byte t pos b =
  Poly1305.feed_byte t.p b;
  t.ct_len <- t.ct_len + 1;
  (b lxor Chacha20.byte_at t.c pos) land 0xff

(* Block-grain seal/open for the fused flush: 64 bytes in place, [pos]
   64-aligned. One keystream seek, one four-fold MAC feed — the per-word
   dispatch this amortises is what the E20 gate measures. *)

let seal_block64 t ~pos bytes ~off =
  Chacha20.xor_block64 t.c ~pos bytes ~off;
  Poly1305.feed_block64 t.p bytes off;
  t.ct_len <- t.ct_len + 64

let open_block64 t ~pos bytes ~off =
  Poly1305.feed_block64 t.p bytes off;
  Chacha20.xor_block64 t.c ~pos bytes ~off;
  t.ct_len <- t.ct_len + 64

let tag t =
  Poly1305.pad16 t.p;
  Poly1305.feed_word64 t.p (Int64.of_int t.aad_len);
  Poly1305.feed_word64 t.p (Int64.of_int t.ct_len);
  Poly1305.finish t.p

let tag_matches ~lo ~hi (lo', hi') =
  Int64.logor (Int64.logxor lo lo') (Int64.logxor hi hi') = 0L

(* Whole-buffer forms: the shipped record seal/open ({!Secure.Record},
   the serve load generator) and the oracle the fused plan stages are
   tested against. Whole 64-byte blocks go through the block-grain
   primitives (one keystream seek, one four-fold MAC feed each); the
   word and byte combinators take only the tail. *)

let run_in_place seal ~key ~n0 ~n1 ~n2 ~aad buf =
  let t = create ~key ~n0 ~n1 ~n2 ~aad in
  let bytes = Bytebuf.storage buf and boff = Bytebuf.offset buf in
  let n = Bytebuf.length buf in
  let i = ref 0 in
  while !i + 64 <= n do
    if seal then seal_block64 t ~pos:!i bytes ~off:(boff + !i)
    else open_block64 t ~pos:!i bytes ~off:(boff + !i);
    i := !i + 64
  done;
  while !i + 8 <= n do
    let w = Bytes.get_int64_le bytes (boff + !i) in
    let w' = if seal then seal_word t !i w else open_word t !i w in
    Bytes.set_int64_le bytes (boff + !i) w';
    i := !i + 8
  done;
  while !i < n do
    let b = Char.code (Bytes.unsafe_get bytes (boff + !i)) in
    let b' = if seal then seal_byte t !i b else open_byte t !i b in
    Bytes.unsafe_set bytes (boff + !i) (Char.unsafe_chr b');
    incr i
  done;
  tag t

let seal_in_place ~key ~n0 ~n1 ~n2 ~aad buf =
  run_in_place true ~key ~n0 ~n1 ~n2 ~aad buf

let open_in_place_tag ~key ~n0 ~n1 ~n2 ~aad buf =
  run_in_place false ~key ~n0 ~n1 ~n2 ~aad buf

let open_in_place ~key ~n0 ~n1 ~n2 ~aad buf ~lo ~hi =
  tag_matches ~lo ~hi (open_in_place_tag ~key ~n0 ~n1 ~n2 ~aad buf)
