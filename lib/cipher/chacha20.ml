open Bufkit

(* RFC 8439 ChaCha20, pure OCaml, word-at-a-time.

   The keystream is a pure function of (key, nonce, byte position): block
   [p / 64] is one 20-round core evaluation, independent of every other
   block. That seekability is what lets the fused ILP loop consume the
   keystream 64 bits at a time at arbitrary offsets — same contract as
   [Pad.word64_at] — and what lets out-of-order ADUs decrypt without
   chaining state (contrast [Rc4], the paper's §5 pathology).

   u32 arithmetic rides in native ints under [land mask32]; every
   intermediate fits 63 bits. Not hardened against timing side channels —
   this is a protocol-architecture reproduction, not a crypto library. *)

type key = int array (* 8 little-endian u32 words *)

let mask32 = 0xFFFFFFFF

let key_of_string s =
  if String.length s <> 32 then
    invalid_arg "Chacha20.key_of_string: key must be 32 bytes";
  Array.init 8 (fun i ->
      let b j = Char.code s.[(4 * i) + j] in
      b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24))

(* SplitMix64 expansion of a compact 64-bit seed into a 256-bit key, so
   demo/bench keys can be named the way [Pad] keys are. Convenience, not a
   KDF for real secrets. *)
let key_of_int64 seed =
  let mix64 z =
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul
        (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)
  in
  let k = Array.make 8 0 in
  for i = 0 to 3 do
    let w =
      mix64 (Int64.add seed (Int64.mul (Int64.of_int (i + 1)) 0x9E3779B97F4A7C15L))
    in
    k.(2 * i) <- Int64.to_int (Int64.logand w 0xFFFFFFFFL);
    k.((2 * i) + 1) <-
      Int64.to_int (Int64.logand (Int64.shift_right_logical w 32) 0xFFFFFFFFL)
  done;
  k

type t = {
  state : int array; (* 16 u32 words; slot 12 (counter) rewritten per block *)
  work : int array; (* double-round scratch *)
  block : Bytes.t; (* 64-byte serialisation of the cached keystream block *)
  mutable cached : int; (* block counter held in [block]; -1 = none *)
}

let create ~key ~n0 ~n1 ~n2 =
  if Array.length key <> 8 then invalid_arg "Chacha20.create: malformed key";
  let state = Array.make 16 0 in
  state.(0) <- 0x61707865;
  state.(1) <- 0x3320646e;
  state.(2) <- 0x79622d32;
  state.(3) <- 0x6b206574;
  Array.blit key 0 state 4 8;
  state.(13) <- n0 land mask32;
  state.(14) <- n1 land mask32;
  state.(15) <- n2 land mask32;
  { state; work = Array.make 16 0; block = Bytes.create 64; cached = -1 }

let[@inline] rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

(* The 20 rounds as a register-passing recursion: without flambda, the
   state words must travel as function parameters to stay out of the
   (bounds-checked) work array — this loop is the whole cost of the
   cipher, and the straight-line double round below is ~2.5x the array
   version. The feed-forward add and serialisation happen in the base
   case, one masked add and four-byte store per word. *)
let refill t counter =
  let s = t.state and b = t.block in
  let counter = counter land mask32 in
  s.(12) <- counter;
  let rec go n x0 x1 x2 x3 x4 x5 x6 x7 x8 x9 x10 x11 x12 x13 x14 x15 =
    if n = 0 then begin
      Bytes.set_int32_le b 0 (Int32.of_int ((x0 + s.(0)) land mask32));
      Bytes.set_int32_le b 4 (Int32.of_int ((x1 + s.(1)) land mask32));
      Bytes.set_int32_le b 8 (Int32.of_int ((x2 + s.(2)) land mask32));
      Bytes.set_int32_le b 12 (Int32.of_int ((x3 + s.(3)) land mask32));
      Bytes.set_int32_le b 16 (Int32.of_int ((x4 + s.(4)) land mask32));
      Bytes.set_int32_le b 20 (Int32.of_int ((x5 + s.(5)) land mask32));
      Bytes.set_int32_le b 24 (Int32.of_int ((x6 + s.(6)) land mask32));
      Bytes.set_int32_le b 28 (Int32.of_int ((x7 + s.(7)) land mask32));
      Bytes.set_int32_le b 32 (Int32.of_int ((x8 + s.(8)) land mask32));
      Bytes.set_int32_le b 36 (Int32.of_int ((x9 + s.(9)) land mask32));
      Bytes.set_int32_le b 40 (Int32.of_int ((x10 + s.(10)) land mask32));
      Bytes.set_int32_le b 44 (Int32.of_int ((x11 + s.(11)) land mask32));
      Bytes.set_int32_le b 48 (Int32.of_int ((x12 + s.(12)) land mask32));
      Bytes.set_int32_le b 52 (Int32.of_int ((x13 + s.(13)) land mask32));
      Bytes.set_int32_le b 56 (Int32.of_int ((x14 + s.(14)) land mask32));
      Bytes.set_int32_le b 60 (Int32.of_int ((x15 + s.(15)) land mask32))
    end
    else begin
      (* Column quarter-rounds: (0,4,8,12) (1,5,9,13) (2,6,10,14) (3,7,11,15). *)
      let x0 = (x0 + x4) land mask32 in
      let x12 = rotl (x12 lxor x0) 16 in
      let x8 = (x8 + x12) land mask32 in
      let x4 = rotl (x4 lxor x8) 12 in
      let x0 = (x0 + x4) land mask32 in
      let x12 = rotl (x12 lxor x0) 8 in
      let x8 = (x8 + x12) land mask32 in
      let x4 = rotl (x4 lxor x8) 7 in
      let x1 = (x1 + x5) land mask32 in
      let x13 = rotl (x13 lxor x1) 16 in
      let x9 = (x9 + x13) land mask32 in
      let x5 = rotl (x5 lxor x9) 12 in
      let x1 = (x1 + x5) land mask32 in
      let x13 = rotl (x13 lxor x1) 8 in
      let x9 = (x9 + x13) land mask32 in
      let x5 = rotl (x5 lxor x9) 7 in
      let x2 = (x2 + x6) land mask32 in
      let x14 = rotl (x14 lxor x2) 16 in
      let x10 = (x10 + x14) land mask32 in
      let x6 = rotl (x6 lxor x10) 12 in
      let x2 = (x2 + x6) land mask32 in
      let x14 = rotl (x14 lxor x2) 8 in
      let x10 = (x10 + x14) land mask32 in
      let x6 = rotl (x6 lxor x10) 7 in
      let x3 = (x3 + x7) land mask32 in
      let x15 = rotl (x15 lxor x3) 16 in
      let x11 = (x11 + x15) land mask32 in
      let x7 = rotl (x7 lxor x11) 12 in
      let x3 = (x3 + x7) land mask32 in
      let x15 = rotl (x15 lxor x3) 8 in
      let x11 = (x11 + x15) land mask32 in
      let x7 = rotl (x7 lxor x11) 7 in
      (* Diagonal quarter-rounds: (0,5,10,15) (1,6,11,12) (2,7,8,13) (3,4,9,14). *)
      let x0 = (x0 + x5) land mask32 in
      let x15 = rotl (x15 lxor x0) 16 in
      let x10 = (x10 + x15) land mask32 in
      let x5 = rotl (x5 lxor x10) 12 in
      let x0 = (x0 + x5) land mask32 in
      let x15 = rotl (x15 lxor x0) 8 in
      let x10 = (x10 + x15) land mask32 in
      let x5 = rotl (x5 lxor x10) 7 in
      let x1 = (x1 + x6) land mask32 in
      let x12 = rotl (x12 lxor x1) 16 in
      let x11 = (x11 + x12) land mask32 in
      let x6 = rotl (x6 lxor x11) 12 in
      let x1 = (x1 + x6) land mask32 in
      let x12 = rotl (x12 lxor x1) 8 in
      let x11 = (x11 + x12) land mask32 in
      let x6 = rotl (x6 lxor x11) 7 in
      let x2 = (x2 + x7) land mask32 in
      let x13 = rotl (x13 lxor x2) 16 in
      let x8 = (x8 + x13) land mask32 in
      let x7 = rotl (x7 lxor x8) 12 in
      let x2 = (x2 + x7) land mask32 in
      let x13 = rotl (x13 lxor x2) 8 in
      let x8 = (x8 + x13) land mask32 in
      let x7 = rotl (x7 lxor x8) 7 in
      let x3 = (x3 + x4) land mask32 in
      let x14 = rotl (x14 lxor x3) 16 in
      let x9 = (x9 + x14) land mask32 in
      let x4 = rotl (x4 lxor x9) 12 in
      let x3 = (x3 + x4) land mask32 in
      let x14 = rotl (x14 lxor x3) 8 in
      let x9 = (x9 + x14) land mask32 in
      let x4 = rotl (x4 lxor x9) 7 in
      go (n - 1) x0 x1 x2 x3 x4 x5 x6 x7 x8 x9 x10 x11 x12 x13 x14 x15
    end
  in
  go 10 s.(0) s.(1) s.(2) s.(3) s.(4) s.(5) s.(6) s.(7) s.(8) s.(9) s.(10)
    s.(11) counter s.(13) s.(14) s.(15);
  t.cached <- counter

let[@inline] seek t counter = if t.cached <> counter then refill t counter

(* Payload keystream: RFC 8439 reserves block 0 for the Poly1305 one-time
   key, so payload byte [p] draws from block [1 + p/64]. *)

let byte_at t pos =
  seek t (1 + (pos lsr 6));
  Char.code (Bytes.unsafe_get t.block (pos land 63))

let word64_at t pos =
  let off = pos land 63 in
  if off <= 56 then begin
    seek t (1 + (pos lsr 6));
    Bytes.get_int64_le t.block off
  end
  else begin
    (* The word straddles two keystream blocks; assemble bytewise. The
       seeks are sequential, so this costs at most one extra refill. *)
    let w = ref 0L in
    for j = 7 downto 0 do
      w := Int64.logor (Int64.shift_left !w 8) (Int64.of_int (byte_at t (pos + j)))
    done;
    !w
  end

(* Block-grain XOR for the fused ILP flush: [pos] must be 64-aligned, so
   the whole span maps onto one cached keystream block — eight 64-bit
   loads from the cache, no per-word seek branch. *)
let xor_block64 t ~pos bytes ~off =
  seek t (1 + (pos lsr 6));
  let kb = t.block in
  for k = 0 to 7 do
    let o = off + (8 * k) in
    Bytes.set_int64_le bytes o
      (Int64.logxor (Bytes.get_int64_le bytes o) (Bytes.get_int64_le kb (8 * k)))
  done

let poly_key t =
  seek t 0;
  let b = t.block in
  ( Bytes.get_int64_le b 0,
    Bytes.get_int64_le b 8,
    Bytes.get_int64_le b 16,
    Bytes.get_int64_le b 24 )

let transform_at t ~pos buf =
  let bytes = Bytebuf.storage buf and boff = Bytebuf.offset buf in
  let n = Bytebuf.length buf in
  let i = ref 0 in
  while !i + 8 <= n do
    let w = Bytes.get_int64_le bytes (boff + !i) in
    Bytes.set_int64_le bytes (boff + !i) (Int64.logxor w (word64_at t (pos + !i)));
    i := !i + 8
  done;
  while !i < n do
    let b = Char.code (Bytes.unsafe_get bytes (boff + !i)) in
    Bytes.unsafe_set bytes (boff + !i) (Char.unsafe_chr (b lxor byte_at t (pos + !i)));
    incr i
  done

let derive key ~n0 ~n1 ~n2 =
  let t = create ~key ~n0 ~n1 ~n2 in
  seek t 0;
  Array.init 8 (fun i ->
      let b j = Char.code (Bytes.get t.block ((4 * i) + j)) in
      b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24))
