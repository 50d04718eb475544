open Bufkit

(* Everything an AEAD record stage needs at run time: the (already
   epoch-derived) key, the 96-bit nonce as three u32 words, and the
   additional authenticated data. The AAD buffer is only read while the
   stage runs, so callers may reuse a scratch slice across records. *)
type aead_params = {
  aead_key : Cipher.Chacha20.key;
  aead_n0 : int;
  aead_n1 : int;
  aead_n2 : int;
  aead_aad : Bytebuf.t;
}

type stage =
  | Checksum of Checksum.Kind.t
  | Xor_pad of { key : int64; pos : int64 }
  | Rc4_stream of { key : string }
  | Aead_seal of aead_params
  | Aead_open of aead_params
  | Byteswap32
  | Deliver_copy

let stage_name = function
  | Checksum k -> "checksum:" ^ Checksum.Kind.to_string k
  | Xor_pad _ -> "xor-pad"
  | Rc4_stream _ -> "rc4"
  | Aead_seal _ -> "aead-seal"
  | Aead_open _ -> "aead-open"
  | Byteswap32 -> "byteswap32"
  | Deliver_copy -> "deliver-copy"

let pp_stage ppf s = Format.pp_print_string ppf (stage_name s)

type plan = stage list

(* The validity of a plan depends only on its shape — which constructors
   appear where — not on keys or stream positions. That is what makes the
   plan cache sound: one validation + lowering per shape. *)
type shape =
  | Sh_check of Checksum.Kind.t
  | Sh_xor
  | Sh_rc4
  | Sh_aead_seal
  | Sh_aead_open
  | Sh_swap
  | Sh_copy
  | Sh_src_xdr  (* marshalling source, prepended by the marshal lookup *)
  | Sh_src_ber
  | Sh_sink_xdr  (* streaming decoder, appended by the unmarshal lookup *)
  | Sh_sink_ber

let shape_of_stage = function
  | Checksum k -> Sh_check k
  | Xor_pad _ -> Sh_xor
  | Rc4_stream _ -> Sh_rc4
  | Aead_seal _ -> Sh_aead_seal
  | Aead_open _ -> Sh_aead_open
  | Byteswap32 -> Sh_swap
  | Deliver_copy -> Sh_copy

let shape_of_plan plan = List.map shape_of_stage plan

let validate_shape shape =
  let rec go i seen_rc4 seen_aead = function
    | [] -> Ok ()
    | Sh_swap :: _ when i > 0 ->
        Error "byteswap32 reads across byte positions; it can only be fused as the first stage"
    | Sh_rc4 :: _ when seen_rc4 ->
        Error "two sequential ciphers cannot share one keystream position"
    | Sh_rc4 :: rest -> go (i + 1) true seen_aead rest
    | (Sh_aead_seal | Sh_aead_open) :: _ when seen_aead ->
        Error "two AEAD records cannot share one plan: each seal/open is one record"
    | (Sh_aead_seal | Sh_aead_open) :: rest -> go (i + 1) seen_rc4 true rest
    | (Sh_check _ | Sh_xor | Sh_swap | Sh_copy) :: rest ->
        go (i + 1) seen_rc4 seen_aead rest
    | (Sh_src_xdr | Sh_src_ber | Sh_sink_xdr | Sh_sink_ber) :: _ ->
        (* The marshal/unmarshal lookups strip their boundary markers
           before validating the stage chain. *)
        Error "marshal source / unmarshal sink markers are plan boundaries"
  in
  go 0 false false shape

let has_swap = List.exists (function Sh_swap -> true | _ -> false)

let validate plan = validate_shape (shape_of_plan plan)

(* RC4 is the only order-coupled stage left: its keystream byte [i]
   requires bytes [0..i-1] first, so a batch containing it degrades to
   serial processing — the paper's §5 chaining pathology, kept as an
   ablation. ChaCha20 AEAD stages are seekable (per-record nonces,
   counter-addressed keystream) and impose no cross-ADU ordering. *)
let needs_in_order plan =
  List.exists
    (function
      | Rc4_stream _ -> true
      | Checksum _ | Xor_pad _ | Aead_seal _ | Aead_open _ | Byteswap32
      | Deliver_copy ->
          false)
    plan

type result = {
  output : Bytebuf.t;
  checksums : (Checksum.Kind.t * int) list;
  tags : (int64 * int64) list;
  passes : int;
  bytes_touched : int;
  compiled : bool;
}

let check_swap_len buf =
  if Bytebuf.length buf mod 4 <> 0 then
    invalid_arg "Ilp: byteswap32 needs a length that is a multiple of 4"

let byteswap32_copy src =
  check_swap_len src;
  let n = Bytebuf.length src in
  let dst = Bytebuf.create n in
  let i = ref 0 in
  while !i < n do
    Bytebuf.unsafe_set dst !i (Bytebuf.unsafe_get src (!i + 3));
    Bytebuf.unsafe_set dst (!i + 1) (Bytebuf.unsafe_get src (!i + 2));
    Bytebuf.unsafe_set dst (!i + 2) (Bytebuf.unsafe_get src (!i + 1));
    Bytebuf.unsafe_set dst (!i + 3) (Bytebuf.unsafe_get src !i);
    i := !i + 4
  done;
  dst

(* Registry accounting. Handles are resolved once at module initialisation —
   a run costs a few atomic bumps and one histogram insert, never a string
   concatenation or a registry lookup. *)
type run_handles = {
  rh_runs : Obs.Counter.t;
  rh_bytes : Obs.Counter.t;
  rh_passes : Obs.Counter.t;
  rh_ns : Obs.Histogram.t;
}

let run_handles mode =
  let pfx = "ilp." ^ mode ^ "." in
  {
    rh_runs = Obs.Registry.counter (pfx ^ "runs");
    rh_bytes = Obs.Registry.counter (pfx ^ "bytes");
    rh_passes = Obs.Registry.counter (pfx ^ "passes");
    rh_ns = Obs.Registry.histogram (pfx ^ "ns");
  }

let handles_layered = run_handles "layered"
let handles_interpreted = run_handles "fused-interpreted"
let handles_compiled = run_handles "fused-compiled"

(* [t0] is the {!Obs.Clock.now_ns} reading taken before the run. *)
let record_run h ~t0 ~bytes ~passes =
  let ns = Obs.Clock.now_ns () - t0 in
  Obs.Counter.incr h.rh_runs;
  Obs.Counter.add h.rh_bytes bytes;
  Obs.Counter.add h.rh_passes passes;
  Obs.Histogram.record_int h.rh_ns ns

let record_result h ~t0 (r : result) =
  record_run h ~t0 ~bytes:r.bytes_touched ~passes:r.passes

type stage_handles = { sh_passes : Obs.Counter.t; sh_bytes : Obs.Counter.t }

let stage_handles name =
  {
    sh_passes = Obs.Registry.counter ("ilp.stage." ^ name ^ ".passes");
    sh_bytes = Obs.Registry.counter ("ilp.stage." ^ name ^ ".bytes");
  }

let checksum_stage_handles =
  List.map
    (fun k -> (k, stage_handles ("checksum:" ^ Checksum.Kind.to_string k)))
    Checksum.Kind.all

let h_stage_xor = stage_handles "xor-pad"
let h_stage_rc4 = stage_handles "rc4"
let h_stage_aead_seal = stage_handles "aead-seal"
let h_stage_aead_open = stage_handles "aead-open"
let h_stage_swap = stage_handles "byteswap32"
let h_stage_copy = stage_handles "deliver-copy"

let stage_handle = function
  | Checksum k -> List.assoc k checksum_stage_handles
  | Xor_pad _ -> h_stage_xor
  | Rc4_stream _ -> h_stage_rc4
  | Aead_seal _ -> h_stage_aead_seal
  | Aead_open _ -> h_stage_aead_open
  | Byteswap32 -> h_stage_swap
  | Deliver_copy -> h_stage_copy

let record_stage stage ~bytes =
  let h = stage_handle stage in
  Obs.Counter.incr h.sh_passes;
  Obs.Counter.add h.sh_bytes bytes

let run_layered_impl plan input =
  let n = Bytebuf.length input in
  let passes = ref 0 in
  let touched = ref 0 in
  let checks = ref [] in
  let tags = ref [] in
  let current = ref input in
  let apply stage =
    incr passes;
    let before = !touched in
    (match stage with
    | Checksum kind ->
        touched := !touched + n;
        checks := (kind, Checksum.Kind.digest kind !current) :: !checks
    | Xor_pad { key; pos } ->
        touched := !touched + (2 * n);
        let out = Bytebuf.copy !current in
        Cipher.Pad.transform_at (Cipher.Pad.create ~key) ~pos out;
        current := out
    | Rc4_stream { key } ->
        touched := !touched + (2 * n);
        current := Cipher.Rc4.transform (Cipher.Rc4.create ~key) !current
    | Aead_seal { aead_key; aead_n0; aead_n1; aead_n2; aead_aad } ->
        (* Encrypt pass + MAC pass over the result: the honest layered
           composition the fused stage is measured against. *)
        touched := !touched + (3 * n);
        let out = Bytebuf.copy !current in
        tags :=
          Cipher.Aead.seal_in_place ~key:aead_key ~n0:aead_n0 ~n1:aead_n1
            ~n2:aead_n2 ~aad:aead_aad out
          :: !tags;
        current := out
    | Aead_open { aead_key; aead_n0; aead_n1; aead_n2; aead_aad } ->
        touched := !touched + (3 * n);
        let out = Bytebuf.copy !current in
        tags :=
          Cipher.Aead.open_in_place_tag ~key:aead_key ~n0:aead_n0 ~n1:aead_n1
            ~n2:aead_n2 ~aad:aead_aad out
          :: !tags;
        current := out
    | Byteswap32 ->
        touched := !touched + (2 * n);
        current := byteswap32_copy !current
    | Deliver_copy ->
        touched := !touched + (2 * n);
        current := Bytebuf.copy !current);
    record_stage stage ~bytes:(!touched - before)
  in
  List.iter apply plan;
  (* If no stage rewrote the data, the output is still a fresh buffer so
     layered and fused results have the same ownership semantics. *)
  let output = if !current == input then Bytebuf.copy input else !current in
  {
    output;
    checksums = List.rev !checks;
    tags = List.rev !tags;
    passes = !passes;
    bytes_touched = !touched;
    compiled = false;
  }

(* ------------------------------------------------------------------ *)
(* The per-byte interpreter. Since the compiler below covers every
   valid plan, this survives only as the test oracle for the
   compilation-vs-interpretation ablation (experiments E2/E14).       *)
(* ------------------------------------------------------------------ *)

type fused_state =
  | F_check of Checksum.Kind.feeder ref * Checksum.Kind.t
  | F_pad of Cipher.Pad.t * int64
  | F_rc4 of Cipher.Rc4.t
  | F_aead of Cipher.Aead.t * bool (* true = seal *)
  | F_copy

let interp_byte states input output i src_i =
  (* The one load... *)
  let b = ref (Char.code (Bytebuf.unsafe_get input src_i)) in
  List.iter
    (fun st ->
      match st with
      | F_check (feeder, _) -> feeder := Checksum.Kind.feeder_byte !feeder !b
      | F_pad (pad, pos) ->
          b := !b lxor Cipher.Pad.byte_at pad (Int64.add pos (Int64.of_int i))
      | F_rc4 rc4 -> b := !b lxor Cipher.Rc4.keystream_byte rc4
      | F_aead (a, seal) ->
          b := (if seal then Cipher.Aead.seal_byte else Cipher.Aead.open_byte) a i !b
      | F_copy -> ())
    states;
  (* ...and the one store. *)
  Bytebuf.unsafe_set output i (Char.unsafe_chr !b)

let run_fused_interpreted_impl plan input =
  (match validate plan with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Ilp.run_fused_interpreted: " ^ msg));
  let n = Bytebuf.length input in
  let swap_first = match plan with Byteswap32 :: _ -> true | _ -> false in
  if swap_first then check_swap_len input;
  let rest = if swap_first then List.tl plan else plan in
  let states =
    List.map
      (function
        | Checksum kind -> F_check (ref (Checksum.Kind.feeder kind), kind)
        | Xor_pad { key; pos } -> F_pad (Cipher.Pad.create ~key, pos)
        | Rc4_stream { key } -> F_rc4 (Cipher.Rc4.create ~key)
        | Aead_seal { aead_key; aead_n0; aead_n1; aead_n2; aead_aad } ->
            F_aead
              ( Cipher.Aead.create ~key:aead_key ~n0:aead_n0 ~n1:aead_n1
                  ~n2:aead_n2 ~aad:aead_aad,
                true )
        | Aead_open { aead_key; aead_n0; aead_n1; aead_n2; aead_aad } ->
            F_aead
              ( Cipher.Aead.create ~key:aead_key ~n0:aead_n0 ~n1:aead_n1
                  ~n2:aead_n2 ~aad:aead_aad,
                false )
        | Deliver_copy -> F_copy
        | Byteswap32 -> assert false)
      rest
  in
  let output = Bytebuf.create n in
  (* With a leading conversion we read the permuted source position
     instead of adding a pass; the branch is hoisted out of the loop. *)
  if swap_first then
    for i = 0 to n - 1 do
      interp_byte states input output i (i - (i mod 4) + (3 - (i mod 4)))
    done
  else
    for i = 0 to n - 1 do
      interp_byte states input output i i
    done;
  let checksums =
    List.filter_map
      (function
        | F_check (feeder, kind) ->
            Some (kind, Checksum.Kind.feeder_finish !feeder)
        | F_pad _ | F_rc4 _ | F_aead _ | F_copy -> None)
      states
  in
  let tags =
    List.filter_map
      (function F_aead (a, _) -> Some (Cipher.Aead.tag a) | _ -> None)
      states
  in
  { output; checksums; tags; passes = 1; bytes_touched = 2 * n; compiled = false }

(* ------------------------------------------------------------------ *)
(* §8's "compilation", generalised. Each stage lowers to a word-level
   combinator; the combinators run inside one block-at-a-time loop
   (8 bytes per load) with a byte tail for the last [len mod 8] bytes.
   Dispatch happens per *word* over a pre-lowered stage array, never
   per byte — and a handful of whole-plan shapes short-circuit to the
   hand-fused kernels, which avoid even the per-word dispatch.         *)
(* ------------------------------------------------------------------ *)

let fold16 s =
  let rec go s = if s > 0xffff then go ((s land 0xffff) + (s lsr 16)) else s in
  go s

let swap16 s = ((s land 0xff) lsl 8) lor ((s lsr 8) land 0xff)

let lane_sum_le x =
  Int64.to_int (Int64.logand x 0xFFFFL)
  + (Int64.to_int (Int64.shift_right_logical x 16) land 0xFFFF)
  + (Int64.to_int (Int64.shift_right_logical x 32) land 0xFFFF)
  + (Int64.to_int (Int64.shift_right_logical x 48) land 0xFFFF)

(* Reverse the bytes within each 32-bit half of a word. Octet [k] of a
   native little-endian load is memory byte [k], so this is exactly
   [Byteswap32] applied to two 4-byte groups at once. *)
let bswap32_pairs w =
  let open Int64 in
  let w =
    logor
      (shift_left (logand w 0x00FF00FF00FF00FFL) 8)
      (logand (shift_right_logical w 8) 0x00FF00FF00FF00FFL)
  in
  logor
    (shift_left (logand w 0x0000FFFF0000FFFFL) 16)
    (logand (shift_right_logical w 16) 0x0000FFFF0000FFFFL)

(* Per-run stage state for the general fused loop. Built fresh each run
   from the cached lowering (keys and stream positions are run-time
   parameters, not part of the cached shape). *)
type rt =
  | R_inet of { mutable lanes : int; mutable besum : int }
      (* Internet checksum on the 64-bit-lane fast path: lanes accumulate
         byte-swapped network-order words during the word loop; [besum]
         carries the converted big-endian sum through the byte tail. *)
  | R_gen of { kind : Checksum.Kind.t; mutable f : Checksum.Kind.feeder }
  | R_crc32 of { mutable crc : Checksum.Crc32.state }
      (* CRC-32 on its own unboxed fast path: slicing-by-8 per word, no
         feeder box per step — the framing stage every secure plan runs. *)
  | R_pad of { pad : Cipher.Pad.t; pos : int64 }
  | R_rc4 of Cipher.Rc4.t
  | R_aead of { a : Cipher.Aead.t; seal : bool }
  | R_copy

let rt_of_stage = function
  | Checksum Checksum.Kind.Internet -> R_inet { lanes = 0; besum = 0 }
  | Checksum Checksum.Kind.Crc32 -> R_crc32 { crc = Checksum.Crc32.init }
  | Checksum kind -> R_gen { kind; f = Checksum.Kind.feeder kind }
  | Xor_pad { key; pos } -> R_pad { pad = Cipher.Pad.create ~key; pos }
  | Rc4_stream { key } -> R_rc4 (Cipher.Rc4.create ~key)
  | Aead_seal { aead_key; aead_n0; aead_n1; aead_n2; aead_aad } ->
      R_aead
        {
          a =
            Cipher.Aead.create ~key:aead_key ~n0:aead_n0 ~n1:aead_n1
              ~n2:aead_n2 ~aad:aead_aad;
          seal = true;
        }
  | Aead_open { aead_key; aead_n0; aead_n1; aead_n2; aead_aad } ->
      R_aead
        {
          a =
            Cipher.Aead.create ~key:aead_key ~n0:aead_n0 ~n1:aead_n1
              ~n2:aead_n2 ~aad:aead_aad;
          seal = false;
        }
  | Deliver_copy -> R_copy
  | Byteswap32 -> assert false (* stripped by the caller *)

(* One word through one stage: transform and/or absorb, return the word
   the next stage sees. [i] is the byte offset of the block. *)
let rt_word rt i w =
  match rt with
  | R_inet s ->
      s.lanes <- s.lanes + lane_sum_le w;
      if s.lanes > 0x3FFFFFFF then s.lanes <- fold16 s.lanes;
      w
  | R_gen s ->
      s.f <- Checksum.Kind.feeder_word64le s.f w;
      w
  | R_crc32 s ->
      s.crc <- Checksum.Crc32.feed_word64le s.crc w;
      w
  | R_pad { pad; pos } ->
      Int64.logxor w (Cipher.Pad.word64_at pad (Int64.add pos (Int64.of_int i)))
  | R_rc4 rc4 ->
      (* RC4's keystream is inherently serial per byte; generate eight
         bytes in order and still XOR at word width. *)
      let k = ref 0L in
      for j = 0 to 7 do
        k :=
          Int64.logor !k
            (Int64.shift_left
               (Int64.of_int (Cipher.Rc4.keystream_byte rc4))
               (8 * j))
      done;
      Int64.logxor w !k
  | R_aead { a; seal } ->
      if seal then Cipher.Aead.seal_word a i w else Cipher.Aead.open_word a i w
  | R_copy -> w

(* Word loop → byte tail seam. The tail starts on an 8-aligned (hence
   even) offset, so checksum byte parity is preserved. *)
let rt_enter_tail = function
  | R_inet s ->
      s.besum <- s.besum + swap16 (fold16 s.lanes);
      s.lanes <- 0
  | R_gen _ | R_crc32 _ | R_pad _ | R_rc4 _ | R_aead _ | R_copy -> ()

let rt_byte rt i b =
  match rt with
  | R_inet s ->
      s.besum <- s.besum + (if i land 1 = 0 then b lsl 8 else b);
      if s.besum > 0x3FFFFFFF then s.besum <- fold16 s.besum;
      b
  | R_gen s ->
      s.f <- Checksum.Kind.feeder_byte s.f b;
      b
  | R_crc32 s ->
      s.crc <- Checksum.Crc32.feed_byte s.crc b;
      b
  | R_pad { pad; pos } ->
      b lxor Cipher.Pad.byte_at pad (Int64.add pos (Int64.of_int i))
  | R_rc4 rc4 -> b lxor Cipher.Rc4.keystream_byte rc4
  | R_aead { a; seal } ->
      if seal then Cipher.Aead.seal_byte a i b else Cipher.Aead.open_byte a i b
  | R_copy -> b

(* One 64-byte block through one stage, in place at [db.(off..)], stream
   position [i] (64-aligned): the batched form of [rt_word] the marshal
   sink flushes behind the writer — one dispatch per stage per block
   instead of one per word, and the AEAD/CRC stages drop to their
   block-grain primitives (one keystream seek, direct MAC folds, eight
   sliced CRC steps per call). *)
let rt_block64 rt db off i =
  match rt with
  | R_aead { a; seal } ->
      if seal then Cipher.Aead.seal_block64 a ~pos:i db ~off
      else Cipher.Aead.open_block64 a ~pos:i db ~off
  | R_crc32 s -> s.crc <- Checksum.Crc32.feed_block64 s.crc db off
  | R_inet s ->
      let lanes = ref s.lanes in
      for k = 0 to 7 do
        lanes := !lanes + lane_sum_le (Bytes.get_int64_le db (off + (8 * k)))
      done;
      (* One overflow check per block: eight words add < 2^19, so the
         running sum stays far below the 63-bit bound. *)
      s.lanes <- (if !lanes > 0x3FFFFFFF then fold16 !lanes else !lanes)
  | R_copy -> ()
  | (R_gen _ | R_pad _ | R_rc4 _) as rt ->
      for k = 0 to 7 do
        let o = off + (8 * k) in
        Bytes.set_int64_le db o (rt_word rt (i + (8 * k)) (Bytes.get_int64_le db o))
      done

let rt_finish = function
  | R_inet s -> Some (Checksum.Kind.Internet, lnot (fold16 s.besum) land 0xffff)
  | R_gen s -> Some (s.kind, Checksum.Kind.feeder_finish s.f)
  | R_crc32 s ->
      Some
        ( Checksum.Kind.Crc32,
          Int32.to_int (Checksum.Crc32.finish s.crc) land 0xFFFFFFFF )
  | R_pad _ | R_rc4 _ | R_aead _ | R_copy -> None

(* The AEAD analogue of [rt_finish]: close the record and read the
   Poly1305 tag. Must run after every payload byte has passed through. *)
let rt_finish_tag = function
  | R_aead { a; _ } -> Some (Cipher.Aead.tag a)
  | R_inet _ | R_gen _ | R_crc32 _ | R_pad _ | R_rc4 _ | R_copy -> None

let run_general ~swap_first plan input dst =
  if swap_first then check_swap_len input;
  let rest = if swap_first then List.tl plan else plan in
  let stages = Array.of_list (List.map rt_of_stage rest) in
  let nst = Array.length stages in
  let n = Bytebuf.length input in
  let sb = Bytebuf.storage input and sbase = Bytebuf.offset input in
  let db = Bytebuf.storage dst and dbase = Bytebuf.offset dst in
  (* The word path assumes little-endian octet↔memory correspondence;
     big-endian hosts take the (identical-result) byte path throughout. *)
  let word_end = if Sys.big_endian then 0 else n land lnot 7 in
  let i = ref 0 in
  while !i < word_end do
    let w = Bytes.get_int64_ne sb (sbase + !i) in
    let w = ref (if swap_first then bswap32_pairs w else w) in
    for s = 0 to nst - 1 do
      w := rt_word stages.(s) !i !w
    done;
    Bytes.set_int64_ne db (dbase + !i) !w;
    i := !i + 8
  done;
  for s = 0 to nst - 1 do
    rt_enter_tail stages.(s)
  done;
  if swap_first then
    while !i < n do
      let src_i = !i - (!i mod 4) + (3 - (!i mod 4)) in
      let b = ref (Char.code (Bytes.unsafe_get sb (sbase + src_i))) in
      for s = 0 to nst - 1 do
        b := rt_byte stages.(s) !i !b
      done;
      Bytes.unsafe_set db (dbase + !i) (Char.unsafe_chr !b);
      incr i
    done
  else
    while !i < n do
      let b = ref (Char.code (Bytes.unsafe_get sb (sbase + !i))) in
      for s = 0 to nst - 1 do
        b := rt_byte stages.(s) !i !b
      done;
      Bytes.unsafe_set db (dbase + !i) (Char.unsafe_chr !b);
      incr i
    done;
  let stages = Array.to_list stages in
  (List.filter_map rt_finish stages, List.filter_map rt_finish_tag stages)

(* A lowering is what the cache stores per shape: either a dispatch to a
   whole-plan hand-fused kernel (no per-word dispatch at all) or the
   general combinator loop. *)
type lowering =
  | L_copy
  | L_copy_checksum (* Internet checksum + copy, either order *)
  | L_copy_crc32 (* CRC-32 + copy, either order: the serve engine's stage 2 *)
  | L_pad_checksum_copy
  | L_checksum_pad_copy
  | L_general of { swap_first : bool }
  | L_marshal (* Wordsink-driven stage chain; see [run_marshal]. *)
  | L_unmarshal (* demand-driven stage chain; see [run_unmarshal]. *)

(* Split a sink-terminated shape into (stage chain, sink marker). *)
let split_sink shape =
  let rec go acc = function
    | [ ((Sh_sink_xdr | Sh_sink_ber) as s) ] -> Some (List.rev acc, s)
    | x :: tl -> go (x :: acc) tl
    | [] -> None
  in
  go [] shape

let lower shape =
  match shape with
  | (Sh_src_xdr | Sh_src_ber) :: rest ->
      if has_swap rest then
        Error
          "byteswap32 cannot follow a marshalling source: the encoder already emits wire byte order"
      else (
        match validate_shape rest with Error _ as e -> e | Ok () -> Ok L_marshal)
  | _ when split_sink shape <> None -> (
      let rest, _ = Option.get (split_sink shape) in
      if has_swap rest then
        Error
          "byteswap32 cannot precede a streaming decoder: the decoder consumes wire byte order"
      else
        match validate_shape rest with
        | Error _ as e -> e
        | Ok () -> Ok L_unmarshal)
  | _ -> (
      match validate_shape shape with
      | Error _ as e -> e
      | Ok () ->
          Ok
            (match shape with
            | [] | [ Sh_copy ] -> L_copy
            | [ Sh_check Checksum.Kind.Internet ]
            | [ Sh_check Checksum.Kind.Internet; Sh_copy ]
            | [ Sh_copy; Sh_check Checksum.Kind.Internet ] ->
                L_copy_checksum
            | [ Sh_check Checksum.Kind.Crc32 ]
            | [ Sh_check Checksum.Kind.Crc32; Sh_copy ]
            | [ Sh_copy; Sh_check Checksum.Kind.Crc32 ] ->
                L_copy_crc32
            | [ Sh_xor; Sh_check Checksum.Kind.Internet; Sh_copy ] ->
                L_pad_checksum_copy
            | [ Sh_check Checksum.Kind.Internet; Sh_xor; Sh_copy ] ->
                L_checksum_pad_copy
            | Sh_swap :: _ -> L_general { swap_first = true }
            | _ -> L_general { swap_first = false }))

(* The plan cache. Shared across domains (Ilp_par workers compile through
   it too), so lookups take a mutex — one brief critical section per run,
   against a table whose population is bounded by the number of distinct
   plan shapes the program ever uses. *)
let cache : (shape list, (lowering, string) Stdlib.result) Hashtbl.t =
  Hashtbl.create 16

let cache_mu = Mutex.create ()
let cache_hits = ref 0
let cache_misses = ref 0
let c_cache_hits = Obs.Registry.counter "ilp.plan_cache.hits"
let c_cache_misses = Obs.Registry.counter "ilp.plan_cache.misses"

type cache_stats = { hits : int; misses : int; entries : int }

let with_cache f =
  Mutex.lock cache_mu;
  match f () with
  | v ->
      Mutex.unlock cache_mu;
      v
  | exception e ->
      Mutex.unlock cache_mu;
      raise e

let plan_cache_stats () =
  with_cache (fun () ->
      { hits = !cache_hits; misses = !cache_misses; entries = Hashtbl.length cache })

let compile_lookup plan =
  let shape = shape_of_plan plan in
  with_cache (fun () ->
      match Hashtbl.find_opt cache shape with
      | Some r ->
          incr cache_hits;
          Obs.Counter.incr c_cache_hits;
          r
      | None ->
          incr cache_misses;
          Obs.Counter.incr c_cache_misses;
          let r = lower shape in
          Hashtbl.add cache shape r;
          r)

let dst_for dst_opt n =
  match dst_opt with
  | None -> Bytebuf.create n
  | Some d ->
      if Bytebuf.length d <> n then
        invalid_arg "Ilp.run_fused: dst length must equal input length";
      d

(* A plan resolved against the cache: its lowering plus the plan itself,
   whose keys and stream positions the lowering reads at run time. *)
type compiled = { c_lowering : lowering; c_plan : plan }

let compile plan =
  match compile_lookup plan with
  | Error msg -> invalid_arg ("Ilp.run_fused: " ^ msg)
  | Ok l -> { c_lowering = l; c_plan = plan }

(* The hand-fused kernels: one loop, at most one digest (0 for the bare
   copy). *)
let run_kernel lowering plan input dst =
  match (lowering, plan) with
  | L_copy, _ ->
      Kernels.copy ~src:input ~dst;
      0
  | L_copy_checksum, _ -> Kernels.copy_checksum ~src:input ~dst
  | L_copy_crc32, _ -> Kernels.copy_crc32 ~src:input ~dst
  | L_pad_checksum_copy, Xor_pad { key; pos } :: _ ->
      Kernels.copy_checksum_xor ~src:input ~dst ~key ~stream_pos:pos
  | L_checksum_pad_copy, _ :: Xor_pad { key; pos } :: _ ->
      Kernels.checksum_xor_copy ~src:input ~dst ~key ~stream_pos:pos
  | ( ( L_pad_checksum_copy | L_checksum_pad_copy | L_general _ | L_marshal
      | L_unmarshal ),
      _ ) ->
      (* The lowering came from this plan's shape; the general loop is
         dispatched by the callers, and marshal/unmarshal lowerings are
         only ever produced for marked shapes, which never get here. *)
      assert false

let kernel_checksums lowering c =
  match lowering with
  | L_copy -> []
  | L_copy_crc32 -> [ (Checksum.Kind.Crc32, c) ]
  | _ -> [ (Checksum.Kind.Internet, c) ]

let run_layered plan input =
  let t0 = Obs.Clock.now_ns () in
  let r = run_layered_impl plan input in
  record_result handles_layered ~t0 r;
  r

let run_fused_interpreted plan input =
  let t0 = Obs.Clock.now_ns () in
  let r = run_fused_interpreted_impl plan input in
  record_result handles_interpreted ~t0 r;
  r

let run_fused ?dst plan input =
  let t0 = Obs.Clock.now_ns () in
  let h = compile plan in
  let n = Bytebuf.length input in
  let dst = dst_for dst n in
  let checksums, tags =
    match h.c_lowering with
    | L_general { swap_first } -> run_general ~swap_first plan input dst
    | l -> (kernel_checksums l (run_kernel l plan input dst), [])
  in
  let r =
    {
      output = dst;
      checksums;
      tags;
      passes = 1;
      bytes_touched = 2 * n;
      compiled = true;
    }
  in
  record_result handles_compiled ~t0 r;
  r

(* The per-ADU form: no lookup, no result. With a kernel lowering the
   run allocates nothing. *)
let run_into h ~dst input =
  let t0 = Obs.Clock.now_ns () in
  let n = Bytebuf.length input in
  if Bytebuf.length dst <> n then
    invalid_arg "Ilp.run_into: dst length must equal input length";
  (match h.c_lowering with
  | L_general { swap_first } ->
      ignore (run_general ~swap_first h.c_plan input dst)
  | l -> ignore (run_kernel l h.c_plan input dst));
  record_run handles_compiled ~t0 ~bytes:(2 * n) ~passes:1

(* ------------------------------------------------------------------ *)
(* Fused presentation conversion: the plan's first "stage" is the
   marshaller itself (send side) or its last is the unmarshaller
   (receive side). On send, the encoder drives a Wordsink whose word/byte
   callbacks are the same combinator chain [run_general] uses — encode,
   checksum, encrypt and the delivering store happen in one pass, while
   each word is still in a register. On receive, the decoder pulls bytes
   through a demand hook that verifies/decrypts just ahead of the parse.
   This is the paper's §4 "presentation conversion in the ILP loop",
   i.e. the step from its 28 Mb/s convert-only to the 24 Mb/s
   convert+checksum figure.                                            *)
(* ------------------------------------------------------------------ *)

type source =
  | Marshal_xdr of Wire.Xdr.schema * Wire.Value.t
  | Marshal_prog of Wire.Schema.prog * Wire.Value.t
  | Marshal_xdr_interp of Wire.Xdr.schema * Wire.Value.t
  | Marshal_ber of Wire.Value.t

type sink = Unmarshal_xdr of Wire.Xdr.schema | Unmarshal_ber

(* [Marshal_xdr] resolves through the schema-program cache, so sizing is
   the compiled precomputation (O(1) for static schemas) rather than an
   interpretive walk. BER headers are value-dependent (TLV lengths), so
   BER keeps the interpretive sizer. *)
let marshal_size = function
  | Marshal_xdr (s, v) -> Wire.Schema.size (Wire.Schema.prog_of_xdr s) v
  | Marshal_prog (p, v) -> Wire.Schema.size p v
  | Marshal_xdr_interp (s, v) -> Wire.Xdr.sizeof s v
  | Marshal_ber v -> Wire.Ber.sizeof v

type unmarshal_result = {
  value : Wire.Value.t;
  consumed : int;
  checksums : (Checksum.Kind.t * int) list;
  tags : (int64 * int64) list;
}

(* Marshal/unmarshal plans go through the same shape cache, under keys
   extended with a source/sink marker, but their hit/miss traffic is
   reported separately. *)
let c_mcache_hits = Obs.Registry.counter "ilp.marshal.plan_cache.hits"
let c_mcache_misses = Obs.Registry.counter "ilp.marshal.plan_cache.misses"
let c_bytes_encoded = Obs.Registry.counter "ilp.marshal.bytes_encoded"
let c_bytes_decoded = Obs.Registry.counter "ilp.marshal.bytes_decoded"
let handles_marshal = run_handles "marshal"
let handles_unmarshal = run_handles "unmarshal"

let presentation_lookup shape =
  with_cache (fun () ->
      match Hashtbl.find_opt cache shape with
      | Some r ->
          incr cache_hits;
          Obs.Counter.incr c_mcache_hits;
          r
      | None ->
          incr cache_misses;
          Obs.Counter.incr c_mcache_misses;
          let r = lower shape in
          Hashtbl.add cache shape r;
          r)

let shape_of_source = function
  | Marshal_xdr _ | Marshal_prog _ | Marshal_xdr_interp _ -> Sh_src_xdr
  | Marshal_ber _ -> Sh_src_ber

let shape_of_sink = function
  | Unmarshal_xdr _ -> Sh_sink_xdr
  | Unmarshal_ber -> Sh_sink_ber

let run_marshal_impl source plan dst_opt =
  (match presentation_lookup (shape_of_source source :: shape_of_plan plan) with
  | Error msg -> invalid_arg ("Ilp.run_marshal: " ^ msg)
  | Ok _ -> ());
  (* A caller-provided [dst] pins the encoded length, so the sizing
     walk is skipped entirely: the overrun guard below catches an
     undersized dst mid-encode and the final [pos = n] check catches an
     oversized one, both with the same Invalid_argument the eager check
     would raise. Only the allocating path still needs [marshal_size]. *)
  let n =
    match dst_opt with
    | Some d -> Bytebuf.length d
    | None -> marshal_size source
  in
  let dst = dst_for dst_opt n in
  let stages = Array.of_list (List.map rt_of_stage plan) in
  let nst = Array.length stages in
  let db = Bytebuf.storage dst and dbase = Bytebuf.offset dst in
  (* The sink's callbacks ARE the fused loop body. Each completed word
     lands with a single store, and the stage chain runs in 64-byte block
     flushes that lag the writer by at most one block: the data is still
     L1-hot when the stages read it back, and one [rt_block64] dispatch
     per stage replaces eight [rt_word] dispatches — the AEAD and CRC
     stages additionally batch their own work (one keystream seek, four
     direct MAC folds, eight sliced CRC steps per call). The
     [base + 8 <= n] guard keeps a misbehaving encoder from writing past
     the slice (pooled buffers share backing storage). *)
  let processed = ref 0 in
  let word =
    if nst = 0 then fun base w ->
      if base + 8 > n then invalid_arg "Ilp.run_marshal: encoder overran sizeof";
      Bytes.set_int64_le db (dbase + base) w
    else fun base w ->
      if base + 8 > n then invalid_arg "Ilp.run_marshal: encoder overran sizeof";
      Bytes.set_int64_le db (dbase + base) w;
      (* Words arrive sequentially, so at most one block completes. *)
      if base + 8 - !processed = 64 then begin
        let p = !processed in
        for s = 0 to nst - 1 do
          rt_block64 stages.(s) db (dbase + p) p
        done;
        processed := p + 64
      end
  in
  let byte off b =
    if off >= n then invalid_arg "Ilp.run_marshal: encoder overran sizeof";
    Bytes.unsafe_set db (dbase + off) (Char.unsafe_chr (b land 0xff))
  in
  let sink = Wire.Wordsink.create ~word ~byte in
  (match source with
  | Marshal_xdr (s, v) -> Wire.Schema.emit (Wire.Schema.prog_of_xdr s) sink v
  | Marshal_prog (p, v) -> Wire.Schema.emit p sink v
  | Marshal_xdr_interp (s, v) -> Wire.Xdr.encode_words s v sink
  | Marshal_ber v -> Wire.Ber.encode_words v sink);
  if Wire.Wordsink.pos sink <> n then
    invalid_arg "Ilp.run_marshal: encoder emitted fewer bytes than sizeof";
  Wire.Wordsink.flush sink;
  (* Drain the sub-block tail the flush loop lagged behind on: word
     steps up to the last whole word, then the word-loop → byte-tail
     seam (always taken, even with an empty tail — the Internet-checksum
     combinator folds its lanes there), then byte steps. The seam stays
     on an 8-aligned offset, preserving checksum byte parity. *)
  let i = ref !processed in
  while !i + 8 <= n do
    let w = ref (Bytes.get_int64_le db (dbase + !i)) in
    for s = 0 to nst - 1 do
      w := rt_word stages.(s) !i !w
    done;
    Bytes.set_int64_le db (dbase + !i) !w;
    i := !i + 8
  done;
  for s = 0 to nst - 1 do
    rt_enter_tail stages.(s)
  done;
  while !i < n do
    let b = ref (Char.code (Bytes.unsafe_get db (dbase + !i))) in
    for s = 0 to nst - 1 do
      b := rt_byte stages.(s) !i !b
    done;
    Bytes.unsafe_set db (dbase + !i) (Char.unsafe_chr !b);
    incr i
  done;
  let stages = Array.to_list stages in
  let checksums = List.filter_map rt_finish stages in
  let tags = List.filter_map rt_finish_tag stages in
  ({
     output = dst;
     checksums;
     tags;
     passes = 1;
     bytes_touched = 2 * n;
     compiled = true;
   }
    : result)

let run_marshal ?dst source plan =
  let t0 = Obs.Clock.now_ns () in
  let r = run_marshal_impl source plan dst in
  record_result handles_marshal ~t0 r;
  Obs.Counter.add c_bytes_encoded (Bytebuf.length r.output);
  r

let run_unmarshal_impl plan sink input dst_opt =
  (match presentation_lookup (shape_of_plan plan @ [ shape_of_sink sink ]) with
  | Error msg -> invalid_arg ("Ilp.run_unmarshal: " ^ msg)
  | Ok _ -> ());
  let n = Bytebuf.length input in
  let dst = dst_for dst_opt n in
  let stages = Array.of_list (List.map rt_of_stage plan) in
  let nst = Array.length stages in
  let sb = Bytebuf.storage input and sbase = Bytebuf.offset input in
  let db = Bytebuf.storage dst and dbase = Bytebuf.offset dst in
  let word_end = n land lnot 7 in
  (* Watermark transform: bytes [0, wm) of [dst] are final. The decoder's
     demand hook advances it lazily, words first, just ahead of the
     parse; [dst == input] transforms in place over the borrowed view. *)
  let wm = ref 0 in
  let in_tail = ref false in
  let ensure upto =
    let upto = if upto > n then n else upto in
    if !wm < upto then begin
      while !wm < word_end && !wm < upto do
        let w = ref (Bytes.get_int64_le sb (sbase + !wm)) in
        for s = 0 to nst - 1 do
          w := rt_word stages.(s) !wm !w
        done;
        Bytes.set_int64_le db (dbase + !wm) !w;
        wm := !wm + 8
      done;
      if !wm < upto then begin
        if not !in_tail then begin
          for s = 0 to nst - 1 do
            rt_enter_tail stages.(s)
          done;
          in_tail := true
        end;
        while !wm < upto do
          let b = ref (Char.code (Bytes.unsafe_get sb (sbase + !wm))) in
          for s = 0 to nst - 1 do
            b := rt_byte stages.(s) !wm !b
          done;
          Bytes.unsafe_set db (dbase + !wm) (Char.unsafe_chr b.contents);
          incr wm
        done
      end
    end
  in
  let r = Cursor.demand_reader dst ensure in
  let value =
    match sink with
    | Unmarshal_xdr s -> Wire.Xdr.decode_reader s r
    | Unmarshal_ber -> Wire.Ber.decode_reader r
  in
  let consumed = Cursor.pos r in
  (* Integrity covers the whole unit, not just the decoded prefix: run
     the transform to the end before finishing the checksum stages. *)
  ensure n;
  if not !in_tail then
    for s = 0 to nst - 1 do
      rt_enter_tail stages.(s)
    done;
  let stages = Array.to_list stages in
  let checksums = List.filter_map rt_finish stages in
  let tags = List.filter_map rt_finish_tag stages in
  { value; consumed; checksums; tags }

let run_unmarshal ?dst plan sink input =
  let t0 = Obs.Clock.now_ns () in
  let r = run_unmarshal_impl plan sink input dst in
  record_run handles_unmarshal ~t0 ~bytes:(2 * Bytebuf.length input) ~passes:1;
  Obs.Counter.add c_bytes_decoded r.consumed;
  r

(* Lazy receive: run the manipulation plan over the whole unit (the
   checksum must cover all of it anyway), then VALIDATE instead of
   decoding — the parse proper happens later, field by field, only for
   the fields the application touches. Total on hostile input. *)

type view_result = {
  view : (Wire.View.t * int, string) Stdlib.result;
  view_checksums : (Checksum.Kind.t * int) list;
  view_tags : (int64 * int64) list;
}

let handles_view = run_handles "view"

let run_view_impl plan prog input dst_opt =
  (match presentation_lookup (shape_of_plan plan @ [ Sh_sink_xdr ]) with
  | Error msg -> invalid_arg ("Ilp.run_view: " ^ msg)
  | Ok _ -> ());
  let n = Bytebuf.length input in
  let dst = dst_for dst_opt n in
  (* Sink plans exclude Byteswap32 ([lower] rejects it before a decoder),
     so the general transform runs without the swap prologue. *)
  let view_checksums, view_tags = run_general ~swap_first:false plan input dst in
  { view = Wire.View.make prog dst ~pos:0; view_checksums; view_tags }

let run_view ?dst plan prog input =
  let t0 = Obs.Clock.now_ns () in
  let r = run_view_impl plan prog input dst in
  record_run handles_view ~t0 ~bytes:(2 * Bytebuf.length input) ~passes:1;
  (match r.view with
  | Ok (_, consumed) -> Obs.Counter.add c_bytes_decoded consumed
  | Error _ -> ());
  r
