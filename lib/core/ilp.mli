(** The Integrated Layer Processing engine.

    A receive (or send) path is declared as an ordered list of
    manipulation {!stage}s — cipher, checksums, presentation byte-order
    conversion, the final move into application space. The same
    declaration can then be executed two ways:

    - {!run_layered}: one full pass over the data per stage, with an
      intermediate buffer wherever a stage rewrites bytes — the engineering
      style layered protocol suites induce;
    - {!run_fused}: one pass, always {e compiled}. Every valid plan is
      lowered — once per plan {e shape}, through a cache — to a
      block-at-a-time loop of word-level stage combinators (64-bit-lane
      Internet checksum feeder, keystream XOR over words, byteswap32 as
      a word shuffle, copy as the carrier), with a byte tail for the
      last [len mod 8] bytes; a few whole-plan shapes short-circuit to
      the hand-fused {!Kernels}. Stage dispatch happens per word over a
      pre-lowered array, never per byte. This is §8's
      compilation-vs-interpretation distinction made executable: the
      interpreted fusion ({!run_fused_interpreted}) survives as the
      semantic oracle, the compiled path delivers the performance the
      paper claims (see experiments E2 and E14).

    All executions produce identical outputs and checksum values (a
    property the test suite checks exhaustively); they differ only in
    memory traffic and dispatch cost. {!validate} enforces the ordering
    constraints that §6 of the paper discusses: a group-permuting
    conversion can only be fused as the first stage, and a strictly
    sequential cipher poisons out-of-order processing
    ({!needs_in_order}) even though it fuses fine. *)

open Bufkit

(** Run-time parameters of an AEAD record stage: the (epoch-derived)
    ChaCha20 key, the 96-bit nonce as three u32 words, and the additional
    authenticated data. The AAD slice is only read while the stage runs,
    so a per-endpoint scratch buffer can be reused across records. *)
type aead_params = {
  aead_key : Cipher.Chacha20.key;
  aead_n0 : int;
  aead_n1 : int;
  aead_n2 : int;
  aead_aad : Bytebuf.t;
}

type stage =
  | Checksum of Checksum.Kind.t
      (** Accumulate an error-detecting code over the data {e as this
          stage sees it} (after upstream transforms). *)
  | Xor_pad of { key : int64; pos : int64 }
      (** Seekable keystream cipher ({!Cipher.Pad}); position-addressed,
          so ADUs can be processed out of order. *)
  | Rc4_stream of { key : string }
      (** Sequential stream cipher; fusable, but forces in-order
          processing across data units. Kept as the §5 chaining-pathology
          ablation — {!Aead_seal}/{!Aead_open} are the real record
          stages. *)
  | Aead_seal of aead_params
      (** ChaCha20-Poly1305 record encryption fused into the word loop:
          each word is XORed with the seekable keystream and the
          ciphertext absorbed into the MAC in the same register trip.
          The 128-bit tag lands in [result.tags]. One AEAD stage per
          plan; downstream checksum stages digest the {e ciphertext}. *)
  | Aead_open of aead_params
      (** The receive mirror: MAC the arriving ciphertext and decrypt it
          in the same pass. The computed tag lands in [result.tags] (or
          [unmarshal_result.tags]/[view_result.view_tags]) — the caller
          compares it against the transmitted tag and treats a mismatch
          as a counted drop; the stage itself never fails. *)
  | Byteswap32
      (** Presentation conversion in miniature: reverse each 4-byte
          group (big↔little endian array). Requires length ≡ 0 mod 4. *)
  | Deliver_copy
      (** The move into application address space. In the fused loop this
          is the single store the loop was going to do anyway — the
          clearest ILP win. *)

val stage_name : stage -> string
val pp_stage : Format.formatter -> stage -> unit

type plan = stage list

val validate : plan -> (unit, string) result
(** Fusion ordering constraints: at most one [Byteswap32] and only as the
    first stage; at most one [Rc4_stream] (keystream split is undefined
    otherwise); at most one AEAD stage (one plan = one record).
    [run_fused] refuses plans that do not validate. *)

val needs_in_order : plan -> bool
(** True iff some stage (an [Rc4_stream]) forbids processing data units
    out of order — the property ALF needs to avoid. AEAD stages are
    seekable and never set this. *)

type result = {
  output : Bytebuf.t;
  checksums : (Checksum.Kind.t * int) list;  (** In plan order. *)
  tags : (int64 * int64) list;
      (** Poly1305 tags of AEAD stages, in plan order (at most one). *)
  passes : int;  (** Full passes made over the data. *)
  bytes_touched : int;  (** Total bytes read + written across passes. *)
  compiled : bool;  (** The plan was dispatched to a fused kernel. *)
}

val run_layered : plan -> Bytebuf.t -> result
(** Executes each stage as its own pass. Raises [Invalid_argument] on a
    [Byteswap32] with length not a multiple of 4. *)

val run_fused : ?dst:Bytebuf.t -> plan -> Bytebuf.t -> result
(** Single-loop compiled execution ([result.compiled] is always [true]).
    Raises [Invalid_argument] if the plan does not {!validate} or on a
    bad [Byteswap32] length.

    [?dst] supplies the output buffer — typically a {!Bufkit.Pool} slice
    or a region of the application's destination, making delivery
    allocation-free. Must have exactly the input's length (else
    [Invalid_argument]); [result.output] is then [dst] itself. [dst]
    must not overlap the input, except that passing the input itself
    transforms in place when the plan has no leading [Byteswap32]. *)

(** {2 Compiled handles}

    {!run_fused} resolves its plan through the cache on every call. A
    caller that runs one plan over every ADU it receives resolves it
    once with {!compile} and runs the handle with {!run_into}: no shape
    list, no cache lock, no result record. *)

type compiled
(** A plan plus the lowering the cache holds for its shape. The plan's
    run-time parameters (keys, stream positions) are fixed with it. *)

val compile : plan -> compiled
(** One cache lookup, as {!run_fused} makes. Raises [Invalid_argument]
    if the plan does not {!validate}. *)

val run_into : compiled -> dst:Bytebuf.t -> Bytebuf.t -> unit
(** [run_into h ~dst input] runs [h] from [input] into [dst] (exactly
    the input's length, as for {!run_fused}) and records the run in the
    same [ilp.fused-compiled.*] counters and histogram, discarding the
    digests. When the plan lowers to a hand-fused kernel — copy,
    Internet checksum + copy, CRC-32 + copy, and the keystream
    variants — the run allocates nothing. *)

val run_fused_interpreted : plan -> Bytebuf.t -> result
(** The generic per-byte stage interpreter: closure-list dispatch per
    byte — the anti-pattern the paper warns about, kept as the semantic
    oracle for the compilation-vs-interpretation ablation. Same results
    as {!run_fused}, never compiled. *)

(** {1 The plan cache}

    Lowering is keyed on the plan's {e shape} (the sequence of stage
    constructors and checksum kinds) — keys and stream positions are
    run-time parameters — so a stream of per-ADU plans that differ only
    in [pos] compiles exactly once. The cache is shared across domains. *)

type cache_stats = { hits : int; misses : int; entries : int }

val plan_cache_stats : unit -> cache_stats
(** Process-lifetime totals; also exported as the
    [ilp.plan_cache.hits]/[.misses] registry counters. *)

(** {1 Fused presentation conversion}

    The paper's §4 observation, made a first-class engine feature:
    presentation conversion is itself a data-manipulation stage, so the
    marshaller can {e be} the first stage of a send plan and the
    unmarshaller the last stage of a receive plan.

    {!run_marshal} encodes a {!Wire.Value.t} while simultaneously
    running the stage chain: the encoder drives a {!Wire.Wordsink}
    whose word callback is the same combinator chain {!run_fused} uses,
    so marshal + checksum + encrypt + the delivering store happen in one
    pass — each wire word flows register → checksum lanes → keystream
    XOR → final store without the value ever existing as an intermediate
    buffer. {!run_unmarshal} mirrors it: the streaming decoder pulls
    bytes through a {!Bufkit.Cursor.demand_reader} hook that
    decrypts/verifies the input just ahead of the parse (and finishes
    the pass after the decode so integrity covers the whole unit).

    Plans containing [Byteswap32] are rejected in both directions — the
    codecs already emit/consume wire byte order. Lowerings are cached in
    the same shape cache as {!run_fused}, under source/sink-marked keys;
    their traffic is reported on the [ilp.marshal.plan_cache.*]
    counters. *)

type source =
  | Marshal_xdr of Wire.Xdr.schema * Wire.Value.t
      (** Resolved through the {!Wire.Schema} program cache: the schema
          is compiled once, then sizing and emission run the compiled
          (branchless, schema-dispatch-free) programs. Byte-identical to
          the interpretive encoder. *)
  | Marshal_prog of Wire.Schema.prog * Wire.Value.t
      (** A pre-resolved compiled program — skips even the cache lookup.
          The steady-state form for a sender that marshals one schema
          repeatedly. *)
  | Marshal_xdr_interp of Wire.Xdr.schema * Wire.Value.t
      (** The PR 5 interpretive walk ({!Wire.Xdr.encode_words}), kept as
          the ablation baseline the E19 bench and the compiled==interp
          properties compare against. *)
  | Marshal_ber of Wire.Value.t
      (** BER stays interpretive: its TLV headers are value-dependent,
          so there is no static shape to compile. *)

type sink = Unmarshal_xdr of Wire.Xdr.schema | Unmarshal_ber

val marshal_size : source -> int
(** Exact number of bytes {!run_marshal} will produce (the codec's
    [sizeof], or the compiled size program for the compiled sources).
    Raises the codec's error on a schema mismatch — except inside
    statically-sized subtrees of a compiled schema, where sizing never
    inspects the value and the mismatch surfaces in {!run_marshal}
    instead (see {!Wire.Schema.size}). *)

val run_marshal : ?dst:Bytebuf.t -> source -> plan -> result
(** Single-pass fused marshal. [result.output] holds the encoding as
    transformed by the plan (ciphers applied); [result.checksums] are
    digests of the data as each checksum stage saw it, exactly as in
    {!run_fused} — i.e. byte-identical to [run_fused plan (encode v)].
    [?dst] must have exactly {!marshal_size}[ source] bytes (typically a
    slice of a pooled datagram buffer, making the whole send path
    allocation-free). Raises [Invalid_argument] on invalid plans and the
    codec's error on schema/value mismatch. *)

type unmarshal_result = {
  value : Wire.Value.t;
  consumed : int;  (** Bytes of input the decoded value occupied. *)
  checksums : (Checksum.Kind.t * int) list;
      (** Digests over the {e entire} input (not just [consumed]), of
          the data as each stage saw it — matching the send side. *)
  tags : (int64 * int64) list;
      (** Computed Poly1305 tags of AEAD stages, over the entire input. *)
}

val run_unmarshal : ?dst:Bytebuf.t -> plan -> sink -> Bytebuf.t -> unmarshal_result
(** Single-pass fused receive decode: run the plan's transform stages
    over [input] and decode one value from the result, interleaved —
    the decoder demands bytes just ahead of the parse. [?dst] receives
    the transformed bytes (same length as the input); passing the input
    itself transforms in place, which is how a borrowed ADU view is
    decoded with zero allocation. Decode errors propagate as the
    codec's exception; checksum stages still only make one pass. *)

(** {2 Lazy receive: transform + validate, decode on demand}

    {!run_unmarshal} still materializes a {!Wire.Value.t} per unit.
    {!run_view} is the lazy mirror: one pass runs the manipulation plan
    over the whole unit (integrity must cover it all anyway) and the
    compiled {!Wire.Schema.validate} program over the result — no value
    is built, no bytes are copied beyond the plan's own store. The
    returned {!Wire.View.t} then decodes only the fields the application
    actually touches. *)

type view_result = {
  view : (Wire.View.t * int, string) Stdlib.result;
      (** The root view over the transformed bytes plus the encoding's
          length, or a validation error. Total: hostile bytes yield
          [Error], never an exception. *)
  view_checksums : (Checksum.Kind.t * int) list;
      (** Digests over the entire input, as in {!unmarshal_result}. *)
  view_tags : (int64 * int64) list;
      (** Computed Poly1305 tags of AEAD stages, as in
          {!unmarshal_result}. *)
}

val run_view : ?dst:Bytebuf.t -> plan -> Wire.Schema.prog -> Bytebuf.t -> view_result
(** [run_view plan prog input] transforms [input] under [plan] (into
    [?dst], defaulting to a fresh buffer; passing [input] itself
    transforms in place — the zero-copy borrowed-ADU form) and validates
    one [prog]-shaped value at offset 0. Trailing bytes after the value
    are reflected in the returned length, as with {!Xdr.decode_prefix}.
    The view {e borrows} [dst]; it must not outlive the buffer's owner.
    Raises [Invalid_argument] only on invalid plans (same rules as
    {!run_unmarshal}); byte content never raises. Accounted under
    [ilp.view.*]. *)
