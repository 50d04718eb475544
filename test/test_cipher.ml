open Bufkit

let qcheck t = QCheck_alcotest.to_alcotest t
let buf = Bytebuf.of_string

let hex s =
  String.concat ""
    (List.init (Bytebuf.length s) (fun i -> Printf.sprintf "%02X" (Bytebuf.get_uint8 s i)))

(* --- RC4 --- *)

(* The classic RC4 reference vectors. *)
let test_rc4_vectors () =
  let cases =
    [
      ("Key", "Plaintext", "BBF316E8D940AF0AD3");
      ("Wiki", "pedia", "1021BF0420");
      ("Secret", "Attack at dawn", "45A01F645FC35B383552544B9BF5");
    ]
  in
  List.iter
    (fun (key, plain, expect) ->
      let rc4 = Cipher.Rc4.create ~key in
      Alcotest.(check string) key expect (hex (Cipher.Rc4.transform rc4 (buf plain))))
    cases

let test_rc4_involution () =
  let plain = buf "some plaintext of moderate length" in
  let c = Cipher.Rc4.transform (Cipher.Rc4.create ~key:"k1") plain in
  let p = Cipher.Rc4.transform (Cipher.Rc4.create ~key:"k1") c in
  Alcotest.(check bool) "decrypts" true (Bytebuf.equal p plain)

let test_rc4_copy_checkpoint () =
  let a = Cipher.Rc4.create ~key:"checkpoint" in
  (* Advance, checkpoint, then verify the copy replays the same stream. *)
  for _ = 1 to 100 do
    ignore (Cipher.Rc4.keystream_byte a)
  done;
  let b = Cipher.Rc4.copy a in
  let from_a = List.init 16 (fun _ -> Cipher.Rc4.keystream_byte a) in
  let from_b = List.init 16 (fun _ -> Cipher.Rc4.keystream_byte b) in
  Alcotest.(check (list int)) "checkpoint replay" from_a from_b

let test_rc4_sequential_dependence () =
  (* Decrypting the second half without the first half's keystream fails:
     the ordering constraint the paper attributes to chained/stream
     encryption. *)
  let plain = buf "0123456789abcdef0123456789abcdef" in
  let c = Cipher.Rc4.transform (Cipher.Rc4.create ~key:"k") plain in
  let second_half = Bytebuf.shift c 16 in
  let wrong = Cipher.Rc4.transform (Cipher.Rc4.create ~key:"k") second_half in
  Alcotest.(check bool) "out-of-order decrypt garbles" false
    (Bytebuf.equal wrong (Bytebuf.shift plain 16))

let test_rc4_key_validation () =
  (match Cipher.Rc4.create ~key:"" with
  | _ -> Alcotest.fail "empty key accepted"
  | exception Invalid_argument _ -> ());
  match Cipher.Rc4.create ~key:(String.make 257 'x') with
  | _ -> Alcotest.fail "oversized key accepted"
  | exception Invalid_argument _ -> ()

(* --- Pad (seekable) --- *)

let prop_pad_involution =
  QCheck.Test.make ~name:"pad: transform twice = id" ~count:300
    QCheck.(triple int64 int64 (string_of_size Gen.(0 -- 100)))
    (fun (key, pos0, s) ->
      let pos = Int64.logand pos0 0xFFFFFFFFL in
      let pad = Cipher.Pad.create ~key in
      let b = buf s in
      Cipher.Pad.transform_at pad ~pos b;
      Cipher.Pad.transform_at pad ~pos b;
      Bytebuf.to_string b = s)

let prop_pad_out_of_order =
  QCheck.Test.make ~name:"pad: halves in any order = whole" ~count:300
    QCheck.(pair int64 (string_of_size Gen.(2 -- 100)))
    (fun (key, s) ->
      let pad = Cipher.Pad.create ~key in
      let whole = buf s in
      Cipher.Pad.transform_at pad ~pos:1000L whole;
      let parts = buf s in
      let cut = String.length s / 2 in
      let second = Bytebuf.shift parts cut in
      (* Decrypt the second range first: position-addressing makes order
         irrelevant. *)
      Cipher.Pad.transform_at pad ~pos:(Int64.of_int (1000 + cut)) second;
      Cipher.Pad.transform_at pad ~pos:1000L (Bytebuf.take parts cut);
      Bytebuf.equal whole parts)

let prop_pad_copy_fused =
  QCheck.Test.make ~name:"pad: fused copy-transform = separate" ~count:300
    QCheck.(pair int64 (string_of_size Gen.(0 -- 100)))
    (fun (key, s) ->
      let pad = Cipher.Pad.create ~key in
      let src = buf s in
      let dst = Bytebuf.create (String.length s) in
      Cipher.Pad.transform_copy_at pad ~pos:42L ~src ~dst;
      let reference = buf s in
      Cipher.Pad.transform_at pad ~pos:42L reference;
      Bytebuf.equal dst reference && Bytebuf.to_string src = s)

let test_pad_block64_consistency () =
  let pad = Cipher.Pad.create ~key:77L in
  for idx = 0 to 3 do
    let blk = Cipher.Pad.block64 pad (Int64.of_int idx) in
    for off = 0 to 7 do
      let expect =
        Int64.to_int (Int64.shift_right_logical blk (off * 8)) land 0xff
      in
      Alcotest.(check int)
        (Printf.sprintf "byte %d.%d" idx off)
        expect
        (Cipher.Pad.byte_at pad (Int64.of_int ((idx * 8) + off)))
    done
  done

(* --- Chain (CBC) --- *)

let key = Cipher.Chain.key_of_int64 0xFEEDFACEL

let prop_chain_round_trip =
  QCheck.Test.make ~name:"chain: decrypt(encrypt) = id" ~count:300
    QCheck.(pair int64 (int_range 0 16))
    (fun (iv, nblocks) ->
      let s = String.init (nblocks * 8) (fun i -> Char.chr ((i * 31 + 7) land 0xff)) in
      let c = Cipher.Chain.encrypt key ~iv (buf s) in
      Bytebuf.to_string (Cipher.Chain.decrypt key ~iv c) = s)

let test_chain_iv_matters () =
  let p = buf "16 bytes of data" in
  let c1 = Cipher.Chain.encrypt key ~iv:1L p in
  let c2 = Cipher.Chain.encrypt key ~iv:2L p in
  Alcotest.(check bool) "distinct ciphertexts" false (Bytebuf.equal c1 c2)

let test_chain_reorder_detected () =
  (* Swapping two ciphertext blocks corrupts the plaintext downstream of
     the swap — chaining "guards against malicious reordering". *)
  let p = buf "blockAAAblockBBBblockCCC" in
  let c = Cipher.Chain.encrypt key ~iv:9L p in
  let swapped = Bytebuf.copy c in
  Bytebuf.blit ~src:c ~src_pos:8 ~dst:swapped ~dst_pos:0 ~len:8;
  Bytebuf.blit ~src:c ~src_pos:0 ~dst:swapped ~dst_pos:8 ~len:8;
  let d = Cipher.Chain.decrypt key ~iv:9L swapped in
  Alcotest.(check bool) "reorder garbles" false (Bytebuf.equal d p)

let test_chain_bad_length () =
  match Cipher.Chain.encrypt key ~iv:0L (buf "seven b") with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_chain_per_adu_iv_restores_independence () =
  (* Restarting the chain at each ADU boundary (fresh IV per ADU) lets
     ADUs decrypt independently — the ALF synchronisation-point fix. *)
  let adu1 = buf "first adu 16byte" and adu2 = buf "second adu16byte" in
  let c1 = Cipher.Chain.encrypt key ~iv:101L adu1 in
  let c2 = Cipher.Chain.encrypt key ~iv:102L adu2 in
  (* Decrypt adu2 without ever seeing adu1. *)
  let d2 = Cipher.Chain.decrypt key ~iv:102L c2 in
  Alcotest.(check bool) "independent decrypt" true (Bytebuf.equal d2 adu2);
  let d1 = Cipher.Chain.decrypt key ~iv:101L c1 in
  Alcotest.(check bool) "first too" true (Bytebuf.equal d1 adu1)

(* --- ChaCha20 / Poly1305 / AEAD (RFC 8439) --- *)

(* Parse "85:d6:be" / "10 f1 e7" / plain hex into raw bytes. *)
let of_hex s =
  let b = Buffer.create 32 in
  let nib = ref (-1) in
  String.iter
    (fun c ->
      let v =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> -1
      in
      if v >= 0 then
        if !nib < 0 then nib := v
        else begin
          Buffer.add_char b (Char.chr ((!nib lsl 4) lor v));
          nib := -1
        end)
    s;
  Buffer.contents b

let le64 s off =
  let w = ref 0L in
  for j = 7 downto 0 do
    w := Int64.logor (Int64.shift_left !w 8) (Int64.of_int (Char.code s.[off + j]))
  done;
  !w

let tag_hex (lo, hi) =
  String.concat ""
    (List.init 16 (fun i ->
         let w = if i < 8 then lo else hi in
         Printf.sprintf "%02X"
           (Int64.to_int (Int64.shift_right_logical w (8 * (i land 7))) land 0xff)))

let rfc_key = of_hex "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"

(* RFC 8439 §2.3.2: keystream block, key 00..1f, counter 1. *)
let test_chacha_block_vector () =
  let key = Cipher.Chacha20.key_of_string rfc_key in
  let t = Cipher.Chacha20.create ~key ~n0:0x09000000 ~n1:0x4a000000 ~n2:0 in
  let expect =
    of_hex
      "10 f1 e7 e4 d1 3b 59 15 50 0f dd 1f a3 20 71 c4 c7 d1 f4 c7 33 c0 68 \
       03 04 22 aa 9a c3 d4 6c 4e d2 82 64 46 07 9f aa 09 14 c2 d7 05 d9 8b \
       02 a2 b5 12 9c d1 de 16 4e b9 cb d0 83 e8 a2 50 3c 4e"
  in
  let got =
    String.init 64 (fun i -> Char.chr (Cipher.Chacha20.byte_at t i))
  in
  Alcotest.(check string) "keystream block 1" (hex (buf expect)) (hex (buf got))

(* RFC 8439 §2.4.2: whole-message encryption. *)
let sunscreen =
  "Ladies and Gentlemen of the class of '99: If I could offer you only one \
   tip for the future, sunscreen would be it."

let test_chacha_encrypt_vector () =
  let key = Cipher.Chacha20.key_of_string rfc_key in
  let t = Cipher.Chacha20.create ~key ~n0:0 ~n1:0x4a000000 ~n2:0 in
  let b = buf sunscreen in
  Cipher.Chacha20.transform_at t ~pos:0 b;
  let expect =
    of_hex
      "6e 2e 35 9a 25 68 f9 80 41 ba 07 28 dd 0d 69 81 e9 7e 7a ec 1d 43 60 \
       c2 0a 27 af cc fd 9f ae 0b f9 1b 65 c5 52 47 33 ab 8f 59 3d ab cd 62 \
       b3 57 16 39 d6 24 e6 51 52 ab 8f 53 0c 35 9f 08 61 d8 07 ca 0d bf 50 \
       0d 6a 61 56 a3 8e 08 8a 22 b6 5e 52 bc 51 4d 16 cc f8 06 81 8c e9 1a \
       b7 79 37 36 5a f9 0b bf 74 a3 5b e6 b4 0b 8e ed f2 78 5e 42 87 4d"
  in
  Alcotest.(check string) "ciphertext" (hex (buf expect)) (hex b)

let test_chacha_out_of_order () =
  (* Decrypt the tail before the head: seekability makes order irrelevant
     — the property RC4 lacks. *)
  let key = Cipher.Chacha20.key_of_int64 0xC0FFEEL in
  let whole = buf sunscreen in
  Cipher.Chacha20.transform_at
    (Cipher.Chacha20.create ~key ~n0:1 ~n1:2 ~n2:3)
    ~pos:0 whole;
  let parts = buf sunscreen in
  let cut = 70 in
  let t = Cipher.Chacha20.create ~key ~n0:1 ~n1:2 ~n2:3 in
  Cipher.Chacha20.transform_at t ~pos:cut (Bytebuf.shift parts cut);
  Cipher.Chacha20.transform_at t ~pos:0 (Bytebuf.take parts cut);
  Alcotest.(check bool) "halves in any order" true (Bytebuf.equal whole parts)

let prop_chacha_word64_at =
  QCheck.Test.make ~name:"chacha20: word64_at = 8 byte_at at any offset"
    ~count:500
    QCheck.(pair int64 (int_bound 1000))
    (fun (seed, pos) ->
      let key = Cipher.Chacha20.key_of_int64 seed in
      let t = Cipher.Chacha20.create ~key ~n0:7 ~n1:8 ~n2:9 in
      let w = Cipher.Chacha20.word64_at t pos in
      List.for_all
        (fun j ->
          Int64.to_int (Int64.shift_right_logical w (8 * j)) land 0xff
          = Cipher.Chacha20.byte_at t (pos + j))
        [ 0; 1; 2; 3; 4; 5; 6; 7 ])

let test_chacha_derive () =
  let key = Cipher.Chacha20.key_of_int64 42L in
  let k1 = Cipher.Chacha20.derive key ~n0:1 ~n1:0 ~n2:0 in
  let k2 = Cipher.Chacha20.derive key ~n0:2 ~n1:0 ~n2:0 in
  let stream k = String.init 32 (fun i ->
      Char.chr (Cipher.Chacha20.byte_at (Cipher.Chacha20.create ~key:k ~n0:0 ~n1:0 ~n2:0) i))
  in
  Alcotest.(check bool) "epochs diverge" false (stream k1 = stream k2);
  let k1' = Cipher.Chacha20.derive key ~n0:1 ~n1:0 ~n2:0 in
  Alcotest.(check bool) "derivation deterministic" true (stream k1 = stream k1')

(* RFC 8439 §2.5.2: Poly1305 tag. *)
let test_poly1305_vector () =
  let k = of_hex "85:d6:be:78:57:55:6d:33:7f:44:52:fe:42:d5:06:a8:01:03:80:8a:fb:0d:b2:fd:4a:bf:f6:af:41:49:f5:1b" in
  let p =
    Cipher.Poly1305.create ~k0:(le64 k 0) ~k1:(le64 k 8) ~k2:(le64 k 16)
      ~k3:(le64 k 24)
  in
  Cipher.Poly1305.feed_sub p (buf "Cryptographic Forum Research Group");
  Alcotest.(check string) "tag"
    (hex (buf (of_hex "a8:06:1d:c1:30:51:36:c6:c2:2b:8b:af:0c:01:27:a9")))
    (tag_hex (Cipher.Poly1305.finish p))

let prop_poly1305_feed_agreement =
  (* Word feeds, byte feeds and whole-slice feeds are the same stream. *)
  QCheck.Test.make ~name:"poly1305: word/byte/sub feeds agree" ~count:300
    QCheck.(pair int64 (string_of_size Gen.(0 -- 80)))
    (fun (seed, s) ->
      let k = Cipher.Chacha20.key_of_int64 seed in
      let k0, k1, k2, k3 =
        Cipher.Chacha20.poly_key (Cipher.Chacha20.create ~key:k ~n0:0 ~n1:0 ~n2:0)
      in
      let mk () = Cipher.Poly1305.create ~k0 ~k1 ~k2 ~k3 in
      let via_sub = mk () in
      Cipher.Poly1305.feed_sub via_sub (buf s);
      let via_bytes = mk () in
      String.iter (fun c -> Cipher.Poly1305.feed_byte via_bytes (Char.code c)) s;
      Cipher.Poly1305.finish via_sub = Cipher.Poly1305.finish via_bytes)

(* RFC 8439 §2.8.2: the combined AEAD construction. *)
let aead_key = Cipher.Chacha20.key_of_string
    (of_hex "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f")

let aead_aad = of_hex "50 51 52 53 c0 c1 c2 c3 c4 c5 c6 c7"
let aead_n0 = 0x00000007
let aead_n1 = 0x43424140
let aead_n2 = 0x47464544

let aead_ct_expect =
  of_hex
    "d3 1a 8d 34 64 8e 60 db 7b 86 af bc 53 ef 7e c2 a4 ad ed 51 29 6e 08 fe \
     a9 e2 b5 a7 36 ee 62 d6 3d be a4 5e 8c a9 67 12 82 fa fb 69 da 92 72 8b \
     1a 71 de 0a 9e 06 0b 29 05 d6 a5 b6 7e cd 3b 36 92 dd bd 7f 2d 77 8b 8c \
     98 03 ae e3 28 09 1b 58 fa b3 24 e4 fa d6 75 94 55 85 80 8b 48 31 d7 bc \
     3f f4 de f0 8e 4b 7a 9d e5 76 d2 65 86 ce c6 4b 61 16"

let test_aead_vector () =
  let b = buf sunscreen in
  let lo, hi =
    Cipher.Aead.seal_in_place ~key:aead_key ~n0:aead_n0 ~n1:aead_n1
      ~n2:aead_n2 ~aad:(buf aead_aad) b
  in
  Alcotest.(check string) "ciphertext" (hex (buf aead_ct_expect)) (hex b);
  Alcotest.(check string) "tag"
    (hex (buf (of_hex "1a:e1:0b:59:4f:09:e2:6a:7e:90:2e:cb:d0:60:06:91")))
    (tag_hex (lo, hi));
  Alcotest.(check bool) "opens" true
    (Cipher.Aead.open_in_place ~key:aead_key ~n0:aead_n0 ~n1:aead_n1
       ~n2:aead_n2 ~aad:(buf aead_aad) b ~lo ~hi);
  Alcotest.(check string) "round trip" sunscreen (Bytebuf.to_string b)

let test_aead_tamper () =
  let b = buf sunscreen in
  let lo, hi =
    Cipher.Aead.seal_in_place ~key:aead_key ~n0:aead_n0 ~n1:aead_n1
      ~n2:aead_n2 ~aad:(buf aead_aad) b
  in
  (* Flip one ciphertext bit. *)
  Bytebuf.set_uint8 b 17 (Bytebuf.get_uint8 b 17 lxor 0x40);
  Alcotest.(check bool) "ct flip fails auth" false
    (Cipher.Aead.open_in_place ~key:aead_key ~n0:aead_n0 ~n1:aead_n1
       ~n2:aead_n2 ~aad:(buf aead_aad) (Bytebuf.copy b) ~lo ~hi);
  Bytebuf.set_uint8 b 17 (Bytebuf.get_uint8 b 17 lxor 0x40);
  (* Flip a tag bit. *)
  Alcotest.(check bool) "tag flip fails auth" false
    (Cipher.Aead.open_in_place ~key:aead_key ~n0:aead_n0 ~n1:aead_n1
       ~n2:aead_n2 ~aad:(buf aead_aad) (Bytebuf.copy b)
       ~lo:(Int64.logxor lo 1L) ~hi);
  (* Flip an AAD bit. *)
  let aad' = buf aead_aad in
  Bytebuf.set_uint8 aad' 0 (Bytebuf.get_uint8 aad' 0 lxor 1);
  Alcotest.(check bool) "aad flip fails auth" false
    (Cipher.Aead.open_in_place ~key:aead_key ~n0:aead_n0 ~n1:aead_n1
       ~n2:aead_n2 ~aad:aad' (Bytebuf.copy b) ~lo ~hi);
  (* Wrong nonce (as a flipped nonce-deriving header would produce). *)
  Alcotest.(check bool) "nonce flip fails auth" false
    (Cipher.Aead.open_in_place ~key:aead_key ~n0:(aead_n0 lxor 2) ~n1:aead_n1
       ~n2:aead_n2 ~aad:(buf aead_aad) (Bytebuf.copy b) ~lo ~hi)

let prop_aead_fused_combinators =
  (* Driving the payload word-by-word through the combinators (the fused
     loop's view of the record) equals the whole-buffer oracle. *)
  QCheck.Test.make ~name:"aead: word/byte combinators = in-place oracle"
    ~count:300
    QCheck.(pair int64 (string_of_size Gen.(0 -- 150)))
    (fun (seed, s) ->
      let key = Cipher.Chacha20.key_of_int64 seed in
      let aad = buf "aad bytes" in
      let oracle = buf s in
      let olo, ohi =
        Cipher.Aead.seal_in_place ~key ~n0:5 ~n1:6 ~n2:7 ~aad oracle
      in
      let t = Cipher.Aead.create ~key ~n0:5 ~n1:6 ~n2:7 ~aad in
      let n = String.length s in
      let out = Bytes.create n in
      let i = ref 0 in
      while !i + 8 <= n do
        let w = le64 s !i in
        Bytes.set_int64_le out !i (Cipher.Aead.seal_word t !i w);
        i := !i + 8
      done;
      while !i < n do
        Bytes.set out !i
          (Char.chr (Cipher.Aead.seal_byte t !i (Char.code s.[!i])));
        incr i
      done;
      let lo, hi = Cipher.Aead.tag t in
      Bytes.to_string out = Bytebuf.to_string oracle && lo = olo && hi = ohi)

(* The whole-buffer seal/open walks 64-byte blocks, then words, then
   bytes; the fused plan's AEAD stage walks words. Every length 0-300 at
   every slice offset 0-7 gives the same bytes and tags both ways. *)
let test_aead_block_walk () =
  let key = Cipher.Chacha20.key_of_int64 0x5EC0DEL in
  let aad = buf "header bytes as AAD" in
  let params =
    {
      Alf_core.Ilp.aead_key = key;
      aead_n0 = 3;
      aead_n1 = 9;
      aead_n2 = 27;
      aead_aad = aad;
    }
  in
  let slice off n f =
    let b = Bytebuf.sub (Bytebuf.create (n + 8)) ~pos:off ~len:n in
    for i = 0 to n - 1 do
      Bytebuf.set_uint8 b i (f i)
    done;
    b
  in
  for n = 0 to 300 do
    for off = 0 to 7 do
      let plain = slice off n (fun i -> ((i * 29) + n) land 0xff) in
      let sealed =
        Alf_core.Ilp.run_fused [ Alf_core.Ilp.Aead_seal params ] plain
      in
      let ct = slice off n (Bytebuf.get_uint8 plain) in
      let tag = Cipher.Aead.seal_in_place ~key ~n0:3 ~n1:9 ~n2:27 ~aad ct in
      let what = Printf.sprintf "len %d offset %d" n off in
      Alcotest.(check string) (what ^ ": sealed bytes")
        (hex sealed.Alf_core.Ilp.output) (hex ct);
      if sealed.Alf_core.Ilp.tags <> [ tag ] then
        Alcotest.failf "%s: seal tag differs" what;
      let opened =
        Alf_core.Ilp.run_fused [ Alf_core.Ilp.Aead_open params ] ct
      in
      let tag' =
        Cipher.Aead.open_in_place_tag ~key ~n0:3 ~n1:9 ~n2:27 ~aad ct
      in
      Alcotest.(check string) (what ^ ": opened bytes")
        (hex opened.Alf_core.Ilp.output) (hex ct);
      Alcotest.(check string) (what ^ ": round trip") (hex plain) (hex ct);
      if opened.Alf_core.Ilp.tags <> [ tag' ] || tag' <> tag then
        Alcotest.failf "%s: open tag differs" what
    done
  done

let prop_pad_word64_at =
  QCheck.Test.make ~name:"pad: word64_at = 8 byte_at at any offset" ~count:500
    QCheck.(pair int64 (int_bound 10000))
    (fun (key, pos) ->
      let pad = Cipher.Pad.create ~key in
      let pos = Int64.of_int pos in
      let w = Cipher.Pad.word64_at pad pos in
      List.for_all
        (fun j ->
          Int64.to_int (Int64.shift_right_logical w (8 * j)) land 0xff
          = Cipher.Pad.byte_at pad (Int64.add pos (Int64.of_int j)))
        [ 0; 1; 2; 3; 4; 5; 6; 7 ])

let () =
  Alcotest.run "cipher"
    [
      ( "rc4",
        [
          Alcotest.test_case "reference vectors" `Quick test_rc4_vectors;
          Alcotest.test_case "involution" `Quick test_rc4_involution;
          Alcotest.test_case "copy checkpoint" `Quick test_rc4_copy_checkpoint;
          Alcotest.test_case "sequential dependence" `Quick
            test_rc4_sequential_dependence;
          Alcotest.test_case "key validation" `Quick test_rc4_key_validation;
        ] );
      ( "pad",
        [
          Alcotest.test_case "block64 vs byte_at" `Quick test_pad_block64_consistency;
          qcheck prop_pad_involution;
          qcheck prop_pad_out_of_order;
          qcheck prop_pad_copy_fused;
          qcheck prop_pad_word64_at;
        ] );
      ( "chacha20",
        [
          Alcotest.test_case "rfc 8439 keystream block" `Quick
            test_chacha_block_vector;
          Alcotest.test_case "rfc 8439 encryption" `Quick
            test_chacha_encrypt_vector;
          Alcotest.test_case "out-of-order halves" `Quick test_chacha_out_of_order;
          Alcotest.test_case "epoch derivation" `Quick test_chacha_derive;
          qcheck prop_chacha_word64_at;
        ] );
      ( "poly1305",
        [
          Alcotest.test_case "rfc 8439 tag" `Quick test_poly1305_vector;
          qcheck prop_poly1305_feed_agreement;
        ] );
      ( "aead",
        [
          Alcotest.test_case "rfc 8439 seal/open" `Quick test_aead_vector;
          Alcotest.test_case "tamper rejected" `Quick test_aead_tamper;
          Alcotest.test_case "block walk = word-grain plan stage" `Quick
            test_aead_block_walk;
          qcheck prop_aead_fused_combinators;
        ] );
      ( "chain",
        [
          Alcotest.test_case "iv matters" `Quick test_chain_iv_matters;
          Alcotest.test_case "reorder detected" `Quick test_chain_reorder_detected;
          Alcotest.test_case "bad length" `Quick test_chain_bad_length;
          Alcotest.test_case "per-ADU IV independence" `Quick
            test_chain_per_adu_iv_restores_independence;
          qcheck prop_chain_round_trip;
        ] );
    ]
