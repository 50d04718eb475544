open Bufkit

let check_same_length src dst what =
  if Bytebuf.length src <> Bytebuf.length dst then
    invalid_arg (what ^ ": src and dst lengths differ")

let copy ~src ~dst =
  check_same_length src dst "Kernels.copy";
  Bytebuf.blit ~src ~src_pos:0 ~dst ~dst_pos:0 ~len:(Bytebuf.length src)

let copy_words ~src ~dst =
  check_same_length src dst "Kernels.copy_words";
  let sb = Bytebuf.storage src and sbase = Bytebuf.offset src in
  let len = Bytebuf.length src in
  let db = Bytebuf.storage dst and dbase = Bytebuf.offset dst in
  let i = ref 0 in
  while len - !i >= 8 do
    Bytes.set_int64_ne db (dbase + !i) (Bytes.get_int64_ne sb (sbase + !i));
    i := !i + 8
  done;
  while !i < len do
    Bytes.unsafe_set db (dbase + !i) (Bytes.unsafe_get sb (sbase + !i));
    incr i
  done

let copy_bytes ~src ~dst =
  check_same_length src dst "Kernels.copy_bytes";
  let n = Bytebuf.length src in
  for i = 0 to n - 1 do
    Bytebuf.unsafe_set dst i (Bytebuf.unsafe_get src i)
  done

let fold16 s =
  let rec go s = if s > 0xffff then go ((s land 0xffff) + (s lsr 16)) else s in
  go s

let swap16 s = ((s land 0xff) lsl 8) lor ((s lsr 8) land 0xff)

(* Sum the four 16-bit lanes of a native little-endian 64-bit load. On a
   little-endian machine each lane is a byte-swapped network-order word;
   one's-complement addition commutes with the swap, so we swap once at
   the end (the classic RFC 1071 byte-order trick). *)
let lane_sum_le x =
  Int64.to_int (Int64.logand x 0xFFFFL)
  + (Int64.to_int (Int64.shift_right_logical x 16) land 0xFFFF)
  + (Int64.to_int (Int64.shift_right_logical x 32) land 0xFFFF)
  + (Int64.to_int (Int64.shift_right_logical x 48) land 0xFFFF)

(* The checksum of [len] bytes at [base] of [bytes], as an unfolded sum in
   network byte order; shared by the plain and fused kernels. *)
let raw_sum bytes base len =
  let i = ref 0 in
  let be_sum = ref 0 in
  if not Sys.big_endian then begin
    let lanes = ref 0 in
    while len - !i >= 8 do
      lanes := !lanes + lane_sum_le (Bytes.get_int64_ne bytes (base + !i));
      if !lanes > 0x3FFFFFFF then lanes := fold16 !lanes;
      i := !i + 8
    done;
    be_sum := swap16 (fold16 !lanes)
  end
  else
    while len - !i >= 8 do
      (* Big-endian host: native lanes are already network order. *)
      let x = Bytes.get_int64_ne bytes (base + !i) in
      be_sum := !be_sum + lane_sum_le x;
      if !be_sum > 0x3FFFFFFF then be_sum := fold16 !be_sum;
      i := !i + 8
    done;
  while len - !i >= 2 do
    be_sum :=
      !be_sum
      + ((Char.code (Bytes.unsafe_get bytes (base + !i)) lsl 8)
        lor Char.code (Bytes.unsafe_get bytes (base + !i + 1)));
    i := !i + 2
  done;
  if !i < len then
    be_sum := !be_sum + (Char.code (Bytes.unsafe_get bytes (base + !i)) lsl 8);
  !be_sum

let checksum buf =
  let bytes = Bytebuf.storage buf and base = Bytebuf.offset buf in
  let len = Bytebuf.length buf in
  lnot (fold16 (raw_sum bytes base len)) land 0xffff

let checksum_bytes buf =
  let n = Bytebuf.length buf in
  let sum = ref 0 in
  for i = 0 to n - 1 do
    let b = Char.code (Bytebuf.unsafe_get buf i) in
    sum := !sum + (if i land 1 = 0 then b lsl 8 else b);
    if !sum > 0x3FFFFFFF then sum := fold16 !sum
  done;
  lnot (fold16 !sum) land 0xffff

let copy_checksum ~src ~dst =
  check_same_length src dst "Kernels.copy_checksum";
  let sb = Bytebuf.storage src and sbase = Bytebuf.offset src in
  let len = Bytebuf.length src in
  let db = Bytebuf.storage dst and dbase = Bytebuf.offset dst in
  let i = ref 0 in
  let be_sum = ref 0 in
  let lanes = ref 0 in
  while len - !i >= 8 do
    let x = Bytes.get_int64_ne sb (sbase + !i) in
    Bytes.set_int64_ne db (dbase + !i) x;
    lanes := !lanes + lane_sum_le x;
    if !lanes > 0x3FFFFFFF then lanes := fold16 !lanes;
    i := !i + 8
  done;
  be_sum := (if Sys.big_endian then fold16 !lanes else swap16 (fold16 !lanes));
  while len - !i >= 2 do
    let b0 = Bytes.unsafe_get sb (sbase + !i) in
    let b1 = Bytes.unsafe_get sb (sbase + !i + 1) in
    Bytes.unsafe_set db (dbase + !i) b0;
    Bytes.unsafe_set db (dbase + !i + 1) b1;
    be_sum := !be_sum + ((Char.code b0 lsl 8) lor Char.code b1);
    i := !i + 2
  done;
  if !i < len then begin
    let b0 = Bytes.unsafe_get sb (sbase + !i) in
    Bytes.unsafe_set db (dbase + !i) b0;
    be_sum := !be_sum + (Char.code b0 lsl 8)
  end;
  lnot (fold16 !be_sum) land 0xffff

(* Block-grain fusion: each 64-byte block is moved with one [blit] and
   folded into the CRC straight from the destination while it is still
   in L1 — eight sliced word steps per call, no per-byte table chain. *)
let copy_crc32 ~src ~dst =
  check_same_length src dst "Kernels.copy_crc32";
  let len = Bytebuf.length src in
  let sb = Bytebuf.storage src and sbase = Bytebuf.offset src in
  let db = Bytebuf.storage dst and dbase = Bytebuf.offset dst in
  let st = ref Checksum.Crc32.init in
  let i = ref 0 in
  while len - !i >= 64 do
    Bytes.blit sb (sbase + !i) db (dbase + !i) 64;
    st := Checksum.Crc32.feed_block64 !st db (dbase + !i);
    i := !i + 64
  done;
  let rest = len - !i in
  Bytes.blit sb (sbase + !i) db (dbase + !i) rest;
  Checksum.Crc32.finish_int (Checksum.Crc32.feed_sub !st dst ~pos:!i ~len:rest)

let copy_checksum_xor ~src ~dst ~key ~stream_pos =
  check_same_length src dst "Kernels.copy_checksum_xor";
  let pad = Cipher.Pad.create ~key in
  let sb = Bytebuf.storage src and sbase = Bytebuf.offset src in
  let len = Bytebuf.length src in
  let db = Bytebuf.storage dst and dbase = Bytebuf.offset dst in
  let i = ref 0 in
  let be_sum = ref 0 in
  if not Sys.big_endian then begin
    (* [word64_at] assembles the keystream for any stream position, so
       unaligned ADU offsets take the word path too. *)
    let lanes = ref 0 in
    while len - !i >= 8 do
      let x = Bytes.get_int64_ne sb (sbase + !i) in
      let k = Cipher.Pad.word64_at pad (Int64.add stream_pos (Int64.of_int !i)) in
      let p = Int64.logxor x k in
      Bytes.set_int64_ne db (dbase + !i) p;
      lanes := !lanes + lane_sum_le p;
      if !lanes > 0x3FFFFFFF then lanes := fold16 !lanes;
      i := !i + 8
    done;
    be_sum := swap16 (fold16 !lanes)
  end;
  (* Tail (and the whole buffer on big-endian hosts): byte at a time. *)
  while !i < len do
    let k = Cipher.Pad.byte_at pad (Int64.add stream_pos (Int64.of_int !i)) in
    let p = Char.code (Bytes.unsafe_get sb (sbase + !i)) lxor k in
    Bytes.unsafe_set db (dbase + !i) (Char.unsafe_chr p);
    be_sum := !be_sum + (if !i land 1 = 0 then p lsl 8 else p);
    if !be_sum > 0x3FFFFFFF then be_sum := fold16 !be_sum;
    incr i
  done;
  lnot (fold16 !be_sum) land 0xffff

let checksum_xor_copy ~src ~dst ~key ~stream_pos =
  check_same_length src dst "Kernels.checksum_xor_copy";
  let pad = Cipher.Pad.create ~key in
  let sb = Bytebuf.storage src and sbase = Bytebuf.offset src in
  let len = Bytebuf.length src in
  let db = Bytebuf.storage dst and dbase = Bytebuf.offset dst in
  let i = ref 0 in
  let be_sum = ref 0 in
  if not Sys.big_endian then begin
    let lanes = ref 0 in
    while len - !i >= 8 do
      let x = Bytes.get_int64_ne sb (sbase + !i) in
      let k = Cipher.Pad.word64_at pad (Int64.add stream_pos (Int64.of_int !i)) in
      Bytes.set_int64_ne db (dbase + !i) (Int64.logxor x k);
      lanes := !lanes + lane_sum_le x;
      if !lanes > 0x3FFFFFFF then lanes := fold16 !lanes;
      i := !i + 8
    done;
    be_sum := swap16 (fold16 !lanes)
  end;
  while !i < len do
    let p = Char.code (Bytes.unsafe_get sb (sbase + !i)) in
    let k = Cipher.Pad.byte_at pad (Int64.add stream_pos (Int64.of_int !i)) in
    Bytes.unsafe_set db (dbase + !i) (Char.unsafe_chr (p lxor k));
    be_sum := !be_sum + (if !i land 1 = 0 then p lsl 8 else p);
    if !be_sum > 0x3FFFFFFF then be_sum := fold16 !be_sum;
    incr i
  done;
  lnot (fold16 !be_sum) land 0xffff

let serial_copy_then_checksum ~src ~dst =
  copy ~src ~dst;
  checksum dst

let serial_xor_copy_checksum ~src ~dst ~key ~stream_pos =
  let pad = Cipher.Pad.create ~key in
  (* Pass 1: copy. Pass 2: decrypt in place. Pass 3: checksum. *)
  copy ~src ~dst;
  Cipher.Pad.transform_at pad ~pos:stream_pos dst;
  checksum dst
