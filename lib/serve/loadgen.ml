open Bufkit
open Alf_core

type config = {
  sessions : int;
  adus_per_session : int;
  payload_len : int;
  base_port : int;
  streams_per_port : int;
  server : int;
  server_port : int;
  integrity : Checksum.Kind.t option;
  secure : Secure.Record.t option;
}

let default_config =
  {
    sessions = 1000;
    adus_per_session = 2;
    payload_len = 64;
    base_port = 20000;
    streams_per_port = 1000;
    server = 0;
    server_port = 7000;
    integrity = Some Checksum.Kind.Crc32;
    secure = None;
  }

let ports_used cfg =
  (cfg.sessions + cfg.streams_per_port - 1) / cfg.streams_per_port

type stats = {
  mutable sent_datagrams : int;
  mutable sent_bytes : int;
  mutable send_failed : int;
  mutable dones_rx : int;
  mutable nacks_rx : int;
  mutable regens : int;
  mutable recloses : int;
}

type t = {
  cfg : config;
  io : Dgram.t;
  sec : Secure.Record.t option;  (* own clone: private AAD scratch *)
  scratch : Bytebuf.t;
  data_view : Bytebuf.t;  (* the prefix of [scratch] a data datagram fills *)
  close_view : Bytebuf.t;  (* ... and a CLOSE *)
  ctl : Ctl.fields;  (* reply parse scratch *)
  done_flags : Bytes.t;
  mutable done_total : int;
  mutable cursor : int;  (* r * sessions + k over data rounds, then CLOSE *)
  regen : (int * int) Queue.t;  (* (session, index) repairs from NACKs *)
  reclose : int Queue.t;
  stats : stats;
}

(* Session k lives at (base_port + k / streams_per_port,
   stream 1 + k mod streams_per_port): enough port fan-out to name any
   number of sessions while every stream id stays 16-bit. *)
let port_of t k = t.cfg.base_port + (k / t.cfg.streams_per_port)
let stream_of t k = 1 + (k mod t.cfg.streams_per_port)

(* The session a reply names, or -1. *)
let session_of t ~port ~stream =
  let k =
    ((port - t.cfg.base_port) * t.cfg.streams_per_port) + (stream - 1)
  in
  if
    k >= 0 && k < t.cfg.sessions && port_of t k = port && stream_of t k = stream
  then k
  else -1

let payload_byte k index j = (k * 131) + (index * 31) + (j * 7) + 5

let send t k view =
  let ok =
    t.io.Dgram.send ~dst:t.cfg.server ~dst_port:t.cfg.server_port
      ~src_port:(port_of t k) view
  in
  t.stats.sent_datagrams <- t.stats.sent_datagrams + 1;
  t.stats.sent_bytes <- t.stats.sent_bytes + Bytebuf.length view;
  if not ok then t.stats.send_failed <- t.stats.send_failed + 1

(* One reusable scratch holds the whole sealed datagram — the substrates
   copy (or transmit) synchronously, so nothing is retained. The frame
   and ADU headers are stored field by field at their fixed offsets
   (see Framing and Adu.encode); without a record layer nothing here
   allocates. *)
let emit_adu t k index =
  let cfg = t.cfg in
  let plen = cfg.payload_len in
  (* Sealed payloads carry the 20-byte record trailer after the
     ciphertext; every length field below speaks [splen]. *)
  let splen =
    plen + match t.sec with None -> 0 | Some _ -> Secure.Record.overhead
  in
  let b = t.scratch and stream = stream_of t k in
  Bytebuf.set_uint8 b 0 Framing.frag_magic;
  Bytebuf.set_uint16_be b 1 stream;
  Bytebuf.set_uint32_be b 3 index;
  Bytebuf.set_uint16_be b 7 0 (* frag_idx *);
  Bytebuf.set_uint16_be b 9 1 (* nfrags *);
  Bytebuf.set_uint32_be b 11 (Adu.header_size + splen);
  Bytebuf.set_uint32_be b 15 0 (* frag_off *);
  let adu_pos = Framing.fragment_header_size in
  let payload_pos = adu_pos + Adu.header_size in
  let dest_off = index * plen in
  Bytebuf.set_uint16_be b adu_pos Adu.magic;
  Bytebuf.set_uint16_be b (adu_pos + 2) stream;
  Bytebuf.set_uint32_be b (adu_pos + 4) index;
  Bytebuf.set_uint32_be b (adu_pos + 8) (dest_off lsr 32);
  Bytebuf.set_uint32_be b (adu_pos + 12) dest_off;
  Bytebuf.set_uint32_be b (adu_pos + 16) plen (* dest_len *);
  Bytebuf.set_uint32_be b (adu_pos + 20) 0 (* timestamp_us *);
  Bytebuf.set_uint32_be b (adu_pos + 24) 0;
  Bytebuf.set_uint32_be b (adu_pos + 28) splen;
  let bytes = Bytebuf.storage b and base = Bytebuf.offset b + payload_pos in
  for j = 0 to plen - 1 do
    Bytes.unsafe_set bytes (base + j)
      (Char.unsafe_chr (payload_byte k index j land 0xff))
  done;
  (match t.sec with
  | None -> ()
  | Some rc ->
      let name =
        Adu.name ~dest_off ~dest_len:plen ~stream ~index ()
      in
      let e, pr = Secure.Record.seal_params rc name in
      let ct = Bytebuf.sub b ~pos:payload_pos ~len:plen in
      let tag =
        Cipher.Aead.seal_in_place ~key:pr.Ilp.aead_key ~n0:pr.Ilp.aead_n0
          ~n1:pr.Ilp.aead_n1 ~n2:pr.Ilp.aead_n2 ~aad:pr.Ilp.aead_aad ct
      in
      Secure.Record.write_trailer
        (Bytebuf.sub b ~pos:(payload_pos + plen) ~len:Secure.Record.overhead)
        ~e ~tag);
  Adu.write_crc b ~pos:adu_pos ~payload_len:splen;
  ignore (Ctl.seal_in_place cfg.integrity b ~len:(payload_pos + splen));
  send t k t.data_view

let emit_close t k =
  let body =
    Ctl.write_close t.scratch ~stream:(stream_of t k)
      ~total:t.cfg.adus_per_session
  in
  ignore (Ctl.seal_in_place t.cfg.integrity t.scratch ~len:body);
  send t k t.close_view

let is_done t k = Bytes.get t.done_flags k <> '\000'

let handle t ~port buf =
  let len =
    Ctl.unsealed_length t.cfg.integrity buf ~len:(Bytebuf.length buf)
  in
  let c = t.ctl in
  let tag = if len < 0 then -1 else Ctl.read c buf ~len in
  if tag = Ctl.tag_done then begin
    t.stats.dones_rx <- t.stats.dones_rx + 1;
    let k = session_of t ~port ~stream:c.Ctl.stream in
    if k >= 0 && not (is_done t k) then begin
      Bytes.set t.done_flags k '\001';
      t.done_total <- t.done_total + 1
    end
  end
  else if tag = Ctl.tag_nack then begin
    t.stats.nacks_rx <- t.stats.nacks_rx + 1;
    let k = session_of t ~port ~stream:c.Ctl.stream in
    if k >= 0 then
      for j = 0 to c.Ctl.count - 1 do
        let i = Ctl.index c buf j in
        if i < t.cfg.adus_per_session then Queue.add (k, i) t.regen
      done
  end

let create ~io cfg =
  if cfg.sessions < 1 then invalid_arg "Loadgen.create: sessions";
  if cfg.adus_per_session < 0 then invalid_arg "Loadgen.create: adus";
  if cfg.streams_per_port < 1 || cfg.streams_per_port > 0xFFFE then
    invalid_arg "Loadgen.create: streams_per_port";
  if cfg.payload_len < 0 then invalid_arg "Loadgen.create: payload_len";
  let dgram_size =
    Framing.fragment_header_size + Adu.header_size + cfg.payload_len
    + (match cfg.secure with None -> 0 | Some _ -> Secure.Record.overhead)
    + Ctl.trailer_size
  in
  if dgram_size > io.Dgram.max_payload then
    invalid_arg "Loadgen.create: payload_len exceeds the substrate MTU";
  let trailer =
    match cfg.integrity with Some _ -> Ctl.trailer_size | None -> 0
  in
  let scratch = Bytebuf.create (max dgram_size 64) in
  let t =
    {
      cfg;
      io;
      sec = Option.map Secure.Record.clone cfg.secure;
      scratch;
      data_view =
        Bytebuf.take scratch (dgram_size - Ctl.trailer_size + trailer);
      close_view = Bytebuf.take scratch (7 + trailer);
      ctl = Ctl.fields ();
      done_flags = Bytes.make cfg.sessions '\000';
      done_total = 0;
      cursor = 0;
      regen = Queue.create ();
      reclose = Queue.create ();
      stats =
        {
          sent_datagrams = 0;
          sent_bytes = 0;
          send_failed = 0;
          dones_rx = 0;
          nacks_rx = 0;
          regens = 0;
          recloses = 0;
        };
    }
  in
  for p = 0 to ports_used cfg - 1 do
    let port = cfg.base_port + p in
    io.Dgram.bind ~port (fun ~src:_ ~src_port:_ buf -> handle t ~port buf)
  done;
  t

let total_emissions t = t.cfg.sessions * (t.cfg.adus_per_session + 1)
let emitted_all t = t.cursor >= total_emissions t

(* Round-robin across sessions — every session's ADU 0 goes out before any
   session's ADU 1, so peak concurrency equals the session count — then a
   CLOSE round. Repairs and re-CLOSEs take priority over fresh emission. *)
let step t ~budget =
  let sent = ref 0 in
  while !sent < budget && not (Queue.is_empty t.regen) do
    let k, i = Queue.pop t.regen in
    if not (is_done t k) then begin
      emit_adu t k i;
      t.stats.regens <- t.stats.regens + 1;
      incr sent
    end
  done;
  while !sent < budget && not (Queue.is_empty t.reclose) do
    let k = Queue.pop t.reclose in
    if not (is_done t k) then begin
      emit_close t k;
      t.stats.recloses <- t.stats.recloses + 1;
      incr sent
    end
  done;
  while !sent < budget && not (emitted_all t) do
    let r = t.cursor / t.cfg.sessions and k = t.cursor mod t.cfg.sessions in
    if r < t.cfg.adus_per_session then emit_adu t k r else emit_close t k;
    t.cursor <- t.cursor + 1;
    incr sent
  done;
  !sent

let nudge t =
  for k = 0 to t.cfg.sessions - 1 do
    if not (is_done t k) then Queue.add k t.reclose
  done

let pending_repairs t = Queue.length t.regen + Queue.length t.reclose
let done_count t = t.done_total
let finished t = emitted_all t && t.done_total = t.cfg.sessions
let stats t = t.stats
let session_port t k = port_of t k
let session_stream t k = stream_of t k
