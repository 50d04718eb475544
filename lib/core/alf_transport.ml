open Bufkit
open Netsim

(* Wire dialect — control tags, integrity trailer, message codecs — lives
   in {!Ctl}, shared with the sharded {!Serve} engine. *)
let trailer_size = Ctl.trailer_size
let seal = Ctl.seal
let unseal = Ctl.unseal

type sender_config = {
  mtu : int;
  pace_bps : float option;
  close_retry : float;
  close_attempts : int;
  integrity : Checksum.Kind.t option;
  fec_k : int;
  fec_loss_threshold : float;
}

let default_sender_config =
  {
    mtu = 1472;
    pace_bps = None;
    close_retry = 0.05;
    close_attempts = 64;
    integrity = Some Checksum.Kind.Crc32;
    fec_k = 4;
    fec_loss_threshold = 2.0;
  }

let fec_enabled c = c.fec_loss_threshold <= 1.0 && c.fec_k >= 2

(* Wire budget left for a fragment once the trailer (and, when FEC may
   activate mid-stream, the FEC tag + header + length prefix) is
   reserved. Reserved up front so fragment sizes do not change when FEC
   switches on. *)
let frag_budget c =
  let t = match c.integrity with Some _ -> trailer_size | None -> 0 in
  let f = if fec_enabled c then 1 + Fec.header_size + 2 else 0 in
  c.mtu - t - f

type sender_stats = {
  mutable adus_sent : int;
  mutable frags_sent : int;
  mutable bytes_sent : int;
  mutable nacks_received : int;
  mutable adus_retransmitted : int;
  mutable bytes_retransmitted : int;
  mutable adus_gone : int;
  mutable store_peak : int;
  mutable nack_backoff_resets : int;
}

(* One queued wire block. The fused send path queues pre-sealed pooled
   datagrams: [presealed] skips the allocating [seal] at transmission
   time, and [release] returns the buffer to its pool once the send has
   handed the bytes to the substrate (Udp copies synchronously). *)
type outq_item = {
  oq_index : int;
  oq_frag : Bytebuf.t;
  oq_presealed : bool;
  oq_release : unit -> unit;
}

let no_release = ignore

(* A registry metric bound to its name once per endpoint. The name is
   looked up on the first bump only, so the registry ends up holding
   exactly the names it would if every bump still looked its name up;
   later bumps pay no registry mutex, closure or string hash. Two domains
   racing a first bump both get the registry's one instance. *)
type 'a handle = { name : string; find : string -> 'a; mutable bound : 'a option }

let counter name = { name; find = (fun n -> Obs.Registry.counter n); bound = None }
let gauge name = { name; find = (fun n -> Obs.Registry.gauge n); bound = None }

let get h =
  match h.bound with
  | Some m -> m
  | None ->
      let m = h.find h.name in
      h.bound <- Some m;
      m

let bump h = Obs.Counter.incr (get h)
let bump_by h n = Obs.Counter.add (get h) n

type sender_metrics = {
  m_adus_sent : Obs.Counter.t handle;
  m_bytes_sent : Obs.Counter.t handle;
  m_store_peak : Obs.Gauge.t handle;
  m_nacks_received : Obs.Counter.t handle;
  m_nack_backoff_resets : Obs.Counter.t handle;
  m_fec_activated : Obs.Counter.t handle;
  m_retransmits : Obs.Counter.t handle;
  m_bytes_retransmitted : Obs.Counter.t handle;
  m_adus_gone : Obs.Counter.t handle;
  m_close_gave_up : Obs.Counter.t handle;
  m_ctl_corrupt_dropped : Obs.Counter.t handle;
  m_killed : Obs.Counter.t handle;
}

let sender_metrics () =
  {
    m_adus_sent = counter "alf.sender.adus_sent";
    m_bytes_sent = counter "alf.sender.bytes_sent";
    m_store_peak = gauge "alf.sender.store_peak_bytes";
    m_nacks_received = counter "alf.sender.nacks_received";
    m_nack_backoff_resets = counter "alf.sender.nack_backoff_resets";
    m_fec_activated = counter "alf.sender.fec_activated";
    m_retransmits = counter "alf.sender.retransmits";
    m_bytes_retransmitted = counter "alf.sender.bytes_retransmitted";
    m_adus_gone = counter "alf.sender.adus_gone";
    m_close_gave_up = counter "alf.sender.close_gave_up";
    m_ctl_corrupt_dropped = counter "alf.sender.ctl_corrupt_dropped";
    m_killed = counter "alf.sender.killed";
  }

type sender = {
  sched : Rt.Sched.t;
  io : Dgram.t;
  peer : Packet.addr;
  peer_port : int;
  port : int;
  stream : int;
  store : Recovery.store;
  config : sender_config;
  stats : sender_stats;
  m : sender_metrics;
  s_secure : Secure.Record.t option;  (* AEAD record layer, when keyed *)
  tx_pool : Pool.t option;  (* pooled datagrams for the fused send path *)
  outq : outq_item Queue.t;
  queued_frags : (int, int ref) Hashtbl.t;  (* blocks still queued per index *)
  mutable pacing : bool;  (* a pace event is scheduled *)
  mutable pace_timer : Rt.Sched.timer option;
  mutable close_timer : Rt.Sched.timer option;
  mutable max_index : int;
  mutable closing : bool;
  mutable done_received : bool;
  mutable close_sent : int;  (* CLOSE transmissions so far *)
  mutable close_shift : int;  (* exponential backoff exponent, capped *)
  mutable s_gave_up : bool;  (* CLOSE budget exhausted, store released *)
  mutable s_killed : bool;  (* chaos: the sending process died *)
  mutable loss_ewma : float;  (* loss estimate from NACK volume *)
  mutable fec_on : bool;  (* sticky once the estimate crosses threshold *)
  mutable next_fec_group : int;  (* monotone across batches, mod 0x10000 *)
  mutable gone_announced : (int, unit) Hashtbl.t;
  mutable s_tracer : (string -> unit) option;
}

let strace s fmt =
  match s.s_tracer with
  | None -> Format.ikfprintf (fun _ -> ()) Format.std_formatter fmt
  | Some emit -> Format.kasprintf emit fmt

let set_sender_tracer s f = s.s_tracer <- Some f
let sender_stats s = s.stats

let sender_table_sizes s =
  ( Queue.length s.outq,
    Hashtbl.length s.queued_frags,
    Hashtbl.length s.gone_announced )
let store_footprint s = Recovery.footprint s.store
let finished s = s.done_received
let sender_gave_up s = s.s_gave_up
let fec_active s = s.fec_on

let push_datagram s buf =
  if not s.s_killed then
    ignore
      (s.io.Dgram.send ~dst:s.peer ~dst_port:s.peer_port ~src_port:s.port
         (seal s.config.integrity buf))

let push_presealed s buf =
  if not s.s_killed then
    ignore
      (s.io.Dgram.send ~dst:s.peer ~dst_port:s.peer_port ~src_port:s.port buf)

let dequeue_and_send s =
  let it = Queue.pop s.outq in
  (match Hashtbl.find_opt s.queued_frags it.oq_index with
  | Some n ->
      decr n;
      if !n <= 0 then Hashtbl.remove s.queued_frags it.oq_index
  | None -> ());
  if it.oq_presealed then push_presealed s it.oq_frag
  else push_datagram s it.oq_frag;
  let len = Bytebuf.length it.oq_frag in
  it.oq_release ();
  len

let rec pace s =
  match (Queue.is_empty s.outq, s.config.pace_bps) with
  | true, _ ->
      s.pacing <- false;
      s.pace_timer <- None
  | false, None ->
      (* Unpaced: drain everything now. *)
      while not (Queue.is_empty s.outq) do
        ignore (dequeue_and_send s)
      done;
      s.pacing <- false;
      s.pace_timer <- None
  | false, Some rate ->
      let sent_len = dequeue_and_send s in
      let gap = 8.0 *. float_of_int sent_len /. rate in
      s.pace_timer <-
        Some (Rt.Sched.schedule_after s.sched gap (fun () -> pace s))

let kick s =
  if not s.pacing then begin
    s.pacing <- true;
    s.pace_timer <-
      Some (Rt.Sched.schedule_after s.sched 0.0 (fun () -> pace s))
  end

(* A finished sender (DONE received, killed, or gave up) must leave no
   timer armed: a closed session's callbacks firing later is exactly the
   leak this cancels. *)
let stop_sender_timers s =
  (match s.pace_timer with Some tm -> Rt.Sched.cancel tm | None -> ());
  s.pace_timer <- None;
  s.pacing <- false;
  (match s.close_timer with Some tm -> Rt.Sched.cancel tm | None -> ());
  s.close_timer <- None

let flush_outq s =
  Queue.iter (fun it -> it.oq_release ()) s.outq;
  Queue.clear s.outq;
  Hashtbl.reset s.queued_frags

(* Every sender exit path — DONE received, killed, CLOSE budget exhausted
   — funnels here so no per-index table survives the session: the output
   queue and its per-index fragment counters, the gone-announced dedup
   set, the retransmission store, and both timers. *)
let teardown_sender s =
  flush_outq s;
  stop_sender_timers s;
  Hashtbl.reset s.gone_announced;
  Recovery.release_below s.store (s.max_index + 1)

(* Graceful degradation: once active, fragment batches are XOR-protected
   and each block is prefixed with the FEC tag so the receiver routes it
   through its decoder. Group numbers stay monotone across batches —
   otherwise a retransmitted ADU's group 0 would collide with the first
   ADU's at the decoder. *)
let fec_wrap s frags =
  if not s.fec_on then frags
  else begin
    let k = s.config.fec_k in
    let blocks = Fec.protect ~first_group:s.next_fec_group ~k frags in
    s.next_fec_group <-
      (s.next_fec_group + Fec.group_count ~k (List.length frags)) land 0xffff;
    List.map
      (fun b ->
        let out = Bytebuf.create (1 + Bytebuf.length b) in
        Bytebuf.set_uint8 out 0 Ctl.tag_fec;
        Bytebuf.blit ~src:b ~src_pos:0 ~dst:out ~dst_pos:1
          ~len:(Bytebuf.length b);
        out)
      blocks
  end

let enqueue_item s it =
  let counter =
    match Hashtbl.find_opt s.queued_frags it.oq_index with
    | Some n -> n
    | None ->
        let n = ref 0 in
        Hashtbl.replace s.queued_frags it.oq_index n;
        n
  in
  incr counter;
  Queue.push it s.outq

let enqueue_frags s ~index frags =
  let frags = fec_wrap s frags in
  List.iter
    (fun frag ->
      enqueue_item s
        { oq_index = index; oq_frag = frag; oq_presealed = false;
          oq_release = no_release })
    frags;
  kick s

let send_gone s indices =
  match indices with
  | [] -> ()
  | _ ->
      let fresh = List.filter (fun i -> not (Hashtbl.mem s.gone_announced i)) indices in
      List.iter
        (fun i ->
          strace s "declaring ADU %d gone (unrecoverable under %s)" i
            (Recovery.policy_name (Recovery.policy s.store));
          Hashtbl.replace s.gone_announced i ())
        fresh;
      s.stats.adus_gone <- s.stats.adus_gone + List.length fresh;
      bump_by s.m.m_adus_gone (List.length fresh);
      push_datagram s (Ctl.build_gone ~stream:s.stream indices)

let handle_nack s ~have_below ~indices =
  s.stats.nacks_received <- s.stats.nacks_received + 1;
  bump s.m.m_nacks_received;
  (* Evidence the receiver is alive: CLOSE announcements can return to
     their base cadence. *)
  if s.close_shift > 0 then begin
    s.close_shift <- 0;
    s.stats.nack_backoff_resets <- s.stats.nack_backoff_resets + 1;
    bump s.m.m_nack_backoff_resets
  end;
  Recovery.release_below s.store have_below;
  (* The NACK volume against what is still outstanding is a (noisy) loss
     estimate; an EWMA of it decides when always-send-parity beats
     per-loss round trips. *)
  let count = List.length indices in
  let outstanding = max 1 (s.max_index + 1 - have_below) in
  let sample = min 1.0 (float_of_int count /. float_of_int outstanding) in
  s.loss_ewma <- (0.8 *. s.loss_ewma) +. (0.2 *. sample);
  if fec_enabled s.config && (not s.fec_on)
     && s.loss_ewma >= s.config.fec_loss_threshold
  then begin
    s.fec_on <- true;
    strace s "loss estimate %.2f >= %.2f: enabling FEC (k=%d)" s.loss_ewma
      s.config.fec_loss_threshold s.config.fec_k;
    bump s.m.m_fec_activated
  end;
  let gone = ref [] in
  List.iter
    (fun index ->
      (* A request for an ADU whose fragments are still waiting in the
         output queue is stale: the data is already on its way. *)
      if not (Hashtbl.mem s.queued_frags index) then
        match Recovery.recall s.store ~index with
        | Recovery.Data encoded ->
            strace s "retransmit ADU %d (%d bytes)" index
              (Bytebuf.length encoded);
            s.stats.adus_retransmitted <- s.stats.adus_retransmitted + 1;
            s.stats.bytes_retransmitted <-
              s.stats.bytes_retransmitted + Bytebuf.length encoded;
            bump s.m.m_retransmits;
            bump_by s.m.m_bytes_retransmitted (Bytebuf.length encoded);
            enqueue_frags s ~index
              (Framing.fragment_encoded ~mtu:(frag_budget s.config)
                 ~stream:s.stream ~index encoded)
        | Recovery.Gone -> gone := index :: !gone)
    indices;
  send_gone s (List.rev !gone)

let rec close_loop s =
  if (not s.done_received) && (not s.s_killed) && not s.s_gave_up then begin
    (* Announce the total only once the paced data queue has drained:
       announcing earlier would make everything still queued look lost to
       the receiver. *)
    if Queue.is_empty s.outq then begin
      if s.close_sent >= s.config.close_attempts then begin
        (* The receiver has vanished: stop retrying and stop holding
           retransmission copies for a peer that will never ask. *)
        s.s_gave_up <- true;
        strace s "giving up CLOSE after %d attempts; releasing store"
          s.close_sent;
        bump s.m.m_close_gave_up;
        teardown_sender s
      end
      else begin
        s.close_sent <- s.close_sent + 1;
        push_datagram s (Ctl.build_close ~stream:s.stream ~total:(s.max_index + 1))
      end
    end;
    if not s.s_gave_up then begin
      (* Back off while unanswered; any NACK resets the cadence. *)
      let delay = s.config.close_retry *. (2.0 ** float_of_int s.close_shift) in
      if s.close_shift < 6 then s.close_shift <- s.close_shift + 1;
      s.close_timer <-
        Some (Rt.Sched.schedule_after s.sched delay (fun () -> close_loop s))
    end
    else s.close_timer <- None
  end
  else s.close_timer <- None

let sender_handle s ~src:_ ~src_port:_ payload =
  if s.s_killed then ()
  else
    match unseal s.config.integrity payload with
    | None ->
        bump s.m.m_ctl_corrupt_dropped
    | Some payload -> (
        (* Truncated or foreign control parses to [None] and is ignored. *)
        match Ctl.parse payload with
        | Some (Ctl.Nack { stream; have_below; indices })
          when stream = s.stream && not s.done_received ->
            handle_nack s ~have_below ~indices
        | Some (Ctl.Done { stream })
          when stream = s.stream && not s.done_received ->
            (* Duplicate DONEs (the first one's answer crossed a re-CLOSE)
               are idempotent. Everything is confirmed delivered (or
               gone): the transport no longer needs its retransmission
               copies, its queued retransmissions, its per-index tables,
               or its timers — without the cancel, the CLOSE/pace
               closures keep firing into a dead session. *)
            s.done_received <- true;
            teardown_sender s
        | Some _ | None -> ())

let make_sender ~sched ~io ~peer ~peer_port ~port ~stream ~policy ~secure
    ~tx_pool ~config =
  if frag_budget config <= Framing.fragment_header_size then
    invalid_arg "Alf_transport: mtu too small for integrity/FEC overhead";
  let m = sender_metrics () in
  ignore (get m.m_nack_backoff_resets);
  let s =
    {
      m;
      sched;
      io;
      peer;
      peer_port;
      port;
      stream;
      store = Recovery.store policy;
      config;
      s_secure = secure;
      tx_pool;
      stats =
        {
          adus_sent = 0;
          frags_sent = 0;
          bytes_sent = 0;
          nacks_received = 0;
          adus_retransmitted = 0;
          bytes_retransmitted = 0;
          adus_gone = 0;
          store_peak = 0;
          nack_backoff_resets = 0;
        };
      outq = Queue.create ();
      queued_frags = Hashtbl.create 64;
      pacing = false;
      pace_timer = None;
      close_timer = None;
      max_index = -1;
      closing = false;
      done_received = false;
      close_sent = 0;
      close_shift = 0;
      s_gave_up = false;
      s_killed = false;
      loss_ewma = 0.0;
      fec_on = false;
      next_fec_group = 0;
      gone_announced = Hashtbl.create 16;
      s_tracer = None;
    }
  in
  s

let sender_io ~sched ~io ~peer ~peer_port ~port ~stream ~policy ?secure
    ?tx_pool ?(config = default_sender_config) () =
  let s =
    make_sender ~sched ~io ~peer ~peer_port ~port ~stream ~policy ~secure
      ~tx_pool ~config
  in
  io.Dgram.bind ~port (sender_handle s);
  s

let sender ~sched ~udp ~peer ~peer_port ~port ~stream ~policy ?secure ?tx_pool
    ?(config = default_sender_config) () =
  sender_io ~sched ~io:(Dgram.of_udp udp) ~peer ~peer_port ~port ~stream
    ~policy ?secure ?tx_pool ~config ()

let sender_mux ~sched ~mux ~peer ~peer_port ~stream ~policy ?secure ?tx_pool
    ?(config = default_sender_config) () =
  let s =
    make_sender ~sched ~io:(Mux.io mux) ~peer ~peer_port ~port:(Mux.port mux)
      ~stream ~policy ~secure ~tx_pool ~config
  in
  Mux.attach mux ~stream (sender_handle s);
  s

let send_adu s adu =
  if s.closing then invalid_arg "Alf_transport.send_adu: sender closed";
  if s.s_killed then invalid_arg "Alf_transport.send_adu: sender killed";
  let adu =
    match s.s_secure with
    | Some rc -> Secure.Record.seal_adu rc adu
    | None -> adu
  in
  let index = adu.Adu.name.Adu.index in
  if index > s.max_index then s.max_index <- index;
  let encoded = Adu.encode adu in
  Recovery.remember s.store ~index encoded;
  let fp = Recovery.footprint s.store in
  if fp > s.stats.store_peak then s.stats.store_peak <- fp;
  let frags =
    Framing.fragment_encoded ~mtu:(frag_budget s.config) ~stream:s.stream
      ~index encoded
  in
  s.stats.adus_sent <- s.stats.adus_sent + 1;
  s.stats.frags_sent <- s.stats.frags_sent + List.length frags;
  s.stats.bytes_sent <- s.stats.bytes_sent + Bytebuf.length encoded;
  bump s.m.m_adus_sent;
  bump_by s.m.m_bytes_sent (Bytebuf.length encoded);
  Obs.Gauge.observe_max (get s.m.m_store_peak) (float_of_int s.stats.store_peak);
  enqueue_frags s ~index frags

(* --- The fused send path ---

   [send_value] never materialises the encoded value as its own buffer:
   {!Ilp.run_marshal} encodes straight into the datagram (or ADU) slice
   while a piggybacked CRC-32 stage digests the payload in the same
   loop. Every digest that spans a header plus the payload — the ADU's
   CRC field and the datagram integrity trailer — is then assembled with
   {!Checksum.Crc32.combine}, so the payload is read exactly once. *)

let account_sent s ~index ~encoded_len ~nfrags =
  if index > s.max_index then s.max_index <- index;
  let fp = Recovery.footprint s.store in
  if fp > s.stats.store_peak then s.stats.store_peak <- fp;
  s.stats.adus_sent <- s.stats.adus_sent + 1;
  s.stats.frags_sent <- s.stats.frags_sent + nfrags;
  s.stats.bytes_sent <- s.stats.bytes_sent + encoded_len;
  bump s.m.m_adus_sent;
  bump_by s.m.m_bytes_sent encoded_len;
  Obs.Gauge.observe_max (get s.m.m_store_peak) (float_of_int s.stats.store_peak)

(* The 36-byte ADU header with its CRC field zeroed; patched once the
   payload digest is known. *)
let put_adu_header w (name : Adu.name) ~plen =
  Cursor.put_u16be w Adu.magic;
  Cursor.put_u16be w name.Adu.stream;
  Cursor.put_int_as_u32be w name.Adu.index;
  Cursor.put_u64be w (Int64.of_int name.Adu.dest_off);
  Cursor.put_int_as_u32be w name.Adu.dest_len;
  Cursor.put_u64be w name.Adu.timestamp_us;
  Cursor.put_int_as_u32be w plen;
  Cursor.put_u32be w 0l

let patch_be32 buf off v =
  Bytebuf.set_uint8 buf off ((v lsr 24) land 0xff);
  Bytebuf.set_uint8 buf (off + 1) ((v lsr 16) land 0xff);
  Bytebuf.set_uint8 buf (off + 2) ((v lsr 8) land 0xff);
  Bytebuf.set_uint8 buf (off + 3) (v land 0xff)

(* The payload digest captured by the appended CRC-32 stage (the last
   CRC-32 entry — an identical user stage earlier in the plan saw the
   data before later ciphers). *)
let crc32_of_checksums checksums =
  let rec last acc = function
    | [] -> acc
    | (Checksum.Kind.Crc32, v) :: tl -> last (Some v) tl
    | _ :: tl -> last acc tl
  in
  match last None checksums with
  | Some v -> Int32.of_int v
  | None -> assert false (* the stage was appended by send_value *)

let crc32_prefix buf ~pos ~len =
  Checksum.Crc32.finish (Checksum.Crc32.feed_sub Checksum.Crc32.init buf ~pos ~len)

let send_value s ~name ?(plan = []) source =
  if s.closing then invalid_arg "Alf_transport.send_value: sender closed";
  if s.s_killed then invalid_arg "Alf_transport.send_value: sender killed";
  let index = name.Adu.index in
  let n = Ilp.marshal_size source in
  (* With a record layer the marshalled bytes are sealed in the same
     fused pass ([Aead_seal] slots in just before the CRC stage, so the
     trailer digests ciphertext) and the payload grows by the 20-byte
     record trailer: ct ‖ epoch ‖ tag. *)
  let sec =
    match s.s_secure with
    | None -> None
    | Some rc ->
        let e, p = Secure.Record.seal_params rc name in
        Some (e, p)
  in
  let sec_over =
    match sec with None -> 0 | Some _ -> Secure.Record.overhead
  in
  let plen = n + sec_over in
  let encoded_len = Adu.header_size + plen in
  let plan' =
    match sec with
    | None -> plan @ [ Ilp.Checksum Checksum.Kind.Crc32; Ilp.Deliver_copy ]
    | Some (_, p) ->
        plan
        @ [ Ilp.Aead_seal p; Ilp.Checksum Checksum.Kind.Crc32;
            Ilp.Deliver_copy ]
  in
  let budget = frag_budget s.config in
  let tsize =
    match s.config.integrity with Some _ -> trailer_size | None -> 0
  in
  let dlen = Framing.fragment_header_size + encoded_len + tsize in
  let body_off = Framing.fragment_header_size + Adu.header_size in
  let fast =
    if s.fec_on || Framing.fragment_header_size + encoded_len > budget then None
    else
      match s.tx_pool with
      | None -> None
      | Some pool -> (
          match Pool.try_acquire pool with
          | Some full when Bytebuf.length full >= dlen -> Some (pool, full)
          | Some full ->
              Pool.release pool full;
              None
          | None -> None)
  in
  match fast with
  | Some (pool, full) ->
      (* Single fragment, straight into a pooled datagram:
         [frag hdr | adu hdr | payload | trailer], pre-sealed. *)
      let dg = Bytebuf.take full dlen in
      let w = Cursor.writer dg in
      Cursor.put_u8 w Framing.frag_magic;
      Cursor.put_u16be w s.stream;
      Cursor.put_int_as_u32be w index;
      Cursor.put_u16be w 0 (* frag_idx *);
      Cursor.put_u16be w 1 (* nfrags *);
      Cursor.put_int_as_u32be w encoded_len;
      Cursor.put_int_as_u32be w 0 (* frag_off *);
      put_adu_header w name ~plen;
      (* Compiled sizing can defer a schema/value mismatch to emit time
         (static subtrees are never walked by [marshal_size]), so the
         fused encode may now raise after the pool acquire — release the
         datagram on the way out or the slot leaks. *)
      let r =
        try
          Ilp.run_marshal ~dst:(Bytebuf.sub dg ~pos:body_off ~len:n) source
            plan'
        with e ->
          Pool.release pool full;
          raise e
      in
      let crc_ct = crc32_of_checksums r.Ilp.checksums in
      (* The record trailer is spliced after the ciphertext the same way
         the payload CRC is spliced into the headers: write the 20 bytes,
         digest just them, and [combine] extends the fused-pass ciphertext
         digest — the payload is still read exactly once. *)
      let crc_payload =
        match sec with
        | None -> crc_ct
        | Some (e, _) ->
            let tail = Bytebuf.sub dg ~pos:(body_off + n) ~len:sec_over in
            (match r.Ilp.tags with
            | [ tag ] -> Secure.Record.write_trailer tail ~e ~tag
            | _ -> assert false (* exactly one Aead_seal in plan' *));
            Checksum.Crc32.combine crc_ct
              (crc32_prefix dg ~pos:(body_off + n) ~len:sec_over)
              sec_over
      in
      let adu_crc =
        Checksum.Crc32.combine
          (crc32_prefix dg ~pos:Framing.fragment_header_size
             ~len:Adu.header_size)
          crc_payload plen
      in
      patch_be32 dg
        (Framing.fragment_header_size + 32)
        (Int32.to_int adu_crc land 0xFFFFFFFF);
      (match s.config.integrity with
      | None -> ()
      | Some kind ->
          let body_len = Framing.fragment_header_size + encoded_len in
          let d =
            match kind with
            | Checksum.Kind.Crc32 ->
                (* Trailer = crc(headers ++ payload): combine the
                   55-byte header prefix (ADU CRC now patched) with the
                   payload digest from the fused pass. *)
                Int32.to_int
                  (Checksum.Crc32.combine
                     (crc32_prefix dg ~pos:0 ~len:body_off)
                     crc_payload plen)
                land 0xFFFFFFFF
            | kind ->
                Checksum.Kind.digest kind (Bytebuf.sub dg ~pos:0 ~len:body_len)
                land 0xFFFFFFFF
          in
          patch_be32 dg body_len d);
      (* Only a policy that actually retains data pays for a copy; the
         pooled datagram itself is recycled after transmission. *)
      (match Recovery.policy s.store with
      | Recovery.Transport_buffer ->
          Recovery.remember s.store ~index
            (Bytebuf.copy
               (Bytebuf.sub dg ~pos:Framing.fragment_header_size
                  ~len:encoded_len))
      | Recovery.App_recompute _ | Recovery.No_recovery -> ());
      account_sent s ~index ~encoded_len ~nfrags:1;
      enqueue_item s
        {
          oq_index = index;
          oq_frag = dg;
          oq_presealed = true;
          oq_release = (fun () -> Pool.release pool full);
        };
      kick s
  | None ->
      (* General path (multi-fragment, FEC active, or no pool): fused
         marshal into a fresh ADU buffer, then the standard
         fragment/FEC/seal machinery. Still one pass over the payload. *)
      let buf = Bytebuf.create encoded_len in
      let w = Cursor.writer buf in
      put_adu_header w name ~plen;
      let r =
        Ilp.run_marshal
          ~dst:(Bytebuf.sub buf ~pos:Adu.header_size ~len:n)
          source plan'
      in
      let crc_ct = crc32_of_checksums r.Ilp.checksums in
      let crc_payload =
        match sec with
        | None -> crc_ct
        | Some (e, _) ->
            let tail =
              Bytebuf.sub buf ~pos:(Adu.header_size + n) ~len:sec_over
            in
            (match r.Ilp.tags with
            | [ tag ] -> Secure.Record.write_trailer tail ~e ~tag
            | _ -> assert false);
            Checksum.Crc32.combine crc_ct
              (crc32_prefix buf ~pos:(Adu.header_size + n) ~len:sec_over)
              sec_over
      in
      let adu_crc =
        Checksum.Crc32.combine
          (crc32_prefix buf ~pos:0 ~len:Adu.header_size)
          crc_payload plen
      in
      patch_be32 buf 32 (Int32.to_int adu_crc land 0xFFFFFFFF);
      Recovery.remember s.store ~index buf;
      let frags =
        Framing.fragment_encoded ~mtu:budget ~stream:s.stream ~index buf
      in
      account_sent s ~index ~encoded_len ~nfrags:(List.length frags);
      enqueue_frags s ~index frags

let close s =
  if (not s.closing) && not s.s_killed then begin
    s.closing <- true;
    close_loop s
  end

let kill_sender s =
  if not s.s_killed then begin
    s.s_killed <- true;
    (* The process is gone: nothing queued will reach the wire, and the
       retransmission store dies with it. Pooled datagrams still go back
       to their pool — the pool outlives the sender. *)
    teardown_sender s;
    bump s.m.m_killed
  end

(* --- Receiver --- *)

type receiver_stats = {
  mutable adus_delivered : int;
  mutable bytes_delivered : int;
  mutable out_of_order : int;
  mutable adus_lost : int;
  mutable nacks_sent : int;
  mutable duplicates : int;
  mutable frags_corrupt_dropped : int;
  mutable adus_auth_dropped : int;
  mutable adus_gone_local : int;
}

(* Repair state for one missing index. *)
type req = {
  mutable first_missing : float;
  mutable last_nack : float;
  mutable tries : int;
}

type receiver_metrics = {
  m_adus_delivered : Obs.Counter.t handle;
  m_bytes_delivered : Obs.Counter.t handle;
  m_nacks_sent : Obs.Counter.t handle;
  m_adus_gone_deadline : Obs.Counter.t handle;
  m_abandoned : Obs.Counter.t handle;
  m_adus_lost : Obs.Counter.t handle;
  m_frags_corrupt_dropped : Obs.Counter.t handle;
  m_auth_dropped : Obs.Counter.t handle;
}

let receiver_metrics () =
  {
    m_adus_delivered = counter "alf.receiver.adus_delivered";
    m_bytes_delivered = counter "alf.receiver.bytes_delivered";
    m_nacks_sent = counter "alf.receiver.nacks_sent";
    m_adus_gone_deadline = counter "alf.receiver.adus_gone_deadline";
    m_abandoned = counter "alf.receiver.abandoned";
    m_adus_lost = counter "alf.receiver.adus_lost";
    m_frags_corrupt_dropped = counter "alf.receiver.frags_corrupt_dropped";
    m_auth_dropped = counter "alf.receiver.auth_dropped";
  }

type receiver = {
  r_sched : Rt.Sched.t;
  r_io : Dgram.t;
  r_port : int;
  r_stream : int;
  nack_interval : float;
  nack_holdoff : float;  (* base per-index re-request spacing *)
  nack_budget : int;  (* max NACKs for one index before giving up on it *)
  adu_deadline : float;  (* max seconds an index may stay missing *)
  giveup_idle : float;  (* silence after which the sender is presumed dead *)
  r_integrity : Checksum.Kind.t option;
  r_secure : Secure.Record.t option;  (* AEAD record layer, when keyed *)
  nack_rto : Transport.Rto.t;  (* paces the repair loop *)
  jitter : Rng.t;  (* desynchronises repair rounds, deterministically *)
  reqs : (int, req) Hashtbl.t;
  app_deliver : Adu.t -> unit;
  r_stats : receiver_stats;
  r_m : receiver_metrics;
  series : Stats.series;
  reasm : Framing.reassembler;
  delivered : (int, unit) Hashtbl.t;
  gone : (int, unit) Hashtbl.t;
  mutable fec_rx : Fec.decoder option;  (* created on first FEC block *)
  mutable frontier : int;  (* all below are delivered or gone *)
  mutable highest_seen : int;
  mutable total : int option;
  mutable sender_addr : (Packet.addr * int) option;
  mutable last_rx : float;  (* last integrity-verified datagram *)
  mutable nack_timer : Rt.Sched.timer option;
  mutable last_loop_settled : int;  (* progress marker between rounds *)
  mutable r_abandoned : bool;
  mutable complete_flag : bool;
  mutable complete_cb : unit -> unit;
  mutable r_tracer : (string -> unit) option;
}

let rtrace t fmt =
  match t.r_tracer with
  | None -> Format.ikfprintf (fun _ -> ()) Format.std_formatter fmt
  | Some emit -> Format.kasprintf emit fmt

let set_receiver_tracer t f = t.r_tracer <- Some f
let receiver_stats t = t.r_stats
let receiver_frontier t = t.frontier

let receiver_table_sizes t =
  ( Hashtbl.length t.delivered,
    Hashtbl.length t.gone,
    Hashtbl.length t.reqs )

let receiver_retired_count t = Framing.retired_count t.reasm
let reassembly_stats t = Framing.stats t.reasm
let complete t = t.complete_flag
let abandoned t = t.r_abandoned
let on_complete t f = t.complete_cb <- f
let delivery_series t = t.series

(* Everything below the contiguous frontier is settled by definition, so
   the per-index tables only hold indices settled {e out of order} — the
   reordering window, not the stream. Answering by frontier comparison
   first is what lets [advance_frontier] retire entries as it passes
   them; without the retirement the delivered/gone tables grow by one
   entry per ADU for the life of a streaming receiver. *)
let settled t index =
  index < t.frontier
  || Hashtbl.mem t.delivered index
  || Hashtbl.mem t.gone index

let advance_frontier t =
  let start = t.frontier in
  while
    Hashtbl.mem t.delivered t.frontier || Hashtbl.mem t.gone t.frontier
  do
    Hashtbl.remove t.delivered t.frontier;
    Hashtbl.remove t.gone t.frontier;
    Hashtbl.remove t.reqs t.frontier;
    t.frontier <- t.frontier + 1
  done;
  (* The reassembler's retired-index table rides the same frontier. *)
  if t.frontier > start then Framing.retire_below t.reasm ~bound:t.frontier

let missing t =
  let bound =
    match t.total with Some n -> n | None -> t.highest_seen + 1
  in
  let rec go i acc =
    if i >= bound then List.rev acc
    else go (i + 1) (if settled t i then acc else i :: acc)
  in
  go t.frontier []

let send_ctl t build =
  match t.sender_addr with
  | None -> ()
  | Some (addr, port) ->
      ignore
        (t.r_io.Dgram.send ~dst:addr ~dst_port:port ~src_port:t.r_port
           (seal t.r_integrity (build ())))

let send_done t = send_ctl t (fun () -> Ctl.build_done ~stream:t.r_stream)

let check_complete t =
  match t.total with
  | Some total when (not t.complete_flag) && t.frontier >= total ->
      t.complete_flag <- true;
      (* Nothing more will be asked for: drop all repair bookkeeping (a
         long-lived receiver must not keep per-index state forever) and
         disarm the repair loop — a pending NACK timer firing into a
         completed session is the other half of the timer leak. *)
      Hashtbl.reset t.reqs;
      (match t.nack_timer with Some tm -> Rt.Sched.cancel tm | None -> ());
      t.nack_timer <- None;
      send_done t;
      t.complete_cb ()
  | Some _ | None -> ()

let send_nack t indices =
  let indices = if List.length indices > 512 then List.filteri (fun i _ -> i < 512) indices else indices in
  t.r_stats.nacks_sent <- t.r_stats.nacks_sent + 1;
  bump t.r_m.m_nacks_sent;
  send_ctl t (fun () ->
      Ctl.build_nack ~stream:t.r_stream ~have_below:t.frontier indices)

(* Local loss declaration: the repair budget or deadline for [index] is
   exhausted, so stop asking and report the loss in application terms —
   exactly what a sender-side GONE does, but decided here. *)
let locally_gone t index reason =
  Hashtbl.replace t.gone index ();
  Hashtbl.remove t.reqs index;
  Framing.forget t.reasm ~index;
  t.r_stats.adus_gone_local <- t.r_stats.adus_gone_local + 1;
  bump t.r_m.m_adus_gone_deadline;
  rtrace t "ADU %d locally gone (%s)" index reason;
  advance_frontier t

let rec nack_loop t =
  t.nack_timer <- None;
  if t.complete_flag || t.r_abandoned then ()
  else begin
    let now = Rt.Sched.now t.r_sched in
    let current = missing t in
    List.iter
      (fun i ->
        if not (Hashtbl.mem t.reqs i) then
          Hashtbl.replace t.reqs i
            { first_missing = now; last_nack = neg_infinity; tries = 0 })
      current;
    (* Budget/deadline: an index we have asked for [nack_budget] times, or
       that has been missing for [adu_deadline], is not coming. *)
    List.iter
      (fun i ->
        match Hashtbl.find_opt t.reqs i with
        | Some r when now -. r.first_missing >= t.adu_deadline ->
            locally_gone t i "deadline"
        | Some r when r.tries >= t.nack_budget ->
            locally_gone t i "retry budget"
        | Some _ | None -> ())
      current;
    check_complete t;
    if t.complete_flag then ()
    else if now -. t.last_rx >= t.giveup_idle then begin
      (* Dead air: the sender has vanished (or never appeared). Settle
         what is outstanding as locally gone and stop the loop so the
         scheduler can quiesce; a verified datagram revives us. *)
      List.iter (fun i -> locally_gone t i "sender silent") (missing t);
      check_complete t;
      if not t.complete_flag then begin
        t.r_abandoned <- true;
        Hashtbl.reset t.reqs;
        rtrace t "sender silent for %.3fs: abandoning repair" t.giveup_idle;
        bump t.r_m.m_abandoned
      end
    end
    else begin
      (* An index must stay missing a full interval before it is reported
         (it may simply still be in flight) and is re-requested with
         per-index exponential spacing — a repair needs at least a round
         trip, and re-requesting sooner only multiplies retransmissions. *)
      let due i =
        match Hashtbl.find_opt t.reqs i with
        | None -> false
        | Some r ->
            now -. r.first_missing >= t.nack_interval
            && now -. r.last_nack
               >= t.nack_holdoff *. (2.0 ** float_of_int (min r.tries 6))
      in
      (match List.filter due (missing t) with
      | [] -> ()
      | gaps when t.sender_addr <> None ->
          rtrace t "NACK for %d missing ADUs (frontier %d)" (List.length gaps)
            t.frontier;
          List.iter
            (fun i ->
              match Hashtbl.find_opt t.reqs i with
              | Some r ->
                  r.last_nack <- now;
                  r.tries <- r.tries + 1
              | None -> ())
            gaps;
          send_nack t gaps;
          (* Rounds that keep asking without anything settling widen the
             loop (Rto backoff); a clean repair sample resets it. The
             marker must be monotone — stats counters, not table sizes,
             which shrink as the frontier retires entries. *)
          let settled_now =
            t.r_stats.adus_delivered + t.r_stats.adus_lost
            + t.r_stats.adus_gone_local
          in
          if settled_now = t.last_loop_settled then
            Transport.Rto.backoff t.nack_rto;
          t.last_loop_settled <- settled_now
      | _ -> ());
      let delay =
        Transport.Rto.rto t.nack_rto
        +. Rng.uniform t.jitter ~lo:0.0 ~hi:(0.5 *. t.nack_interval)
      in
      t.nack_timer <-
        Some (Rt.Sched.schedule_after t.r_sched delay (fun () -> nack_loop t))
    end
  end

let deliver_complete t adu =
  let index = adu.Adu.name.Adu.index in
  if settled t index then t.r_stats.duplicates <- t.r_stats.duplicates + 1
  else begin
    Hashtbl.replace t.delivered index ();
    (match Hashtbl.find_opt t.reqs index with
    | Some r ->
        (* A repair answered on the first ask is an unambiguous RTT
           sample (Karn: multiply-requested ones are not). *)
        if r.tries = 1 then
          Transport.Rto.sample t.nack_rto
            (Rt.Sched.now t.r_sched -. r.last_nack);
        Hashtbl.remove t.reqs index
    | None -> ());
    if index > t.frontier then begin
      t.r_stats.out_of_order <- t.r_stats.out_of_order + 1;
      rtrace t "ADU %d complete out of order (frontier %d)" index t.frontier
    end;
    advance_frontier t;
    t.r_stats.adus_delivered <- t.r_stats.adus_delivered + 1;
    t.r_stats.bytes_delivered <-
      t.r_stats.bytes_delivered + Bytebuf.length adu.Adu.payload;
    bump t.r_m.m_adus_delivered;
    bump_by t.r_m.m_bytes_delivered (Bytebuf.length adu.Adu.payload);
    Stats.record t.series ~t:(Rt.Sched.now t.r_sched)
      (float_of_int t.r_stats.bytes_delivered);
    t.app_deliver adu;
    check_complete t
  end

let handle_fragment t payload =
  match Framing.parse_fragment payload with
  | exception Framing.Frag_error _ -> ()
  | frag ->
      if frag.Framing.stream = t.r_stream then begin
        if frag.Framing.index > t.highest_seen then
          t.highest_seen <- frag.Framing.index;
        if settled t frag.Framing.index then
          t.r_stats.duplicates <- t.r_stats.duplicates + 1
        else Framing.push t.reasm frag
      end

let fec_decoder t =
  match t.fec_rx with
  | Some d -> d
  | None ->
      let d =
        Fec.decoder
          ~deliver:(fun block ->
            (* Source and recovered blocks alike are ordinary fragments. *)
            if Bytebuf.length block > 0 && Bytebuf.get_uint8 block 0 = 0xAD
            then handle_fragment t block)
          ()
      in
      t.fec_rx <- Some d;
      d

let handle_control t payload =
  match Ctl.parse payload with
  | Some (Ctl.Close { stream; total }) when stream = t.r_stream ->
      (* Duplicate CLOSEs are idempotent: the first total wins (they are
         all equal from a sane sender anyway). *)
      if t.total = None then t.total <- Some total;
      let total = match t.total with Some n -> n | None -> total in
      if total - 1 > t.highest_seen then t.highest_seen <- total - 1;
      check_complete t;
      (* A re-CLOSE after completion means our DONE was lost. *)
      if t.complete_flag then send_done t
  | Some (Ctl.Gone { stream; indices }) when stream = t.r_stream ->
      List.iter
        (fun index ->
          if not (settled t index) then begin
            Hashtbl.replace t.gone index ();
            Hashtbl.remove t.reqs index;
            Framing.forget t.reasm ~index;
            t.r_stats.adus_lost <- t.r_stats.adus_lost + 1;
            bump t.r_m.m_adus_lost;
            advance_frontier t
          end)
        indices;
      check_complete t
  | Some _ | None -> ()

let receiver_handle t ~src ~src_port payload =
  match unseal t.r_integrity payload with
  | None ->
      (* Stage-1 integrity: a flipped bit anywhere in the datagram stops
         here, before it can poison reassembly or forge control. *)
      t.r_stats.frags_corrupt_dropped <- t.r_stats.frags_corrupt_dropped + 1;
      bump t.r_m.m_frags_corrupt_dropped
  | Some payload ->
      (* Only integrity-verified traffic counts as liveness or identifies
         the sender — garbage must not latch a spoofed repair address. *)
      t.last_rx <- Rt.Sched.now t.r_sched;
      if t.sender_addr = None then t.sender_addr <- Some (src, src_port);
      if t.r_abandoned && not t.complete_flag then begin
        t.r_abandoned <- false;
        nack_loop t
      end;
      let b0 =
        if Bytebuf.length payload > 0 then Bytebuf.get_uint8 payload 0 else -1
      in
      if b0 = Framing.frag_magic then handle_fragment t payload
      else if b0 = Ctl.tag_fec then
        Fec.push (fec_decoder t) (Bytebuf.shift payload 1)
      else handle_control t payload

let make_receiver ~sched ~io ~port ~stream ~nack_interval ~nack_holdoff
    ~nack_budget ~adu_deadline ~giveup_idle ~integrity ~secure ~seed
    ~reasm_pool ~deliver =
  if nack_budget < 1 then
    invalid_arg "Alf_transport: nack_budget must be >= 1";
  (* Eager registration so `alfnet metrics` shows the hardening counters
     at zero instead of omitting them on clean runs. *)
  let r_m = receiver_metrics () in
  ignore (get r_m.m_frags_corrupt_dropped);
  ignore (get r_m.m_adus_gone_deadline);
  ignore (get r_m.m_auth_dropped);
  let deliver_ref = ref (fun (_ : Adu.t) -> ()) in
  let seed =
    match seed with
    | Some s -> s
    | None ->
        (* Deterministic per endpoint, so runs stay reproducible without
           the caller threading a seed. *)
        Int64.of_int ((port * 65539) + (stream * 7919) + 0x5EED)
  in
  let t =
    {
      r_sched = sched;
      r_io = io;
      r_port = port;
      r_stream = stream;
      nack_interval;
      nack_holdoff;
      nack_budget;
      adu_deadline;
      giveup_idle;
      r_integrity = integrity;
      r_secure = secure;
      nack_rto =
        Transport.Rto.create ~initial_rto:nack_interval
          ~min_rto:nack_interval ~max_rto:1.0 ();
      jitter = Rng.create ~seed;
      reqs = Hashtbl.create 64;
      app_deliver = deliver;
      r_m;
      r_stats =
        {
          adus_delivered = 0;
          bytes_delivered = 0;
          out_of_order = 0;
          adus_lost = 0;
          nacks_sent = 0;
          duplicates = 0;
          frags_corrupt_dropped = 0;
          adus_auth_dropped = 0;
          adus_gone_local = 0;
        };
      series = Stats.series ();
      reasm =
        Framing.reassembler ?pool:reasm_pool
          ~deliver:(fun adu -> !deliver_ref adu)
          ();
      delivered = Hashtbl.create 256;
      gone = Hashtbl.create 16;
      fec_rx = None;
      frontier = 0;
      highest_seen = -1;
      total = None;
      sender_addr = None;
      last_rx = Rt.Sched.now sched;
      nack_timer = None;
      last_loop_settled = 0;
      r_abandoned = false;
      complete_flag = false;
      complete_cb = (fun () -> ());
      r_tracer = None;
    }
  in
  deliver_ref :=
    (match secure with
    | None -> fun adu -> deliver_complete t adu
    | Some rc ->
        fun adu ->
          (* The record opens in place over the reassembly view — one
             fused MAC+decrypt pass — before the ADU is marked settled.
             A failure is a counted drop, and the index is un-retired so
             the ordinary NACK repair fetches the genuine bytes: forged
             or tag-damaged data that slipped past the stage-1 checksum
             behaves exactly like a lost datagram. *)
          let index = adu.Adu.name.Adu.index in
          (match
             Secure.Record.open_payload rc adu.Adu.name adu.Adu.payload
           with
          | Ok ct -> deliver_complete t (Adu.make adu.Adu.name ct)
          | Error _ ->
              t.r_stats.adus_auth_dropped <- t.r_stats.adus_auth_dropped + 1;
              bump t.r_m.m_auth_dropped;
              rtrace t "ADU %d failed record authentication: dropped" index;
              Framing.unretire t.reasm ~index));
  nack_loop t;
  t

let receiver_io ~sched ~io ~port ~stream ?(nack_interval = 0.02)
    ?(nack_holdoff = 0.06) ?(nack_budget = 50) ?(adu_deadline = 10.0)
    ?(giveup_idle = 3.0) ?(integrity = Some Checksum.Kind.Crc32) ?secure ?seed
    ?reasm_pool ~deliver () =
  let t =
    make_receiver ~sched ~io ~port ~stream ~nack_interval ~nack_holdoff
      ~nack_budget ~adu_deadline ~giveup_idle ~integrity ~secure ~seed
      ~reasm_pool ~deliver
  in
  io.Dgram.bind ~port (receiver_handle t);
  t

let receiver ~sched ~udp ~port ~stream ?nack_interval ?nack_holdoff
    ?nack_budget ?adu_deadline ?giveup_idle ?integrity ?secure ?seed
    ?reasm_pool ~deliver () =
  receiver_io ~sched ~io:(Dgram.of_udp udp) ~port ~stream ?nack_interval
    ?nack_holdoff ?nack_budget ?adu_deadline ?giveup_idle ?integrity ?secure
    ?seed ?reasm_pool ~deliver ()

let receiver_mux ~sched ~mux ~stream ?(nack_interval = 0.02)
    ?(nack_holdoff = 0.06) ?(nack_budget = 50) ?(adu_deadline = 10.0)
    ?(giveup_idle = 3.0) ?(integrity = Some Checksum.Kind.Crc32) ?secure ?seed
    ?reasm_pool ~deliver () =
  let t =
    make_receiver ~sched ~io:(Mux.io mux) ~port:(Mux.port mux) ~stream
      ~nack_interval ~nack_holdoff ~nack_budget ~adu_deadline ~giveup_idle
      ~integrity ~secure ~seed ~reasm_pool ~deliver
  in
  Mux.attach mux ~stream (receiver_handle t);
  t

let receiver_values ~sched ~udp ~port ~stream ?nack_interval ?nack_holdoff
    ?nack_budget ?adu_deadline ?giveup_idle ?integrity ?secure ?seed
    ?reasm_pool ?(plan = []) ~sink ~deliver () =
  let c_failed = Obs.Registry.counter "alf.receiver.unmarshal_failed" in
  let deliver_adu (adu : Adu.t) =
    (* In place over the borrowed payload view: decrypt + verify + parse
       in one pass, done before stage 1 reclaims the buffer. *)
    match
      Ilp.run_unmarshal ~dst:adu.Adu.payload plan sink adu.Adu.payload
    with
    | r -> deliver adu.Adu.name r.Ilp.value
    | exception (Wire.Ber.Decode_error _ | Wire.Xdr.Error _) ->
        Obs.Counter.incr c_failed
  in
  receiver ~sched ~udp ~port ~stream ?nack_interval ?nack_holdoff
    ?nack_budget ?adu_deadline ?giveup_idle ?integrity ?secure ?seed
    ?reasm_pool ~deliver:deliver_adu ()

let receiver_views ~sched ~udp ~port ~stream ?nack_interval ?nack_holdoff
    ?nack_budget ?adu_deadline ?giveup_idle ?integrity ?secure ?seed
    ?reasm_pool ?(plan = []) ~prog ~deliver () =
  let c_invalid = Obs.Registry.counter "alf.receiver.view_invalid" in
  let deliver_adu (adu : Adu.t) =
    (* Transform in place over the borrowed payload, then hand out a
       validated lazy view instead of materializing a Value.t — the
       application decodes only the fields it touches, and only copies
       what it wants to keep. Total on hostile payloads. *)
    let r = Ilp.run_view ~dst:adu.Adu.payload plan prog adu.Adu.payload in
    match r.Ilp.view with
    | Ok (view, _) -> deliver adu.Adu.name view
    | Error _ -> Obs.Counter.incr c_invalid
  in
  receiver ~sched ~udp ~port ~stream ?nack_interval ?nack_holdoff
    ?nack_budget ?adu_deadline ?giveup_idle ?integrity ?secure ?seed
    ?reasm_pool ~deliver:deliver_adu ()

let receiver_stage2 ~sched ~udp ~port ~stream ?nack_interval ?nack_holdoff
    ?secure ?pool ?batch ?reasm_pool ?out_pool ?in_pool ~plan ~deliver () =
  let stage = Stage2.create ?pool ?batch ?out_pool ?in_pool ~plan ~deliver () in
  let t =
    receiver ~sched ~udp ~port ~stream ?nack_interval ?nack_holdoff ?secure
      ?reasm_pool ~deliver:(Stage2.deliver_fn stage) ()
  in
  (* Stage 1 settles the last ADU before [check_complete] fires, so the
     flush here always drains the final partial batch. *)
  on_complete t (fun () -> Stage2.flush stage);
  (t, stage)
