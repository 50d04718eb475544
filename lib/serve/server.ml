open Bufkit
open Alf_core

type key = { peer : int; peer_port : int; stream : int }

type config = {
  port : int;
  shards : int;
  integrity : Checksum.Kind.t option;
  max_sessions_per_shard : int;
  rx_buf_size : int;
  rx_bufs_per_shard : int;
  ctl_bufs_per_shard : int;
  reasm_bufs_per_shard : int;
  max_adu : int;
  idle_timeout : float;
  done_linger : float;
  harvest_interval : float;
  nack_holdoff : float;
  nack_budget : int;
  stage2_plan : Ilp.plan;
  stage2_schema : Wire.Xdr.schema option;
  secure : Secure.Record.t option;
  obs_prefix : string;
  ingress_validation : bool;
  police_buckets : int;
  admit_rate : float;
  admit_burst : float;
  ctl_rate : float;
  ctl_burst : float;
  shed_hi : float;
  brown_hi : float;
  load_lo : float;
  load_ticks : int;
}

let default_config =
  {
    port = 7000;
    shards = 4;
    integrity = Some Checksum.Kind.Crc32;
    max_sessions_per_shard = 1 lsl 17;
    rx_buf_size = 2048;
    rx_bufs_per_shard = 1024;
    ctl_bufs_per_shard = 256;
    reasm_bufs_per_shard = 64;
    max_adu = 1 lsl 14;
    idle_timeout = 5.0;
    done_linger = 0.5;
    harvest_interval = 0.05;
    nack_holdoff = 0.06;
    nack_budget = 8;
    stage2_plan = [ Ilp.Checksum Checksum.Kind.Crc32; Ilp.Deliver_copy ];
    stage2_schema = None;
    secure = None;
    obs_prefix = "serve";
    ingress_validation = true;
    police_buckets = 1024;
    (* Rates are per (shard, peer-hash) bucket: honest load spreads one
       peer's streams across all shards, so a bucket sees 1/shards of a
       port's traffic — the burst covers honest startup several times
       over while a single-port flood exhausts it quickly. *)
    admit_rate = 200.;
    admit_burst = 512.;
    ctl_rate = 400.;
    ctl_burst = 1024.;
    shed_hi = 0.75;
    brown_hi = 0.92;
    load_lo = 0.35;
    load_ticks = 2;
  }

type load_state = Normal | Shedding | Brownout

let load_state_index = function Normal -> 0 | Shedding -> 1 | Brownout -> 2
let load_state_name = function
  | Normal -> "normal"
  | Shedding -> "shedding"
  | Brownout -> "brownout"

(* A session is also its own key in the shard table: [k_peer],
   [k_port] and [k_stream] repeat [key]'s fields, and a per-shard probe
   session whose only live fields are those three looks a datagram's
   session up without building a key. Dropped sessions go on a per-shard
   free list through [next_free] and are reused by the next admission. *)
type session = {
  mutable key : key;
  rx : Rx.t;
  mutable reasm : Framing.reassembler option;  (* multi-fragment only *)
  mutable last_rx : float;
  mutable completed : bool;
  mutable completed_at : float;
  mutable nack_tries : int;
  mutable last_nack : float;
  mutable k_peer : int;
  mutable k_port : int;
  mutable k_stream : int;
  mutable next_free : session;
}

let blank_key = { peer = 0; peer_port = 0; stream = 0 }
let nil_rx = Rx.create ()

(* "No session": the end of a free list, and what a refused lookup
   returns. Never in a table, never handed to a caller. *)
let rec nil_session =
  {
    key = blank_key;
    rx = nil_rx;
    reasm = None;
    last_rx = 0.;
    completed = false;
    completed_at = 0.;
    nack_tries = 0;
    last_nack = 0.;
    k_peer = -1;
    k_port = -1;
    k_stream = -1;
    next_free = nil_session;
  }

let fresh_session () = { nil_session with rx = Rx.create () }

module Table = Hashtbl.Make (struct
  type t = session

  let equal a b =
    a.k_peer = b.k_peer && a.k_port = b.k_port && a.k_stream = b.k_stream

  (* The table indexes by the low bits, and the shard was picked from the
     low bits of the same hash: take the high half instead. *)
  let hash s =
    Demux.hash_int ~peer:s.k_peer ~peer_port:s.k_port ~stream:s.k_stream
    lsr 31
end)

(* Sessions kept for reuse per shard, at most: enough for the churn of
   many short sessions, bounded so a burst's worth is not held forever. *)
let free_cap = 4096

type counters = {
  c_arrivals : Obs.Counter.t;
  c_accepted : Obs.Counter.t;
  c_datagrams : Obs.Counter.t;
  c_delivered : Obs.Counter.t;
  c_bytes : Obs.Counter.t;
  c_gone : Obs.Counter.t;
  c_gone_local : Obs.Counter.t;
  c_dups : Obs.Counter.t;
  c_admitted : Obs.Counter.t;
  c_evicted : Obs.Counter.t;
  c_harvested : Obs.Counter.t;
  c_ctl_sent : Obs.Counter.t;
  c_nacks : Obs.Counter.t;
  c_dones : Obs.Counter.t;
  c_fallback_allocs : Obs.Counter.t;
  c_views : Obs.Counter.t;
  c_view_invalid : Obs.Counter.t;
  c_drops : Obs.Counter.t array;  (* indexed by Ingress.reason_index *)
}

(* The inbox and the outbox are slot arrays filled from 0 and emptied
   whole: each slot owns a staging buffer made at create, and holds its
   datagram's length and addresses as ints, so queuing a datagram or a
   control reply allocates nothing. Every [pump] drains the inboxes and
   then the outboxes; [ingest] and [harvest] fill them between pumps. *)
type shard = {
  sid : int;
  lock : Mutex.t;
  sessions : session Table.t;
  probe : session;  (* lookup key, see [find] *)
  mutable free : session;  (* recycled sessions, through [next_free] *)
  mutable free_count : int;
  in_buf : Bytebuf.t array;  (* rx_bufs_per_shard staging slots *)
  in_len : int array;
  in_src : int array;
  in_port : int array;
  mutable in_count : int;
  out_buf : Bytebuf.t array;  (* ctl_bufs_per_shard control slots *)
  out_view : Bytebuf.t array;  (* the sealed reply: a view of [out_buf] *)
  out_dst : int array;
  out_port : int array;
  mutable out_count : int;
  mutable spill : (int * int * Bytebuf.t) list;
      (* replies past the last slot, newest first, in fresh buffers *)
  mutable spill_count : int;
  reasm_pool : Pool.t;
  scratch : Bytebuf.t;  (* stage-2 destination, one per shard domain *)
  mutable scratch_view : Bytebuf.t;  (* its prefix of the last length run *)
  frag : Framing.fields;  (* parse scratch, one datagram at a time *)
  adu : Adu.fields;
  ctl : Ctl.fields;
  ctr : counters;
  admit_police : Police.t;  (* session creation, under the shard lock *)
  ctl_police : Police.t;  (* control traffic, under the shard lock *)
  sh_secure : Secure.Record.t option;  (* per-shard record-layer clone *)
  mutable refused : Ingress.reason option;
      (* why the last [gated_session] returned [nil_session] *)
  mutable pending_reason : Ingress.reason option;
      (* drop reason surfaced by a reassembler-driven delivery, so the
         completing datagram is attributed to it (e.g. [Auth]) *)
  mutable peak_sessions : int;
  mutable inbox_peak : int;  (* high-water marks since the last harvest, *)
  mutable outbox_peak : int;  (* the overload-control occupancy signal *)
}

type t = {
  config : config;
  sched : Rt.Sched.t;
  io : Dgram.t option;
  pool : Par.Pool.t option;
  shards : shard array;
  mutable tasks : (unit -> unit) array;  (* one [process_shard] per shard *)
  limits : Ingress.limits;
  on_adu : (key -> Adu.t -> unit) option;
  on_view : (key -> Wire.View.t -> unit) option;
  stage2 : Ilp.compiled;  (* [config.stage2_plan], compiled at create *)
  stage2_prog : Wire.Schema.prog option;  (* compiled once at create *)
  on_complete : (key -> delivered:int -> gone:int -> unit) option;
  mutable load : load_state;
  mutable load_pending : load_state;  (* candidate next state... *)
  mutable load_streak : int;  (* ...and its consecutive confirmations *)
  mutable harvest_timer : Rt.Sched.timer option;
  mutable stopped : bool;
}

let load_state t = t.load

(* The reassembly budget is allocated up front: fill the pool's free
   list at create so steady state never sees a fresh buffer. *)
let rec warm pool n =
  if n > 0 then
    match Pool.try_acquire pool with
    | Some b ->
        warm pool (n - 1);
        Pool.release pool b
    | None -> ()

let make_shard config registry sid =
  let c name =
    Obs.Registry.counter ?registry
      (Printf.sprintf "%s.shard%d.%s" config.obs_prefix sid name)
  in
  let sessions = Table.create 256 in
  Obs.Registry.pull ?registry
    (Printf.sprintf "%s.shard%d.sessions" config.obs_prefix sid)
    (fun () -> float_of_int (Table.length sessions));
  let slots n = Array.init n (fun _ -> Bytebuf.create config.rx_buf_size) in
  let out_buf = slots config.ctl_bufs_per_shard in
  let reasm_pool =
    Pool.create ~capacity:config.reasm_bufs_per_shard
      ~buf_size:(config.max_adu + Adu.header_size) ()
  in
  warm reasm_pool config.reasm_bufs_per_shard;
  let scratch = Bytebuf.create config.max_adu in
  {
    sid;
    lock = Mutex.create ();
    sessions;
    probe = fresh_session ();
    free = nil_session;
    free_count = 0;
    in_buf = slots config.rx_bufs_per_shard;
    in_len = Array.make config.rx_bufs_per_shard 0;
    in_src = Array.make config.rx_bufs_per_shard 0;
    in_port = Array.make config.rx_bufs_per_shard 0;
    in_count = 0;
    out_buf;
    out_view = Array.map (fun b -> Bytebuf.take b 0) out_buf;
    out_dst = Array.make config.ctl_bufs_per_shard 0;
    out_port = Array.make config.ctl_bufs_per_shard 0;
    out_count = 0;
    spill = [];
    spill_count = 0;
    reasm_pool;
    scratch;
    scratch_view = Bytebuf.take scratch 0;
    frag = Framing.fields ();
    adu = Adu.fields ();
    ctl = Ctl.fields ();
    ctr =
      {
        c_arrivals = c "arrivals";
        c_accepted = c "accepted";
        c_datagrams = c "datagrams";
        c_delivered = c "delivered";
        c_bytes = c "delivered_bytes";
        c_gone = c "gone";
        c_gone_local = c "gone_local";
        c_dups = c "dups";
        c_admitted = c "admitted";
        c_evicted = c "evicted";
        c_harvested = c "harvested";
        c_ctl_sent = c "ctl_sent";
        c_nacks = c "nacks";
        c_dones = c "dones";
        c_fallback_allocs = c "fallback_allocs";
        c_views = c "views";
        c_view_invalid = c "view_invalid";
        c_drops =
          Array.map
            (fun r -> c ("drop." ^ Ingress.reason_name r))
            Ingress.all_reasons;
      };
    admit_police =
      Police.create ~buckets:config.police_buckets ~rate:config.admit_rate
        ~burst:config.admit_burst ();
    ctl_police =
      Police.create ~buckets:config.police_buckets ~rate:config.ctl_rate
        ~burst:config.ctl_burst ();
    sh_secure = Option.map Secure.Record.clone config.secure;
    refused = None;
    pending_reason = None;
    peak_sessions = 0;
    inbox_peak = 0;
    outbox_peak = 0;
  }

let count_drop sh reason =
  Obs.Counter.incr sh.ctr.c_drops.(Ingress.reason_index reason)

(* ---- session bookkeeping (all under the owning shard's lock) ---- *)

(* Under the shard lock only: the probe is the shard's. *)
let find sh ~peer ~peer_port ~stream =
  let p = sh.probe in
  p.k_peer <- peer;
  p.k_port <- peer_port;
  p.k_stream <- stream;
  match Table.find sh.sessions p with
  | s -> s
  | exception Not_found -> nil_session

(* The reassembler's retired-index table rides the frontier. *)
let retire s =
  match s.reasm with
  | Some r -> Framing.retire_below r ~bound:(Rx.frontier s.rx)
  | None -> ()

let drop_session sh s =
  (* [clear], not [retire_below ~bound:(highest+1)]: a hostile sender can
     hold a partial at an index it never advanced [highest] past (or the
     session can be evicted mid-reassembly), and any bound-based sweep
     would strand that partial's pooled buffer — a budget leak a churn
     flood turns into exhaustion. *)
  (match s.reasm with Some r -> Framing.clear r | None -> ());
  Table.remove sh.sessions s;
  if sh.free_count < free_cap then begin
    s.reasm <- None;
    s.next_free <- sh.free;
    sh.free <- s;
    sh.free_count <- sh.free_count + 1
  end

(* Victim choice when a shard is at capacity: a completed session that is
   merely lingering for a late re-CLOSE beats any live one; among
   completed, the longest-done; among live, the longest-idle (LRU). *)
let evict_one sh =
  let victim =
    Table.fold
      (fun s _ b ->
        if b == nil_session then s
        else
          let better =
            if s.completed <> b.completed then s.completed
            else if s.completed then s.completed_at < b.completed_at
            else s.last_rx < b.last_rx
          in
          if better then s else b)
      sh.sessions nil_session
  in
  if victim != nil_session then begin
    drop_session sh victim;
    Obs.Counter.incr sh.ctr.c_evicted
  end

(* The one place a session key is built. *)
let admit t sh ~peer ~peer_port ~stream now =
  if Table.length sh.sessions >= t.config.max_sessions_per_shard then
    evict_one sh;
  let s =
    if sh.free == nil_session then fresh_session ()
    else begin
      let s = sh.free in
      sh.free <- s.next_free;
      sh.free_count <- sh.free_count - 1;
      s.next_free <- nil_session;
      Rx.reset s.rx;
      s
    end
  in
  s.key <- { peer; peer_port; stream };
  s.k_peer <- peer;
  s.k_port <- peer_port;
  s.k_stream <- stream;
  s.last_rx <- now;
  s.completed <- false;
  s.completed_at <- 0.;
  s.nack_tries <- 0;
  s.last_nack <- now;
  Table.replace sh.sessions s s;
  Obs.Counter.incr sh.ctr.c_admitted;
  let live = Table.length sh.sessions in
  if live > sh.peak_sessions then sh.peak_sessions <- live;
  s

(* ---- control replies (queued; the main thread drains after pump) ---- *)

(* The buffer the next reply is written into: the next outbox slot's,
   or a fresh one once every slot is taken. *)
let ctl_buf t sh =
  if sh.out_count < Array.length sh.out_buf then sh.out_buf.(sh.out_count)
  else begin
    Obs.Counter.incr sh.ctr.c_fallback_allocs;
    Bytebuf.create t.config.rx_buf_size
  end

(* Seal the [len]-byte body [ctl_buf] returned and queue it. A slot keeps
   the view of its last reply, so a run of same-length replies (every
   DONE) builds no view either. *)
let queue_ctl t sh ~dst ~dst_port buf ~len =
  let total = Ctl.seal_in_place t.config.integrity buf ~len in
  let i = sh.out_count in
  if i < Array.length sh.out_buf then begin
    if Bytebuf.length sh.out_view.(i) <> total then
      sh.out_view.(i) <- Bytebuf.take buf total;
    sh.out_dst.(i) <- dst;
    sh.out_port.(i) <- dst_port;
    sh.out_count <- i + 1
  end
  else begin
    sh.spill <- (dst, dst_port, Bytebuf.take buf total) :: sh.spill;
    sh.spill_count <- sh.spill_count + 1
  end;
  let depth = sh.out_count + sh.spill_count in
  if depth > sh.outbox_peak then sh.outbox_peak <- depth;
  Obs.Counter.incr sh.ctr.c_ctl_sent

let send_done t sh s =
  let buf = ctl_buf t sh in
  let len = Ctl.write_done buf ~stream:s.key.stream in
  queue_ctl t sh ~dst:s.key.peer ~dst_port:s.key.peer_port buf ~len;
  Obs.Counter.incr sh.ctr.c_dones

let maybe_complete t sh s =
  if (not s.completed) && Rx.complete s.rx then begin
    s.completed <- true;
    s.completed_at <- Rt.Sched.now t.sched;
    send_done t sh s;
    match t.on_complete with
    | Some f -> f s.key ~delivered:(Rx.delivered s.rx) ~gone:(Rx.gone s.rx)
    | None -> ()
  end

(* Sender GONEs and locally declared losses settle alike, one index at a
   time; [c] counts the indices that were still open. [settled] closes
   the batch. *)
let settle_gone s c i =
  match Rx.settle s.rx i ~delivered:false with
  | Rx.Fresh -> Obs.Counter.incr c
  | Rx.Dup | Rx.Beyond_window -> ()

let settled t sh s =
  retire s;
  maybe_complete t sh s

(* ---- stage 2 + delivery ---- *)

(* [sh.scratch]'s first [n] bytes, as the stage-2 destination: the view
   is rebuilt only when the length changes. *)
let scratch_for sh n =
  if Bytebuf.length sh.scratch_view <> n then
    sh.scratch_view <- Bytebuf.take sh.scratch n;
  sh.scratch_view

(* Stage 2 over a delivered payload, into the shard scratch (a fresh
   buffer, counted, past [max_adu]). *)
let stage2 t sh s payload =
  let plen = Bytebuf.length payload in
  let dst =
    if plen <= Bytebuf.length sh.scratch then scratch_for sh plen
    else begin
      Obs.Counter.incr sh.ctr.c_fallback_allocs;
      Bytebuf.create plen
    end
  in
  match t.stage2_prog with
  | Some prog -> (
      (* Lazy stage 2: same plan transform into the shard scratch, but a
         validate pass instead of a decode — the on_view hook reads
         fields on demand over the scratch bytes. Byzantine payloads land
         in [view_invalid], never an exception. *)
      let r = Ilp.run_view ~dst t.config.stage2_plan prog payload in
      match r.Ilp.view with
      | Ok (view, _) ->
          Obs.Counter.incr sh.ctr.c_views;
          (match t.on_view with Some f -> f s.key view | None -> ())
      | Error _ -> Obs.Counter.incr sh.ctr.c_view_invalid)
  | None -> if plen > 0 then Ilp.run_into t.stage2 ~dst payload

(* What a failed record open yields: never delivered. *)
let no_adu = Adu.make (Adu.name ~stream:0 ~index:0 ()) Bytebuf.empty

(* Returns the drop reason when the unit must not count as served
   ([Auth], or [Window] for an ADU header index beyond the window);
   [None] covers delivery and the benign duplicate short-circuit. *)
let deliver_adu t sh s adu =
  let index = adu.Adu.name.Adu.index in
  match Rx.admit s.rx index with
  | Rx.Dup ->
      Obs.Counter.incr sh.ctr.c_dups;
      None
  | Rx.Beyond_window -> Some Ingress.Window
  | Rx.Fresh ->
      (* The record layer opens in place over the borrowed payload — one
         fused MAC+decrypt pass on the shard domain — before any stage-2
         work sees the bytes. A failure is a counted [Auth] drop, and the
         index is un-retired so NACK repair can fetch the genuine bytes. *)
      let opened =
        match sh.sh_secure with
        | None -> adu
        | Some rc -> (
            match
              Secure.Record.open_payload rc adu.Adu.name adu.Adu.payload
            with
            | Ok ct -> Adu.make adu.Adu.name ct
            | Error _ -> no_adu)
      in
      if opened == no_adu then begin
        (match s.reasm with
        | Some r -> Framing.unretire r ~index
        | None -> ());
        Some Ingress.Auth
      end
      else begin
        stage2 t sh s opened.Adu.payload;
        ignore (Rx.settle s.rx index ~delivered:true);
        Obs.Counter.incr sh.ctr.c_delivered;
        Obs.Counter.add sh.ctr.c_bytes (Bytebuf.length opened.Adu.payload);
        (match t.on_adu with Some f -> f s.key opened | None -> ());
        retire s;
        maybe_complete t sh s;
        None
      end

(* ---- per-datagram dispatch (inside a shard task) ----

   Every handler returns [Some reason] (the datagram was dropped, count
   it under that one reason) or [None] (accepted); each [Some reason] is
   a constant, so a drop allocates nothing. Handlers are total: the
   [Dispatch_error] guard in {!process_pending} is a last resort, not a
   code path. *)

(* The session for a key, admitted through the gate when it is new:
   refused outright in brownout, then rate-limited per peer. On refusal,
   [nil_session] with the reason in [sh.refused]. *)
let gated_session t sh now ~peer ~peer_port ~stream =
  let s = find sh ~peer ~peer_port ~stream in
  if s != nil_session then s
  else if t.load = Brownout then begin
    sh.refused <- Some Ingress.Shed;
    nil_session
  end
  else if
    not
      (Police.allow_int sh.admit_police
         ~key:(Demux.hash_int ~peer ~peer_port ~stream:0)
         ~now)
  then begin
    sh.refused <- Some Ingress.Policed_new;
    nil_session
  end
  else admit t sh ~peer ~peer_port ~stream now

(* A multi-fragment ADU goes through the session's reassembler, made on
   its first fragment. *)
let reassemble t sh s info =
  let r =
    match s.reasm with
    | Some r -> r
    | None ->
        let r =
          Framing.reassembler ~pool:sh.reasm_pool
            ~deliver:(fun adu -> sh.pending_reason <- deliver_adu t sh s adu)
            ()
        in
        s.reasm <- Some r;
        r
  in
  (* [push] reports malformed outcomes through its stats; the deltas
     attribute this datagram to exactly one reason. *)
  let st = Framing.stats r in
  let dups0 = st.Framing.duplicate_frags in
  let corrupt0 = st.Framing.corrupt_adus in
  let inconsistent0 = st.Framing.inconsistent_frags in
  sh.pending_reason <- None;
  Framing.push r info;
  if st.Framing.corrupt_adus > corrupt0 then Some Ingress.Bad_adu
  else if st.Framing.inconsistent_frags > inconsistent0 then
    Some Ingress.Frag_header
  else begin
    if st.Framing.duplicate_frags > dups0 then Obs.Counter.incr sh.ctr.c_dups;
    (* A completing push may have surfaced a delivery-time drop (record
       auth): charge this datagram with it. *)
    sh.pending_reason
  end

let handle_fragment t sh now ~src ~src_port buf ~len =
  let f = sh.frag in
  match Framing.read_fragment f buf ~len with
  | Some _ -> Some Ingress.Frag_header
  | None -> (
      let s =
        gated_session t sh now ~peer:src ~peer_port:src_port
          ~stream:f.Framing.h_stream
      in
      if s == nil_session then sh.refused
      else begin
        s.last_rx <- now;
        match Rx.admit s.rx f.Framing.h_index with
        | Rx.Dup ->
            Obs.Counter.incr sh.ctr.c_dups;
            None
        | Rx.Beyond_window -> Some Ingress.Window
        | Rx.Fresh ->
            if f.Framing.h_nfrags = 1 then begin
              (* The single-fragment fast path: the whole encoded ADU is
                 already in the staged datagram — verify it in place, no
                 reassembler, no copy. *)
              let pos = Framing.fragment_header_size in
              match Adu.read sh.adu buf ~pos ~len:f.Framing.h_chunk_len with
              | Some _ -> Some Ingress.Bad_adu
              | None ->
                  deliver_adu t sh s
                    (Adu.make (Adu.name_of sh.adu)
                       (Bytebuf.sub buf ~pos:(pos + Adu.header_size)
                          ~len:sh.adu.Adu.h_payload_len))
            end
            else reassemble t sh s (Framing.info_of f buf)
      end)

let handle_control t sh now ~src ~src_port buf ~len =
  if
    not
      (Police.allow_int sh.ctl_police
         ~key:(Demux.hash_int ~peer:src ~peer_port:src_port ~stream:0)
         ~now)
  then Some Ingress.Policed_ctl
  else
    let c = sh.ctl in
    let tag = Ctl.read c buf ~len in
    if tag < 0 then Some Ingress.Ctl_malformed
    else if tag = Ctl.tag_close || tag = Ctl.tag_gone then begin
      let s =
        gated_session t sh now ~peer:src ~peer_port:src_port
          ~stream:c.Ctl.stream
      in
      if s == nil_session then sh.refused
      else begin
        s.last_rx <- now;
        if tag = Ctl.tag_close then begin
          Rx.close s.rx c.Ctl.total;
          (* A CLOSE landing after completion means our DONE was lost. *)
          if s.completed then send_done t sh s else maybe_complete t sh s
        end
        else begin
          for i = 0 to c.Ctl.count - 1 do
            settle_gone s sh.ctr.c_gone (Ctl.index c buf i)
          done;
          settled t sh s
        end;
        None
      end
    end
    else None (* NACK and DONE are sender-bound; nothing to do *)

let dispatch t sh now i =
  let buf = sh.in_buf.(i) in
  let len = Ctl.unsealed_length t.config.integrity buf ~len:sh.in_len.(i) in
  if len < 0 then Some Ingress.Bad_crc
  else if len = 0 then Some Ingress.Runt
  else
    let src = sh.in_src.(i) and src_port = sh.in_port.(i) in
    let b0 = Bytebuf.get_uint8 buf 0 in
    if b0 = Framing.frag_magic then
      handle_fragment t sh now ~src ~src_port buf ~len
    else if b0 = Ctl.tag_fec then Some Ingress.Fec_unsupported
    else handle_control t sh now ~src ~src_port buf ~len

let process_pending t sh now i =
  Obs.Counter.incr sh.ctr.c_datagrams;
  match dispatch t sh now i with
  | None -> Obs.Counter.incr sh.ctr.c_accepted
  | Some reason -> count_drop sh reason
  | exception _ ->
      (* The last-resort guard the satellite audit demands: a dispatch
         bug costs one counted datagram, never the server. *)
      count_drop sh Ingress.Dispatch_error

(* Nothing between the lock and the unlock can raise: [process_pending]
   catches everything dispatch does. *)
let process_shard t sh =
  Mutex.lock sh.lock;
  let now = Rt.Sched.now t.sched in
  for i = 0 to sh.in_count - 1 do
    process_pending t sh now i
  done;
  sh.in_count <- 0;
  Mutex.unlock sh.lock

(* ---- ingest (main thread: the bound handler or a test driver) ---- *)

let ingest t ~src ~src_port buf =
  let len = Bytebuf.length buf in
  (* Route first (runts land on shard 0) so that every arrival — and the
     accept or single drop reason it resolves to — is charged to exactly
     one shard: per-shard [arrivals = accepted + Σ drops] holds by
     construction. *)
  let stream = Demux.stream_id buf in
  let sh =
    if stream < 0 then t.shards.(0)
    else
      t.shards.(Demux.shard_of ~shards:t.config.shards ~peer:src
                  ~peer_port:src_port ~stream)
  in
  Obs.Counter.incr sh.ctr.c_arrivals;
  let refused =
    if t.config.ingress_validation then Ingress.check t.limits buf
    else if len < 3 then Some Ingress.Runt
    else if len > t.config.rx_buf_size then Some Ingress.Oversize
    else None
  in
  match refused with
  | Some reason -> count_drop sh reason
  | None ->
      Mutex.lock sh.lock;
      let i = sh.in_count in
      if i = Array.length sh.in_buf then begin
        Mutex.unlock sh.lock;
        (* The shard's staging budget is spent: admission control by
           backpressure, counted, never blocking the ingest thread. *)
        count_drop sh Ingress.Backpressure
      end
      else begin
        Bytebuf.blit ~src:buf ~src_pos:0 ~dst:sh.in_buf.(i) ~dst_pos:0 ~len;
        sh.in_len.(i) <- len;
        sh.in_src.(i) <- src;
        sh.in_port.(i) <- src_port;
        sh.in_count <- i + 1;
        if i + 1 > sh.inbox_peak then sh.inbox_peak <- i + 1;
        Mutex.unlock sh.lock
      end

(* ---- outbox drain (main thread only: substrates are not thread-safe) ---- *)

let drain_outboxes t =
  for k = 0 to Array.length t.shards - 1 do
    let sh = t.shards.(k) in
    Mutex.lock sh.lock;
    (match t.io with
    | Some io ->
        for i = 0 to sh.out_count - 1 do
          ignore
            (io.Dgram.send ~dst:sh.out_dst.(i) ~dst_port:sh.out_port.(i)
               ~src_port:t.config.port sh.out_view.(i))
        done;
        if sh.spill <> [] then
          List.iter
            (fun (dst, dst_port, m) ->
              ignore (io.Dgram.send ~dst ~dst_port ~src_port:t.config.port m))
            (List.rev sh.spill)
    | None -> ());
    sh.out_count <- 0;
    sh.spill <- [];
    sh.spill_count <- 0;
    Mutex.unlock sh.lock
  done

let pump t =
  let busy = ref 0 and last = ref 0 in
  for k = 0 to Array.length t.shards - 1 do
    if t.shards.(k).in_count > 0 then begin
      incr busy;
      last := k
    end
  done;
  (if !busy = 1 then process_shard t t.shards.(!last)
   else if !busy > 1 then
     match t.pool with
     | Some pool when Par.Pool.size pool > 1 -> Par.Pool.run pool t.tasks
     | _ ->
         for k = 0 to Array.length t.shards - 1 do
           if t.shards.(k).in_count > 0 then process_shard t t.shards.(k)
         done);
  drain_outboxes t

(* ---- harvest: idle/lingering eviction + NACK repair ---- *)

let repair t sh s now =
  if Rx.frontier s.rx < Rx.horizon s.rx then begin
    let holdoff =
      t.config.nack_holdoff *. float_of_int (1 lsl min s.nack_tries 6)
    in
    if now -. s.last_nack >= holdoff then
      if s.nack_tries >= t.config.nack_budget then begin
        (* Repair budget spent: declare the rest locally gone so the
           session can settle instead of hanging — the loss is reported
           in application terms, exactly like a sender GONE. *)
        List.iter
          (settle_gone s sh.ctr.c_gone_local)
          (Rx.missing s.rx ~cap:Rx.window);
        settled t sh s
      end
      else begin
        (* Fit the NACK in one control slot: 13-byte body header, 4 bytes
           per index, 4-byte trailer. *)
        let cap = min 256 ((t.config.rx_buf_size - 17) / 4) in
        match Rx.missing s.rx ~cap with
        | [] -> ()
        | missing ->
            let buf = ctl_buf t sh in
            let len =
              Ctl.write_nack buf ~stream:s.key.stream
                ~have_below:(Rx.frontier s.rx) missing
            in
            queue_ctl t sh ~dst:s.key.peer ~dst_port:s.key.peer_port buf ~len;
            Obs.Counter.incr sh.ctr.c_nacks;
            s.nack_tries <- s.nack_tries + 1;
            s.last_nack <- now
      end
  end

(* Shedding tightens the timers (completed sessions go immediately,
   idle ones in half the time); brownout halves them again and — via
   {!gated_session} — refuses new admissions entirely. Completed-first
   ordering is already {!evict_one}'s victim policy, so the ladder is
   completed-first → LRU → new-admission refusal, as load rises. *)
let effective_linger t =
  match t.load with Normal -> t.config.done_linger | Shedding | Brownout -> 0.

let effective_idle t =
  match t.load with
  | Normal -> t.config.idle_timeout
  | Shedding -> t.config.idle_timeout /. 2.
  | Brownout -> t.config.idle_timeout /. 4.

(* Returns the shard's staging occupancy since the last harvest: the
   larger of inbox depth against the rx budget and outbox depth against
   the ctl budget, as a fraction. Peaks reset so each harvest sees one
   interval's pressure. *)
let harvest_shard t sh now =
  Mutex.lock sh.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sh.lock)
    (fun () ->
      let linger = effective_linger t and idle = effective_idle t in
      let expired = ref [] in
      Table.iter
        (fun s _ ->
          if s.completed then begin
            if now -. s.completed_at >= linger then expired := s :: !expired
          end
          else if now -. s.last_rx >= idle then expired := s :: !expired
          else repair t sh s now)
        sh.sessions;
      List.iter
        (fun s ->
          drop_session sh s;
          Obs.Counter.incr sh.ctr.c_harvested)
        !expired;
      let occ =
        Float.max
          (float_of_int sh.inbox_peak
          /. float_of_int (max 1 t.config.rx_bufs_per_shard))
          (float_of_int sh.outbox_peak
          /. float_of_int (max 1 t.config.ctl_bufs_per_shard))
      in
      sh.inbox_peak <- 0;
      sh.outbox_peak <- 0;
      occ)

(* Deterministic hysteresis: the occupancy signal proposes a target
   state; the engine moves one level at a time, and only after the same
   proposal held for [load_ticks] consecutive harvests. The middle band
   (between [load_lo] and [shed_hi]) proposes at most Shedding, so
   Brownout — which refuses the admissions that would keep staging busy —
   always has a way back down. *)
let update_load t occ =
  let target =
    if occ >= t.config.brown_hi then Brownout
    else if occ >= t.config.shed_hi then Shedding
    else if occ <= t.config.load_lo then Normal
    else if t.load = Normal then Normal
    else Shedding
  in
  if target = t.load then begin
    t.load_pending <- t.load;
    t.load_streak <- 0
  end
  else begin
    if target = t.load_pending then t.load_streak <- t.load_streak + 1
    else begin
      t.load_pending <- target;
      t.load_streak <- 1
    end;
    if t.load_streak >= t.config.load_ticks then begin
      let step a b = if b > a then a + 1 else a - 1 in
      let next =
        match
          step (load_state_index t.load) (load_state_index target)
        with
        | 0 -> Normal
        | 1 -> Shedding
        | _ -> Brownout
      in
      t.load <- next;
      t.load_streak <- 0;
      t.load_pending <- target
    end
  end

let harvest t =
  let now = Rt.Sched.now t.sched in
  let occ =
    Array.fold_left
      (fun acc sh -> Float.max acc (harvest_shard t sh now))
      0. t.shards
  in
  update_load t occ;
  drain_outboxes t

let rec arm_harvest t =
  if t.config.harvest_interval > 0. && not t.stopped then
    t.harvest_timer <-
      Some
        (Rt.Sched.schedule_after t.sched t.config.harvest_interval (fun () ->
             if not t.stopped then begin
               harvest t;
               arm_harvest t
             end))

let stop t =
  t.stopped <- true;
  (match t.harvest_timer with Some tm -> Rt.Sched.cancel tm | None -> ());
  t.harvest_timer <- None

let create ~sched ?io ?pool ?registry ?on_adu ?on_view ?on_complete
    ?(config = default_config) () =
  if config.shards < 1 then invalid_arg "Server.create: shards";
  if config.max_sessions_per_shard < 1 then
    invalid_arg "Server.create: max_sessions_per_shard";
  if config.rx_buf_size < Framing.fragment_header_size + Ctl.trailer_size then
    invalid_arg "Server.create: rx_buf_size";
  let shards = Array.init config.shards (make_shard config registry) in
  let limits =
    {
      Ingress.trailer =
        (match config.integrity with Some _ -> Ctl.trailer_size | None -> 0);
      max_len = config.rx_buf_size;
      max_total_len = config.max_adu + Adu.header_size;
    }
  in
  let t =
    {
      config;
      sched;
      io;
      pool;
      shards;
      tasks = [||];
      limits;
      on_adu;
      on_view;
      stage2 = Ilp.compile config.stage2_plan;
      stage2_prog = Option.map Wire.Schema.prog_of_xdr config.stage2_schema;
      on_complete;
      load = Normal;
      load_pending = Normal;
      load_streak = 0;
      harvest_timer = None;
      stopped = false;
    }
  in
  t.tasks <- Array.map (fun sh () -> process_shard t sh) shards;
  Obs.Registry.pull ?registry
    (config.obs_prefix ^ ".load_state")
    (fun () -> float_of_int (load_state_index t.load));
  Array.iter
    (fun r ->
      let i = Ingress.reason_index r in
      Obs.Registry.pull ?registry
        (config.obs_prefix ^ ".drop." ^ Ingress.reason_name r)
        (fun () ->
          float_of_int
            (Array.fold_left
               (fun acc sh -> acc + Obs.Counter.value sh.ctr.c_drops.(i))
               0 t.shards)))
    Ingress.all_reasons;
  (match io with
  | Some io ->
      io.Dgram.bind ~port:config.port (fun ~src ~src_port buf ->
          ingest t ~src ~src_port buf)
  | None -> ());
  arm_harvest t;
  t

(* ---- observation ---- *)

type snapshot = {
  arrivals : int;
  accepted : int;
  datagrams : int;
  delivered : int;
  delivered_bytes : int;
  gone : int;
  gone_local : int;
  dups : int;
  admitted : int;
  evicted : int;
  harvested : int;
  ctl_sent : int;
  nacks : int;
  dones : int;
  fallback_allocs : int;
  views : int;  (* validated lazy views handed to on_view *)
  view_invalid : int;  (* payloads failing schema validation *)
  drops : int array;  (* indexed by Ingress.reason_index *)
  dropped : int;  (* Σ drops *)
}

let snapshot_of_counters c =
  let v = Obs.Counter.value in
  let drops = Array.map v c.c_drops in
  {
    arrivals = v c.c_arrivals;
    accepted = v c.c_accepted;
    datagrams = v c.c_datagrams;
    delivered = v c.c_delivered;
    delivered_bytes = v c.c_bytes;
    gone = v c.c_gone;
    gone_local = v c.c_gone_local;
    dups = v c.c_dups;
    admitted = v c.c_admitted;
    evicted = v c.c_evicted;
    harvested = v c.c_harvested;
    ctl_sent = v c.c_ctl_sent;
    nacks = v c.c_nacks;
    dones = v c.c_dones;
    fallback_allocs = v c.c_fallback_allocs;
    views = v c.c_views;
    view_invalid = v c.c_view_invalid;
    drops;
    dropped = Array.fold_left ( + ) 0 drops;
  }

let add_snapshot a b =
  {
    arrivals = a.arrivals + b.arrivals;
    accepted = a.accepted + b.accepted;
    datagrams = a.datagrams + b.datagrams;
    delivered = a.delivered + b.delivered;
    delivered_bytes = a.delivered_bytes + b.delivered_bytes;
    gone = a.gone + b.gone;
    gone_local = a.gone_local + b.gone_local;
    dups = a.dups + b.dups;
    admitted = a.admitted + b.admitted;
    evicted = a.evicted + b.evicted;
    harvested = a.harvested + b.harvested;
    ctl_sent = a.ctl_sent + b.ctl_sent;
    nacks = a.nacks + b.nacks;
    dones = a.dones + b.dones;
    fallback_allocs = a.fallback_allocs + b.fallback_allocs;
    views = a.views + b.views;
    view_invalid = a.view_invalid + b.view_invalid;
    drops = Array.init Ingress.reason_count (fun i -> a.drops.(i) + b.drops.(i));
    dropped = a.dropped + b.dropped;
  }

let zero_snapshot =
  {
    arrivals = 0;
    accepted = 0;
    datagrams = 0;
    delivered = 0;
    delivered_bytes = 0;
    gone = 0;
    gone_local = 0;
    dups = 0;
    admitted = 0;
    evicted = 0;
    harvested = 0;
    ctl_sent = 0;
    nacks = 0;
    dones = 0;
    fallback_allocs = 0;
    views = 0;
    view_invalid = 0;
    drops = Array.make Ingress.reason_count 0;
    dropped = 0;
  }

let drop_count t reason =
  let i = Ingress.reason_index reason in
  Array.fold_left
    (fun acc sh -> acc + Obs.Counter.value sh.ctr.c_drops.(i))
    0 t.shards

let malformed_drops s =
  Array.fold_left ( + ) 0
    (Array.map
       (fun r ->
         if Ingress.is_malformed r then s.drops.(Ingress.reason_index r) else 0)
       Ingress.all_reasons)

let shard_count t = Array.length t.shards
let shard_snapshot t sid = snapshot_of_counters t.shards.(sid).ctr

let totals t =
  Array.fold_left
    (fun acc sh -> add_snapshot acc (snapshot_of_counters sh.ctr))
    zero_snapshot t.shards

let shard_sessions t sid = Table.length t.shards.(sid).sessions

let live_sessions t =
  Array.fold_left (fun acc sh -> acc + Table.length sh.sessions) 0 t.shards

let peak_sessions t =
  Array.fold_left (fun acc sh -> acc + sh.peak_sessions) 0 t.shards

(* Staging and control slots are made once at create and never counted
   here: the only pool left is reassembly's. *)
let pool_allocated t =
  Array.fold_left
    (fun acc sh -> acc + (Pool.stats sh.reasm_pool).Pool.allocated)
    0 t.shards

let pool_outstanding t =
  Array.fold_left
    (fun acc sh -> acc + (Pool.stats sh.reasm_pool).Pool.outstanding)
    0 t.shards

let shard_of_key t ~peer ~peer_port ~stream =
  Demux.shard_of ~shards:t.config.shards ~peer ~peer_port ~stream

(* Observation runs on any thread, so it probes with a record of its own. *)
let lookup sh ~peer ~peer_port ~stream =
  Table.find_opt sh.sessions
    { nil_session with k_peer = peer; k_port = peer_port; k_stream = stream }

let locate t ~peer ~peer_port ~stream =
  let found = ref None in
  Array.iter
    (fun sh ->
      if !found = None && lookup sh ~peer ~peer_port ~stream <> None then
        found := Some sh.sid)
    t.shards;
  !found

let ahead_load s =
  let d, g = Rx.ahead_counts s.rx in
  d + g

type session_view = {
  v_frontier : int;
  v_total : int;
  v_delivered : int;
  v_gone : int;
  v_completed : bool;
  v_ahead_load : int;
}

let session_view t ~peer ~peer_port ~stream =
  let sid = shard_of_key t ~peer ~peer_port ~stream in
  match lookup t.shards.(sid) ~peer ~peer_port ~stream with
  | None -> None
  | Some s ->
      Some
        {
          v_frontier = Rx.frontier s.rx;
          v_total = Rx.total s.rx;
          v_delivered = Rx.delivered s.rx;
          v_gone = Rx.gone s.rx;
          v_completed = s.completed;
          v_ahead_load = ahead_load s;
        }

let max_ahead_load t =
  Array.fold_left
    (fun acc sh ->
      Table.fold (fun s _ m -> max m (ahead_load s)) sh.sessions acc)
    0 t.shards
