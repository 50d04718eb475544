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
  max_ahead_window : int;
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
    max_ahead_window = 4096;
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

type session = {
  key : key;
  mutable frontier : int;  (* everything below is delivered or gone *)
  mutable highest : int;  (* highest index seen, -1 before any *)
  mutable total : int;  (* from CLOSE; -1 while unknown *)
  ahead : (int, bool) Hashtbl.t;  (* index >= frontier -> delivered? *)
  mutable reasm : Framing.reassembler option;  (* multi-fragment only *)
  mutable last_rx : float;
  mutable completed : bool;
  mutable completed_at : float;
  mutable nack_tries : int;
  mutable last_nack : float;
  mutable s_delivered : int;
  mutable s_gone : int;
}

type pending = {
  p_src : int;
  p_src_port : int;
  p_buf : Bytebuf.t;  (* the datagram: a view of [p_staging] *)
  p_staging : Bytebuf.t;  (* the rx_pool buffer, released after dispatch *)
}

type outmsg = {
  o_dst : int;
  o_dst_port : int;
  o_buf : Bytebuf.t;  (* the sealed message: a view of [o_full] *)
  o_full : Bytebuf.t;
  o_pooled : bool;  (* [o_full] is a ctl_pool buffer, not a fallback *)
}

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

type shard = {
  sid : int;
  lock : Mutex.t;
  sessions : (key, session) Hashtbl.t;
  inbox : pending Queue.t;
  outbox : outmsg Queue.t;
  rx_pool : Pool.t;
  ctl_pool : Pool.t;
  reasm_pool : Pool.t;
  scratch : Bytebuf.t;  (* stage-2 destination, one per shard domain *)
  ctr : counters;
  admit_police : Police.t;  (* session creation, under the shard lock *)
  ctl_police : Police.t;  (* control traffic, under the shard lock *)
  sh_secure : Secure.Record.t option;  (* per-shard record-layer clone *)
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
  limits : Ingress.limits;
  on_adu : (key -> Adu.t -> unit) option;
  on_view : (key -> Wire.View.t -> unit) option;
  stage2_prog : Wire.Schema.prog option;  (* compiled once at create *)
  on_complete : (key -> delivered:int -> gone:int -> unit) option;
  mutable load : load_state;
  mutable load_pending : load_state;  (* candidate next state... *)
  mutable load_streak : int;  (* ...and its consecutive confirmations *)
  mutable harvest_timer : Rt.Sched.timer option;
  mutable stopped : bool;
}

let load_state t = t.load

(* The memory budget is allocated up front: fill each pool's free list at
   create so steady state never sees a fresh buffer — the zero-allocation
   gate then measures the hot path, not warm-up timing. *)
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
  let sessions = Hashtbl.create 256 in
  Obs.Registry.pull ?registry
    (Printf.sprintf "%s.shard%d.sessions" config.obs_prefix sid)
    (fun () -> float_of_int (Hashtbl.length sessions));
  let rx_pool =
    Pool.create ~capacity:config.rx_bufs_per_shard
      ~max_outstanding:config.rx_bufs_per_shard ~buf_size:config.rx_buf_size
      ()
  in
  let ctl_pool =
    Pool.create ~capacity:config.ctl_bufs_per_shard
      ~max_outstanding:config.ctl_bufs_per_shard ~buf_size:config.rx_buf_size
      ()
  in
  let reasm_pool =
    Pool.create ~capacity:config.reasm_bufs_per_shard
      ~buf_size:(config.max_adu + Adu.header_size) ()
  in
  warm rx_pool config.rx_bufs_per_shard;
  warm ctl_pool config.ctl_bufs_per_shard;
  warm reasm_pool config.reasm_bufs_per_shard;
  {
    sid;
    lock = Mutex.create ();
    sessions;
    inbox = Queue.create ();
    outbox = Queue.create ();
    rx_pool;
    ctl_pool;
    reasm_pool;
    scratch = Bytebuf.create config.max_adu;
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
    pending_reason = None;
    peak_sessions = 0;
    inbox_peak = 0;
    outbox_peak = 0;
  }

let count_drop sh reason =
  Obs.Counter.incr sh.ctr.c_drops.(Ingress.reason_index reason)

(* ---- session bookkeeping (all under the owning shard's lock) ---- *)

let settled s index = index < s.frontier || Hashtbl.mem s.ahead index

let advance s =
  let start = s.frontier in
  while Hashtbl.mem s.ahead s.frontier do
    Hashtbl.remove s.ahead s.frontier;
    s.frontier <- s.frontier + 1
  done;
  if s.frontier > start then
    match s.reasm with
    | Some r -> Framing.retire_below r ~bound:s.frontier
    | None -> ()

let drop_session sh s =
  (* [clear], not [retire_below ~bound:(highest+1)]: a hostile sender can
     hold a partial at an index it never advanced [highest] past (or the
     session can be evicted mid-reassembly), and any bound-based sweep
     would strand that partial's pooled buffer — a budget leak a churn
     flood turns into exhaustion. *)
  (match s.reasm with Some r -> Framing.clear r | None -> ());
  Hashtbl.reset s.ahead;
  Hashtbl.remove sh.sessions s.key

(* Victim choice when a shard is at capacity: a completed session that is
   merely lingering for a late re-CLOSE beats any live one; among
   completed, the longest-done; among live, the longest-idle (LRU). *)
let evict_one sh =
  let victim =
    Hashtbl.fold
      (fun _ s best ->
        match best with
        | None -> Some s
        | Some b ->
            let better =
              if s.completed <> b.completed then s.completed
              else if s.completed then s.completed_at < b.completed_at
              else s.last_rx < b.last_rx
            in
            if better then Some s else best)
      sh.sessions None
  in
  match victim with
  | Some s ->
      drop_session sh s;
      Obs.Counter.incr sh.ctr.c_evicted
  | None -> ()

let admit t sh k now =
  if Hashtbl.length sh.sessions >= t.config.max_sessions_per_shard then
    evict_one sh;
  let s =
    {
      key = k;
      frontier = 0;
      highest = -1;
      total = -1;
      ahead = Hashtbl.create 8;
      reasm = None;
      last_rx = now;
      completed = false;
      completed_at = 0.;
      nack_tries = 0;
      last_nack = now;
      s_delivered = 0;
      s_gone = 0;
    }
  in
  Hashtbl.replace sh.sessions k s;
  Obs.Counter.incr sh.ctr.c_admitted;
  let live = Hashtbl.length sh.sessions in
  if live > sh.peak_sessions then sh.peak_sessions <- live;
  s

(* ---- control replies (queued; the main thread drains after pump) ---- *)

let queue_ctl t sh ~dst ~dst_port write =
  (match Pool.try_acquire sh.ctl_pool with
  | Some buf ->
      let len = write buf in
      let total = Ctl.seal_in_place t.config.integrity buf ~len in
      Queue.add
        {
          o_dst = dst;
          o_dst_port = dst_port;
          o_buf = Bytebuf.take buf total;
          o_full = buf;
          o_pooled = true;
        }
        sh.outbox
  | None ->
      Obs.Counter.incr sh.ctr.c_fallback_allocs;
      let buf = Bytebuf.create t.config.rx_buf_size in
      let len = write buf in
      let total = Ctl.seal_in_place t.config.integrity buf ~len in
      Queue.add
        {
          o_dst = dst;
          o_dst_port = dst_port;
          o_buf = Bytebuf.take buf total;
          o_full = buf;
          o_pooled = false;
        }
        sh.outbox);
  let depth = Queue.length sh.outbox in
  if depth > sh.outbox_peak then sh.outbox_peak <- depth;
  Obs.Counter.incr sh.ctr.c_ctl_sent

let send_done t sh s =
  queue_ctl t sh ~dst:s.key.peer ~dst_port:s.key.peer_port (fun buf ->
      Ctl.write_done buf ~stream:s.key.stream);
  Obs.Counter.incr sh.ctr.c_dones

let maybe_complete t sh s =
  if (not s.completed) && s.total >= 0 && s.frontier >= s.total then begin
    s.completed <- true;
    s.completed_at <- Rt.Sched.now t.sched;
    send_done t sh s;
    match t.on_complete with
    | Some f -> f s.key ~delivered:s.s_delivered ~gone:s.s_gone
    | None -> ()
  end

(* ---- stage 2 + delivery ---- *)

(* Returns the drop reason when the unit must not count as served —
   today only [Auth]; [None] covers both delivery and the benign
   duplicate short-circuit. *)
let deliver_adu t sh s adu =
  let index = adu.Adu.name.Adu.index in
  if settled s index then begin
    Obs.Counter.incr sh.ctr.c_dups;
    None
  end
  else
    (* The record layer opens in place over the borrowed payload — one
       fused MAC+decrypt pass on the shard domain — before any stage-2
       work sees the bytes. A failure is a counted [Auth] drop, and the
       index is un-retired so NACK repair can fetch the genuine bytes. *)
    let opened =
      match sh.sh_secure with
      | None -> Ok adu
      | Some rc -> (
          match Secure.Record.open_payload rc adu.Adu.name adu.Adu.payload with
          | Ok ct -> Ok (Adu.make adu.Adu.name ct)
          | Error _ -> Error Ingress.Auth)
    in
    match opened with
    | Error reason ->
        (match s.reasm with
        | Some r -> Framing.unretire r ~index
        | None -> ());
        Some reason
    | Ok adu ->
    let payload = adu.Adu.payload in
    let plen = Bytebuf.length payload in
    (match t.stage2_prog with
    | Some prog ->
        (* Lazy stage 2: same plan transform into the shard scratch, but
           a validate pass instead of a decode — the on_view hook reads
           fields on demand over the scratch bytes. Byzantine payloads
           land in [view_invalid], never an exception. *)
        let r =
          if plen <= Bytebuf.length sh.scratch then
            Ilp.run_view
              ~dst:(Bytebuf.take sh.scratch plen)
              t.config.stage2_plan prog payload
          else begin
            Obs.Counter.incr sh.ctr.c_fallback_allocs;
            Ilp.run_view t.config.stage2_plan prog payload
          end
        in
        (match r.Ilp.view with
        | Ok (view, _) ->
            Obs.Counter.incr sh.ctr.c_views;
            (match t.on_view with Some f -> f s.key view | None -> ())
        | Error _ -> Obs.Counter.incr sh.ctr.c_view_invalid)
    | None ->
        if plen > 0 then
          if plen <= Bytebuf.length sh.scratch then
            ignore
              (Ilp.run_fused
                 ~dst:(Bytebuf.take sh.scratch plen)
                 t.config.stage2_plan payload)
          else begin
            Obs.Counter.incr sh.ctr.c_fallback_allocs;
            ignore (Ilp.run_fused t.config.stage2_plan payload)
          end);
    Hashtbl.replace s.ahead index true;
    s.s_delivered <- s.s_delivered + 1;
    Obs.Counter.incr sh.ctr.c_delivered;
    Obs.Counter.add sh.ctr.c_bytes plen;
    if index > s.highest then s.highest <- index;
    (match t.on_adu with Some f -> f s.key adu | None -> ());
    advance s;
    maybe_complete t sh s;
    None

(* ---- per-datagram dispatch (inside a shard task) ----

   Every handler returns [Some reason] (the datagram was dropped, count
   it under that one reason) or [None] (accepted). Handlers are total:
   the [Dispatch_error] guard in {!process_pending} is a last resort,
   not a code path. *)

(* Admission gate for a datagram that would create a session: refused
   outright in brownout, then rate-limited per peer. Returns the session
   or the drop reason. *)
let gated_admit t sh k now =
  match Hashtbl.find_opt sh.sessions k with
  | Some s -> Ok s
  | None ->
      if t.load = Brownout then Error Ingress.Shed
      else if
        not
          (Police.allow sh.admit_police
             ~key:(Demux.hash ~peer:k.peer ~peer_port:k.peer_port ~stream:0)
             ~now)
      then Error Ingress.Policed_new
      else Ok (admit t sh k now)

let handle_fragment t sh now ~src ~src_port body =
  match Framing.parse_fragment_res body with
  | Error _ -> Some Ingress.Frag_header
  | Ok frag -> (
      let k = { peer = src; peer_port = src_port; stream = frag.Framing.stream } in
      match gated_admit t sh k now with
      | Error reason -> Some reason
      | Ok s ->
          s.last_rx <- now;
          if settled s frag.Framing.index then begin
            Obs.Counter.incr sh.ctr.c_dups;
            None
          end
          else if frag.Framing.index >= s.frontier + t.config.max_ahead_window
          then
            (* Beyond the admission window: a forged index would otherwise
               grow the ahead table and stretch the repair scan without
               bound. Checked before [highest] moves, so a hostile index
               cannot poison the repair horizon either. *)
            Some Ingress.Window
          else begin
            if frag.Framing.index > s.highest then
              s.highest <- frag.Framing.index;
            if frag.Framing.nfrags = 1 then (
              (* The single-fragment fast path: the whole encoded ADU is
                 already in the staged datagram — decode the view, no
                 reassembler, no copy. *)
              match Adu.decode_view_res frag.Framing.chunk with
              | Error _ -> Some Ingress.Bad_adu
              | Ok adu -> deliver_adu t sh s adu)
            else begin
              let r =
                match s.reasm with
                | Some r -> r
                | None ->
                    let r =
                      Framing.reassembler ~pool:sh.reasm_pool
                        ~deliver:(fun adu ->
                          sh.pending_reason <- deliver_adu t sh s adu)
                        ()
                    in
                    s.reasm <- Some r;
                    r
              in
              (* [push] reports malformed outcomes through its stats; the
                 deltas attribute this datagram to exactly one reason. *)
              let st = Framing.stats r in
              let dups0 = st.Framing.duplicate_frags in
              let corrupt0 = st.Framing.corrupt_adus in
              let inconsistent0 = st.Framing.inconsistent_frags in
              sh.pending_reason <- None;
              Framing.push r frag;
              if st.Framing.corrupt_adus > corrupt0 then Some Ingress.Bad_adu
              else if st.Framing.inconsistent_frags > inconsistent0 then
                Some Ingress.Frag_header
              else begin
                if st.Framing.duplicate_frags > dups0 then
                  Obs.Counter.incr sh.ctr.c_dups;
                (* A completing push may have surfaced a delivery-time
                   drop (record auth): charge this datagram with it. *)
                sh.pending_reason
              end
            end
          end)

let handle_control t sh now ~src ~src_port body =
  if
    not
      (Police.allow sh.ctl_police
         ~key:(Demux.hash ~peer:src ~peer_port:src_port ~stream:0)
         ~now)
  then Some Ingress.Policed_ctl
  else
    match Ctl.parse body with
    | None -> Some Ingress.Ctl_malformed
    | Some (Ctl.Close { stream; total }) -> (
        match
          gated_admit t sh { peer = src; peer_port = src_port; stream } now
        with
        | Error reason -> Some reason
        | Ok s ->
            s.last_rx <- now;
            if s.total < 0 then s.total <- max total 0;
            (* A CLOSE landing after completion means our DONE was lost. *)
            if s.completed then send_done t sh s else maybe_complete t sh s;
            None)
    | Some (Ctl.Gone { stream; indices }) -> (
        match
          gated_admit t sh { peer = src; peer_port = src_port; stream } now
        with
        | Error reason -> Some reason
        | Ok s ->
            s.last_rx <- now;
            List.iter
              (fun i ->
                (* Same admission window as fragments: forged GONE indices
                   must not grow the ahead table or move [highest]. *)
                if
                  i >= 0
                  && i < s.frontier + t.config.max_ahead_window
                  && not (settled s i)
                then begin
                  Hashtbl.replace s.ahead i false;
                  s.s_gone <- s.s_gone + 1;
                  Obs.Counter.incr sh.ctr.c_gone;
                  if i > s.highest then s.highest <- i
                end)
              indices;
            advance s;
            maybe_complete t sh s;
            None)
    | Some (Ctl.Nack _) | Some (Ctl.Done _) -> None

let dispatch t sh now p =
  match Ctl.unseal t.config.integrity p.p_buf with
  | None -> Some Ingress.Bad_crc
  | Some body ->
      if Bytebuf.length body = 0 then Some Ingress.Runt
      else
        let b0 = Bytebuf.get_uint8 body 0 in
        if b0 = Framing.frag_magic then
          handle_fragment t sh now ~src:p.p_src ~src_port:p.p_src_port body
        else if b0 = Ctl.tag_fec then Some Ingress.Fec_unsupported
        else handle_control t sh now ~src:p.p_src ~src_port:p.p_src_port body

let process_pending t sh now p =
  Obs.Counter.incr sh.ctr.c_datagrams;
  match dispatch t sh now p with
  | None -> Obs.Counter.incr sh.ctr.c_accepted
  | Some reason -> count_drop sh reason
  | exception _ ->
      (* The last-resort guard the satellite audit demands: a dispatch
         bug costs one counted datagram, never the server. *)
      count_drop sh Ingress.Dispatch_error

let process_shard t sh =
  Mutex.lock sh.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sh.lock)
    (fun () ->
      let now = Rt.Sched.now t.sched in
      while not (Queue.is_empty sh.inbox) do
        let p = Queue.pop sh.inbox in
        process_pending t sh now p;
        Pool.release sh.rx_pool p.p_staging
      done)

(* ---- ingest (main thread: the bound handler or a test driver) ---- *)

let ingest t ~src ~src_port buf =
  let len = Bytebuf.length buf in
  (* Route first (runts land on shard 0) so that every arrival — and the
     accept or single drop reason it resolves to — is charged to exactly
     one shard: per-shard [arrivals = accepted + Σ drops] holds by
     construction. *)
  let sh =
    match Demux.stream_of_datagram buf with
    | None -> t.shards.(0)
    | Some stream ->
        t.shards.(Demux.shard_of ~shards:t.config.shards ~peer:src
                    ~peer_port:src_port ~stream)
  in
  Obs.Counter.incr sh.ctr.c_arrivals;
  let verdict =
    if t.config.ingress_validation then Ingress.validate t.limits buf
    else if len < 3 then Ingress.Reject Ingress.Runt
    else if len > t.config.rx_buf_size then Ingress.Reject Ingress.Oversize
    else Ingress.Accept 0
  in
  match verdict with
  | Ingress.Reject reason -> count_drop sh reason
  | Ingress.Accept _ -> (
      match Pool.try_acquire sh.rx_pool with
      | None ->
          (* The shard's staging budget is spent: admission control by
             backpressure, counted, never blocking the ingest thread. *)
          count_drop sh Ingress.Backpressure
      | Some staging ->
          Bytebuf.blit ~src:buf ~src_pos:0 ~dst:staging ~dst_pos:0 ~len;
          Mutex.lock sh.lock;
          Queue.add
            {
              p_src = src;
              p_src_port = src_port;
              p_buf = Bytebuf.take staging len;
              p_staging = staging;
            }
            sh.inbox;
          let depth = Queue.length sh.inbox in
          if depth > sh.inbox_peak then sh.inbox_peak <- depth;
          Mutex.unlock sh.lock)

(* ---- outbox drain (main thread only: substrates are not thread-safe) ---- *)

let drain_outboxes t =
  Array.iter
    (fun sh ->
      Mutex.lock sh.lock;
      while not (Queue.is_empty sh.outbox) do
        let m = Queue.pop sh.outbox in
        (match t.io with
        | Some io ->
            ignore
              (io.Dgram.send ~dst:m.o_dst ~dst_port:m.o_dst_port
                 ~src_port:t.config.port m.o_buf)
        | None -> ());
        if m.o_pooled then Pool.release sh.ctl_pool m.o_full
      done;
      Mutex.unlock sh.lock)
    t.shards

let pump t =
  let busy =
    Array.to_list t.shards
    |> List.filter (fun sh -> not (Queue.is_empty sh.inbox))
  in
  (match (busy, t.pool) with
  | [], _ -> ()
  | [ sh ], _ -> process_shard t sh
  | shs, Some pool when Par.Pool.size pool > 1 ->
      Par.Pool.run pool
        (Array.of_list (List.map (fun sh () -> process_shard t sh) shs))
  | shs, _ -> List.iter (fun sh -> process_shard t sh) shs);
  drain_outboxes t

(* ---- harvest: idle/lingering eviction + NACK repair ---- *)

let repair t sh s now =
  let bound = if s.total >= 0 then s.total else s.highest + 1 in
  (* Clamp to the admission window: [total] is an attacker-supplied u32,
     and an unclamped bound would turn the give-up loop below into a
     4-billion-iteration stall on one hostile CLOSE. *)
  let bound = min bound (s.frontier + t.config.max_ahead_window) in
  if s.frontier < bound then begin
    let holdoff =
      t.config.nack_holdoff *. float_of_int (1 lsl min s.nack_tries 6)
    in
    if now -. s.last_nack >= holdoff then
      if s.nack_tries >= t.config.nack_budget then begin
        (* Repair budget spent: declare the rest locally gone so the
           session can settle instead of hanging — the loss is reported
           in application terms, exactly like a sender GONE. *)
        for i = s.frontier to bound - 1 do
          if not (settled s i) then begin
            Hashtbl.replace s.ahead i false;
            s.s_gone <- s.s_gone + 1;
            Obs.Counter.incr sh.ctr.c_gone_local
          end
        done;
        advance s;
        maybe_complete t sh s
      end
      else begin
        (* Fit the NACK in one pooled control buffer: 13-byte body header,
           4 bytes per index, 4-byte trailer. *)
        let cap = min 256 ((t.config.rx_buf_size - 17) / 4) in
        let missing = ref [] and n = ref 0 in
        let i = ref (bound - 1) in
        while !i >= s.frontier && !n < cap do
          if not (settled s !i) then begin
            missing := !i :: !missing;
            incr n
          end;
          decr i
        done;
        if !missing <> [] then begin
          queue_ctl t sh ~dst:s.key.peer ~dst_port:s.key.peer_port (fun buf ->
              Ctl.write_nack buf ~stream:s.key.stream ~have_below:s.frontier
                !missing);
          Obs.Counter.incr sh.ctr.c_nacks;
          s.nack_tries <- s.nack_tries + 1;
          s.last_nack <- now
        end
      end
  end

(* Shedding tightens the timers (completed sessions go immediately,
   idle ones in half the time); brownout halves them again and — via
   {!gated_admit} — refuses new admissions entirely. Completed-first
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
      Hashtbl.iter
        (fun _ s ->
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
  if config.max_ahead_window < 1 then
    invalid_arg "Server.create: max_ahead_window";
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
      limits;
      on_adu;
      on_view;
      stage2_prog = Option.map Wire.Schema.prog_of_xdr config.stage2_schema;
      on_complete;
      load = Normal;
      load_pending = Normal;
      load_streak = 0;
      harvest_timer = None;
      stopped = false;
    }
  in
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

let shard_sessions t sid = Hashtbl.length t.shards.(sid).sessions

let live_sessions t =
  Array.fold_left (fun acc sh -> acc + Hashtbl.length sh.sessions) 0 t.shards

let peak_sessions t =
  Array.fold_left (fun acc sh -> acc + sh.peak_sessions) 0 t.shards

let pool_allocated t =
  Array.fold_left
    (fun acc sh ->
      acc
      + (Pool.stats sh.rx_pool).Pool.allocated
      + (Pool.stats sh.ctl_pool).Pool.allocated
      + (Pool.stats sh.reasm_pool).Pool.allocated)
    0 t.shards

let data_pool_allocated t =
  Array.fold_left
    (fun acc sh ->
      acc
      + (Pool.stats sh.rx_pool).Pool.allocated
      + (Pool.stats sh.reasm_pool).Pool.allocated)
    0 t.shards

let pool_outstanding t =
  Array.fold_left
    (fun acc sh ->
      acc
      + (Pool.stats sh.rx_pool).Pool.outstanding
      + (Pool.stats sh.ctl_pool).Pool.outstanding
      + (Pool.stats sh.reasm_pool).Pool.outstanding)
    0 t.shards

let shard_of_key t ~peer ~peer_port ~stream =
  Demux.shard_of ~shards:t.config.shards ~peer ~peer_port ~stream

let locate t ~peer ~peer_port ~stream =
  let k = { peer; peer_port; stream } in
  let found = ref None in
  Array.iter
    (fun sh ->
      if !found = None && Hashtbl.mem sh.sessions k then found := Some sh.sid)
    t.shards;
  !found

type session_view = {
  v_frontier : int;
  v_total : int;
  v_delivered : int;
  v_gone : int;
  v_completed : bool;
  v_ahead_load : int;
}

let session_view t ~peer ~peer_port ~stream =
  let k = { peer; peer_port; stream } in
  let sid = shard_of_key t ~peer ~peer_port ~stream in
  match Hashtbl.find_opt t.shards.(sid).sessions k with
  | None -> None
  | Some s ->
      Some
        {
          v_frontier = s.frontier;
          v_total = s.total;
          v_delivered = s.s_delivered;
          v_gone = s.s_gone;
          v_completed = s.completed;
          v_ahead_load = Hashtbl.length s.ahead;
        }

let max_ahead_load t =
  Array.fold_left
    (fun acc sh ->
      Hashtbl.fold
        (fun _ s m -> max m (Hashtbl.length s.ahead))
        sh.sessions acc)
    0 t.shards
