(* The serve workloads: [Alf_serve.Server] (8 shards, no worker domains)
   fed by an in-process [Alf_serve.Loadgen] over real loopback UDP
   ([Rt.Udp_link]), in a closed loop of 1024-datagram windows.

   The run is a sequence of epochs. Each epoch is one fresh Loadgen of
   [sessions] sessions on one source port, driven until every session is
   DONE: [Loadgen.step ~budget:1024], drain the sockets with zero-wait
   polls, [Server.pump], drain again. When the generator has nothing to
   send (repairs pending), the loop calls [Server.harvest], lets the
   loop block for at most 1 ms, and re-CLOSEs unfinished sessions every
   20 ms of stall. Throughput and latency are taken per epoch and the
   run reports their medians. *)

open Bufkit
open Alf_core
open Common
module Sv = Alf_serve.Server
module Lg = Alf_serve.Loadgen
module L = Ledger

type spec = {
  payload : int;
  adus : int;  (** Per session. *)
  sessions : int;  (** Per epoch, all on one source port. *)
  secure : bool;
  loss : float;  (** Client-side send loss. *)
}

let serve_64b =
  { payload = 64; adus = 4; sessions = 2048; secure = false; loss = 0.0 }

let serve_1k =
  { payload = 1024; adus = 8; sessions = 512; secure = true; loss = 0.01 }

let window = 1024
let shards = 8
let bufs_per_shard = 1024

(* A port's sessions linger in the server after DONE ([done_linger],
   0.5 s) and its admission buckets refill at 200 sessions/s per shard;
   a source port is reused only after this many seconds, so an epoch
   never meets the previous one's sessions. *)
let port_cooldown = 3.0

(* An epoch that has not finished after this long is a failure. *)
let epoch_timeout = 30.0
let server_port = Sv.default_config.Sv.port

(* What the client's send and the server's delivery hook record for the
   current epoch: one slot per (session, index), allocated at set-up. *)
type tally = {
  first_tx : int array;  (** Monotonic ns of the first transmission. *)
  got : Bytes.t;
  lat : int array;  (** Delivery latencies in ns, [n_lat] of them. *)
  mutable n_lat : int;
  mutable port : int;  (** The current epoch's source port. *)
  mutable bad : int;  (** Wrong bytes, or delivered twice. *)
  mutable stale : int;  (** Delivered for another port. *)
}

(* Loadgen's payloads are a pure function of session and index. *)
let payload_byte k index j = ((k * 131) + (index * 31) + (j * 7) + 5) land 0xff

(* The first transmission of each data fragment: the frame header puts
   the stream id at byte 1 and the ADU index at bytes 3–6. *)
let stamp spec t buf =
  if Bytebuf.length buf > 7 && Bytebuf.get_uint8 buf 0 = Framing.frag_magic
  then begin
    let stream = (Bytebuf.get_uint8 buf 1 lsl 8) lor Bytebuf.get_uint8 buf 2 in
    let index =
      (Bytebuf.get_uint8 buf 3 lsl 24)
      lor (Bytebuf.get_uint8 buf 4 lsl 16)
      lor (Bytebuf.get_uint8 buf 5 lsl 8)
      lor Bytebuf.get_uint8 buf 6
    in
    let k = stream - 1 in
    if k >= 0 && k < spec.sessions && index < spec.adus then begin
      let slot = (k * spec.adus) + index in
      if t.first_tx.(slot) = 0 then t.first_tx.(slot) <- L.now_ns ()
    end
  end

let on_adu spec t (key : Sv.key) (adu : Adu.t) =
  L.enter L.app_deliver;
  let k = key.Sv.stream - 1 and index = adu.Adu.name.Adu.index in
  if
    key.Sv.peer_port <> t.port || k < 0 || k >= spec.sessions || index < 0
    || index >= spec.adus
  then t.stale <- t.stale + 1
  else begin
    let slot = (k * spec.adus) + index in
    let p = adu.Adu.payload in
    let ok = ref (Bytebuf.length p = spec.payload) in
    if !ok then begin
      let b, base, _ = Bytebuf.backing p in
      let want = ref (payload_byte k index 0) in
      for j = 0 to spec.payload - 1 do
        if Char.code (Bytes.get b (base + j)) <> !want land 0xff then ok := false;
        want := !want + 7
      done
    end;
    if (not !ok) || Bytes.get t.got slot <> '\000' || t.first_tx.(slot) = 0
    then t.bad <- t.bad + 1
    else begin
      Bytes.set t.got slot '\001';
      t.lat.(t.n_lat) <- L.now_ns () - t.first_tx.(slot);
      t.n_lat <- t.n_lat + 1
    end
  end;
  L.leave ()

type world = {
  loop : Rt.Loop.t;
  link : Rt.Udp_link.t;
  server : Sv.t;
  server_addr : int;
  client_io : Dgram.t;
  record : Secure.Record.t option;
  t : tally;
  mutable polls : int;  (** Zero-wait loop wakeups. *)
  mutable drain_first : bool;
  mutable drain_last : int;
  mutable wait_start : int;
}

let create_world ~spec ~seed ~instrument =
  let loop = Rt.Loop.create () in
  let sched = Rt.Loop.sched loop in
  let rx_buf_size =
    max 192 (Framing.fragment_header_size + Adu.header_size + spec.payload + 32)
  in
  let link_pool = Pool.create ~capacity:128 ~buf_size:rx_buf_size () in
  let link = Rt.Udp_link.create ~loop ~pool:link_pool ~buf_size:rx_buf_size () in
  let base = Dgram.of_rt link in
  let record =
    if spec.secure then
      Some (Secure.Record.of_int64 (Int64.add 0x5EC0DEA15EC0DEL (Int64.of_int seed)))
    else None
  in
  let n = spec.sessions * spec.adus in
  let t =
    {
      first_tx = Array.make n 0;
      got = Bytes.make n '\000';
      lat = Array.make n 0;
      n_lat = 0;
      port = -1;
      bad = 0;
      stale = 0;
    }
  in
  let server_io =
    if instrument then
      L.wrap_io ~rx_layer:L.serve_ingest ~send:(L.wrap_send L.serve_send base) base
    else base
  in
  let config =
    {
      Sv.default_config with
      Sv.shards;
      secure = record;
      rx_buf_size;
      rx_bufs_per_shard = bufs_per_shard;
      ctl_bufs_per_shard = bufs_per_shard;
      harvest_interval = 0.02;
      nack_holdoff = 0.02;
    }
  in
  let server =
    Sv.create
      ~sched:(if instrument then L.wrap_sched L.serve_harvest sched else sched)
      ~io:server_io ~registry:(Obs.Registry.create ()) ~on_adu:(on_adu spec t)
      ~config ()
  in
  let lossy =
    Alf_chaos.Chaos.lossy_dgram
      ~rng:(Netsim.Rng.create ~seed:(Int64.of_int seed))
      ~rate:spec.loss base
  in
  let send =
    if instrument then L.wrap_send L.loadgen_send lossy else lossy.Dgram.send
  in
  let stamped ~dst ~dst_port ~src_port buf =
    if src_port = t.port then begin
      L.enter L.bench;
      stamp spec t buf;
      L.leave ()
    end;
    send ~dst ~dst_port ~src_port buf
  in
  let client_io =
    if instrument then L.wrap_io ~rx_layer:L.loadgen_rx ~send:stamped lossy
    else { lossy with Dgram.send = stamped }
  in
  {
    loop;
    link;
    server;
    server_addr = Rt.Udp_link.local_addr link ~port:server_port;
    client_io;
    record;
    t;
    polls = 0;
    drain_first = true;
    drain_last = 0;
    wait_start = 0;
  }

let close_world w =
  Sv.stop w.server;
  Rt.Udp_link.close w.link

let received w = (Rt.Udp_link.stats w.link).Rt.Udp_link.datagrams_received

type runner = { w : world; drain : unit -> unit; wait : unit -> unit }

(* The loop closures are built once per world: [drain] polls with zero
   wait until one poll brings nothing new; [wait] blocks at most 1 ms
   for the first arrival or due timer. *)
let runner_of w =
  let drain_pred () =
    let r = received w in
    if w.drain_first then begin
      w.drain_first <- false;
      w.drain_last <- r;
      false
    end
    else begin
      w.polls <- w.polls + 1;
      let idle = r = w.drain_last in
      w.drain_last <- r;
      idle
    end
  and wait_pred () = received w <> w.wait_start in
  let drain () =
    L.enter L.rt_loop;
    w.drain_first <- true;
    ignore (Rt.Loop.run_until ~max_select:0.0 w.loop ~timeout:1.0 drain_pred);
    L.leave ()
  and wait () =
    L.enter L.rt_wait;
    w.wait_start <- received w;
    ignore (Rt.Loop.run_until ~max_select:0.001 w.loop ~timeout:0.001 wait_pred);
    L.leave ()
  in
  { w; drain; wait }

let pump w =
  L.enter L.serve_pump;
  Sv.pump w.server;
  L.leave ()

type epoch = {
  e_wall : float;
  e_offered : int;
  e_delivered : int;  (** The server's count. *)
  e_gone : int;
  e_hooked : int;  (** Deliveries the hook accepted. *)
  e_mean_us : float;
  e_p50_us : float;
  e_p99_us : float;
  e_finished : bool;
  e_gen : Lg.stats;
  e_gc : gc;
  e_alloc : float;  (** Heap words allocated in the epoch. *)
  e_speed : float;  (** {!Calib.factor} taken right after the epoch. *)
}

let delivered_gone server =
  let t = Sv.totals server in
  (t.Sv.delivered, t.Sv.gone + t.Sv.gone_local)

let run_epoch spec d ~port =
  let w = d.w and t = d.w.t in
  let n = spec.sessions * spec.adus in
  t.port <- port;
  t.n_lat <- 0;
  Array.fill t.first_tx 0 n 0;
  Bytes.fill t.got 0 n '\000';
  let gen =
    Lg.create ~io:w.client_io
      {
        Lg.default_config with
        Lg.sessions = spec.sessions;
        adus_per_session = spec.adus;
        payload_len = spec.payload;
        base_port = port;
        streams_per_port = spec.sessions;
        server = w.server_addr;
        server_port;
        secure = w.record;
      }
  in
  let del0, gone0 = delivered_gone w.server in
  let g0 = gc_now () and a0 = alloc_words () in
  let t0 = now_s () in
  L.enter L.bench;
  let last_nudge = ref t0 in
  while (not (Lg.finished gen)) && now_s () -. t0 < epoch_timeout do
    L.enter L.loadgen_step;
    let sent = Lg.step gen ~budget:window in
    L.leave ();
    d.drain ();
    pump w;
    d.drain ();
    if sent = 0 && not (Lg.finished gen) then begin
      L.enter L.serve_harvest;
      Sv.harvest w.server;
      L.leave ();
      d.drain ();
      pump w;
      d.wait ();
      let now = now_s () in
      if now -. !last_nudge > 0.02 then begin
        L.enter L.loadgen_step;
        Lg.nudge gen;
        L.leave ();
        last_nudge := now
      end
    end
  done;
  L.leave ();
  let wall = now_s () -. t0 in
  let alloc = alloc_words () -. a0 in
  let g = gc_diff g0 (gc_now ()) in
  let speed = Calib.factor () in
  let del1, gone1 = delivered_gone w.server in
  let mean_us = mean t.lat t.n_lat /. 1e3 in
  let p50, p99 =
    match percentiles t.lat t.n_lat [ 0.5; 0.99 ] with
    | [ a; b ] -> (a /. 1e3, b /. 1e3)
    | _ -> assert false
  in
  {
    e_wall = wall;
    e_offered = n;
    e_delivered = del1 - del0;
    e_gone = gone1 - gone0;
    e_hooked = t.n_lat;
    e_mean_us = mean_us;
    e_p50_us = p50;
    e_p99_us = p99;
    e_finished = Lg.finished gen;
    e_gen = Lg.stats gen;
    e_gc = g;
    e_alloc = alloc;
    e_speed = speed;
  }

(* Source ports, each reused only after [port_cooldown]. *)
type ports = { free : (int * float) Queue.t; mutable next : int }

let take_port ps =
  match Queue.peek_opt ps.free with
  | Some (p, at) when at <= now_s () ->
      ignore (Queue.pop ps.free);
      p
  | _ ->
      let p = ps.next in
      ps.next <- p + 1;
      p

let release_port ps p = Queue.push (p, now_s () +. port_cooldown) ps.free

(* Set-up is timed this many times, each on a settled heap, and
   reported as the median. *)
let setups = 15

let run ~name ~spec ~seed ~seconds ~trace =
  let problems = ref [] and report = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let line fmt = Printf.ksprintf (fun s -> report := s :: !report) fmt in
  (* Set-up, repeated: the engine with its pools, the sockets and the
     key, up to the first send. The last world built serves the run. *)
  let setup_times = ref [] and last = ref None in
  for _ = 1 to setups do
    Option.iter close_world !last;
    Gc.full_major ();
    let t0 = now_s () in
    let w = create_world ~spec ~seed ~instrument:trace in
    let t = now_s () -. t0 in
    setup_times := (t, Calib.factor ()) :: !setup_times;
    last := Some w
  done;
  let main = runner_of (Option.get !last) in
  (* A traced run interleaves epochs on an uninstrumented twin: their
     ADU/s ratio is the tracing overhead. *)
  let twin =
    if trace then Some (runner_of (create_world ~spec ~seed ~instrument:false))
    else None
  in
  let runners = main :: Option.to_list twin in
  let ps = { free = Queue.create (); next = 20_000 + (100 * (seed mod 50)) } in
  let epoch d =
    let p = take_port ps in
    let e = run_epoch spec d ~port:p in
    release_port ps p;
    e
  in
  (* Warm-up: pools, sockets and caches filled, not measured. *)
  let warm = List.map epoch runners in
  L.reset ();
  let tot0 = Sv.totals main.w.server and polls0 = main.w.polls in
  let main_es = ref [] and twin_es = ref [] in
  let t_start = now_s () in
  while
    now_s () -. t_start < seconds
    || List.length !main_es < 3
    || (trace && List.length !twin_es < 2)
  do
    L.on := trace;
    main_es := epoch main :: !main_es;
    L.on := false;
    Option.iter (fun d -> twin_es := epoch d :: !twin_es) twin
  done;
  (* Settle: carry and process anything still in flight, so the
     per-shard drop law sees empty queues. *)
  List.iter
    (fun d ->
      d.drain ();
      pump d.w;
      d.drain ())
    runners;
  let all = warm @ !main_es @ !twin_es in
  List.iteri
    (fun i e ->
      if not e.e_finished then fail "epoch %d: not every session DONE" i;
      if e.e_delivered + e.e_gone <> e.e_offered then
        fail "epoch %d: delivered %d + gone %d <> offered %d" i e.e_delivered
          e.e_gone e.e_offered;
      if e.e_hooked <> e.e_delivered then
        fail "epoch %d: the hook accepted %d deliveries, the server counted %d"
          i e.e_hooked e.e_delivered)
    all;
  List.iter
    (fun d ->
      let w = d.w in
      if w.t.bad > 0 then fail "%d deliveries with wrong bytes or repeated" w.t.bad;
      if w.t.stale > 0 then fail "%d deliveries for a finished epoch" w.t.stale;
      for sid = 0 to Sv.shard_count w.server - 1 do
        let s = Sv.shard_snapshot w.server sid in
        if s.Sv.arrivals <> s.Sv.accepted + s.Sv.dropped then
          fail "shard %d: arrivals %d <> accepted %d + dropped %d" sid
            s.Sv.arrivals s.Sv.accepted s.Sv.dropped
      done;
      let f = (Sv.totals w.server).Sv.fallback_allocs in
      if f <> 0 then fail "fallback_allocs = %d" f)
    runners;
  let offered = List.fold_left (fun a e -> a + e.e_offered) 0 all in
  let delivered = List.fold_left (fun a e -> a + e.e_delivered) 0 all in
  let es = !main_es in
  let n_adus = float_of_int (List.fold_left (fun a e -> a + e.e_delivered) 0 es) in
  let med f es = median (List.map f es) in
  (* Wall-clock figures at the reference machine speed ({!Calib}). *)
  let raw_rate e = float_of_int e.e_delivered /. e.e_wall in
  let rate e = raw_rate e *. e.e_speed in
  line "%s: %d timed epochs of %d sessions x %d ADUs x %d B, loopback UDP%s%s"
    name (List.length es) spec.sessions spec.adus spec.payload
    (if spec.secure then ", ChaCha20/Poly1305" else "")
    (if spec.loss > 0.0 then
       Printf.sprintf ", %g%% client-side loss" (spec.loss *. 100.0)
     else "");
  line "adus_failed_frac %.6f (%d of %d ADUs offered not delivered)"
    (float_of_int (offered - delivered) /. float_of_int offered)
    (offered - delivered) offered;
  line "unscaled: median epoch %.0f ADU/s; machine speed factor min %.3f median %.3f max %.3f"
    (med raw_rate es)
    (List.fold_left (fun a e -> Float.min a e.e_speed) infinity es)
    (med (fun e -> e.e_speed) es)
    (List.fold_left (fun a e -> Float.max a e.e_speed) 0.0 es);
  let end_to_end =
    if trace then []
    else begin
      line "latency: %d samples; per epoch, median over epochs, unscaled: mean %.1f us, p50 %.1f us, p99 %.1f us"
        (List.fold_left (fun a e -> a + e.e_hooked) 0 es)
        (med (fun e -> e.e_mean_us) es) (med (fun e -> e.e_p50_us) es)
        (med (fun e -> e.e_p99_us) es);
      [
        m "adus_per_s" (med rate es) "ADU/s";
        m "latency_mean_us" (med (fun e -> e.e_mean_us /. e.e_speed) es) "us";
        m "latency_p99_us" (med (fun e -> e.e_p99_us /. e.e_speed) es) "us";
        m "goodput_mbps"
          (med (fun e -> rate e *. float_of_int (spec.payload * 8) /. 1e6) es)
          "Mb/s";
        m "alloc_words_per_adu"
          (List.fold_left (fun a e -> a +. e.e_alloc) 0.0 es /. n_adus)
          "words";
        m "heap_top_mb" (heap_top_mb ()) "MB";
        m "setup_s" (median (List.map (fun (t, f) -> t /. f) !setup_times)) "s";
        m "adus_delivered_frac"
          (float_of_int delivered /. float_of_int offered)
          "ratio";
      ]
    end
  in
  let per_layer =
    if not trace then []
    else begin
      let w = main.w in
      let ls = Rt.Udp_link.stats w.link and tot = Sv.totals w.server in
      let d f = f tot - f tot0 in
      let gsum f = List.fold_left (fun a e -> a + f e.e_gen) 0 es in
      (* Layer times at the reference machine speed, like the
         end-to-end figures; shares and ratios are unaffected. *)
      let speed = med (fun e -> e.e_speed) es in
      let ns l = float_of_int L.self_ns.(l) /. speed in
      let per_adu x = x /. n_adus in
      let per_call l = ns l /. Float.max 1.0 (float_of_int L.calls.(l)) in
      let traced_rate = med rate es and plain_rate = med rate !twin_es in
      let sum_self = float_of_int (L.total_self_ns ()) /. speed in
      let wall_ns = 1e9 *. List.fold_left (fun a e -> a +. e.e_wall) 0.0 es /. speed in
      let client = ns L.loadgen_step +. ns L.loadgen_send +. ns L.loadgen_rx in
      let receiver = ns L.serve_ingest +. ns L.serve_pump +. ns L.serve_send in
      let wakeups = w.polls - polls0 in
      let regens = gsum (fun g -> g.Lg.regens) in
      L.report ~n_adus ~speed (fun s -> report := s :: !report);
      line "rt.loop: %d wakeups, %.2f datagrams/wakeup, send_dropped %d, recv_pool_misses %d"
        wakeups
        (float_of_int (d (fun t -> t.Sv.arrivals) + gsum (fun g -> g.Lg.dones_rx + g.Lg.nacks_rx))
        /. float_of_int (max 1 wakeups))
        ls.Rt.Udp_link.send_dropped ls.Rt.Udp_link.recv_pool_misses;
      line "serve: datagrams %d delivered %d dups %d ctl_sent %d nacks %d gone_local %d harvested %d fallback_allocs %d"
        (d (fun t -> t.Sv.datagrams)) (d (fun t -> t.Sv.delivered))
        (d (fun t -> t.Sv.dups)) (d (fun t -> t.Sv.ctl_sent))
        (d (fun t -> t.Sv.nacks)) (d (fun t -> t.Sv.gone_local))
        (d (fun t -> t.Sv.harvested)) tot.Sv.fallback_allocs;
      line "serve drops: %s"
        (String.concat " "
           (Array.to_list
              (Array.mapi
                 (fun i r ->
                   Printf.sprintf "%s=%d" (Alf_serve.Ingress.reason_name r)
                     (tot.Sv.drops.(i) - tot0.Sv.drops.(i)))
                 Alf_serve.Ingress.all_reasons)));
      line "loadgen: sent %d regens %d recloses %d nacks_rx %d"
        (gsum (fun g -> g.Lg.sent_datagrams)) regens
        (gsum (fun g -> g.Lg.recloses)) (gsum (fun g -> g.Lg.nacks_rx));
      line "client (loadgen.*) share of ledger time %.3f; tracing: untraced %.0f vs traced %.0f ADU/s"
        (client /. sum_self) plain_rate traced_rate;
      [
        m "substrate.self_ns_per_adu" (per_adu (ns L.rt_loop)) "ns";
        m "substrate.wakeups_per_adu" (per_adu (float_of_int wakeups)) "count";
        m "substrate.wait_share" (ns L.rt_wait /. sum_self) "ratio";
        m "receiver.self_ns_per_adu" (per_adu receiver) "ns";
        m "receiver.ingest_ns_per_dgram" (per_call L.serve_ingest) "ns";
        m "receiver.words_per_adu"
          (per_adu
             (L.words.(L.serve_ingest) +. L.words.(L.serve_pump)
             +. L.words.(L.serve_send)))
          "words";
        m "receiver.dgrams_per_adu"
          (per_adu (float_of_int (d (fun t -> t.Sv.arrivals))))
          "count";
        m "sender.self_ns_per_adu" (per_adu (ns L.loadgen_step)) "ns";
        m "sender.words_per_adu" (per_adu L.words.(L.loadgen_step)) "words";
        m "sender.send_ns_per_dgram" (per_call L.loadgen_send) "ns";
        m "sender.rx_ns_per_adu" (per_adu (ns L.loadgen_rx)) "ns";
        m "timers.self_ns_per_adu" (per_adu (ns L.serve_harvest)) "ns";
        m "app.self_ns_per_adu" (per_adu (ns L.app_deliver)) "ns";
        m "bench.self_ns_per_adu" (per_adu (ns L.bench)) "ns";
        m "retx_per_kadu" (1e3 *. per_adu (float_of_int regens)) "count";
        m "nacks_per_kadu"
          (1e3 *. per_adu (float_of_int (d (fun t -> t.Sv.nacks))))
          "count";
        m "gone_local" (float_of_int (d (fun t -> t.Sv.gone_local))) "count";
      ]
      @ gc_metrics (List.fold_left (fun a e -> gc_add a e.e_gc) gc_zero es) n_adus
      @ [
        m "sender_share" (client /. sum_self) "ratio";
        m "unattributed_share" ((wall_ns -. sum_self) /. wall_ns) "ratio";
        m "trace_overhead" (plain_rate /. traced_rate) "ratio";
      ]
    end
  in
  List.iter (fun d -> close_world d.w) runners;
  {
    correct = !problems = [];
    problems = List.rev !problems;
    attempted = offered;
    failed = offered - delivered;
    end_to_end;
    per_layer;
    report = List.rev !report;
    determinism = Printf.sprintf "offered=%d" offered;
  }
