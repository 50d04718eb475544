(* The transfer workload: one [Alf_transport] sender/receiver pair over
   the simulator — 10 Mb/s, 5 ms, 2% loss, 1% reorder — moving a bulk
   file of 8196-byte XDR int-array ADUs, all queued at virtual t=0 as
   [alfnet transfer] does. The sender runs [send_value] under the
   [Transport_buffer] policy with the ChaCha20/Poly1305 record layer;
   the receiver is [receiver_views] with a pooled reassembler.

   A run repeats whole transfers. Transfer [i] seeds the simulator with
   [seed + 1000 * (i mod sim_transfers)], so the first [sim_transfers]
   are a fixed, seed-determined set: the simulated-clock metrics, the
   allocation count and the attempted/failed ADU counts come from
   exactly those, while wall-clock ADU/s is the median over every
   transfer the run makes. A later transfer repeats an earlier one's
   simulator seed and must reproduce its outcome. *)

open Bufkit
open Alf_core
open Netsim
open Common
module L = Ledger
module T = Alf_transport
module V = Wire.View

let ints = 2048 (* XDR: 4-byte count + 2048 x 4 bytes = 8196 bytes *)
let adu_bytes = 4 + (4 * ints)
let schema = Wire.Xdr.S_array Wire.Xdr.S_int
let bandwidth = 10e6
let delay = 0.005
let loss = 0.02
let reorder = 0.01
let sim_transfers = 10
let horizon = 3600.0
let slice = 0.5

type spec = { adus : int }

(* 2500 ADUs = 20.5 MB: ~17 s of link time, longer than the receiver's
   10 s [adu_deadline]. *)
let transfer_8k = { adus = 2500 }

(* Element 0 of ADU [i] is [i]; the rest is one seed-derived template
   shared by every ADU, so building a value costs one list cell. *)
let template seed =
  Array.init ints (fun j ->
      ((seed * 0x9E3779B1) + (j * 0x85EBCA6B) + (j * j * 31)) land 0x3FFF_FFFF)

type outcome = {
  o_wall : float;
  o_scaled : float;  (** [o_wall] at the reference machine speed. *)
  o_alloc : float;
  o_delivered : int;
  o_gone_local : int;
  o_lost : int;
  o_done_at : float;  (** Virtual completion time. *)
  o_problems : string list;
  o_rstats : T.receiver_stats;
  o_sstats : T.sender_stats;
  o_events : int;
  o_gc : gc;
}

(* Per-run latency pool: virtual ns from first fragment on the wire to
   delivery, for the seed-determined transfers. *)
type pool = { lat : int array; mutable n : int }

(* The input: the template and the shared list tail of every value. *)
let input seed =
  let tpl = template seed in
  (tpl, List.init (ints - 1) (fun j -> Wire.Value.Int tpl.(j + 1)))

(* Build one world (the timed set-up) and return the transfer itself. *)
let transfer ~spec ~seed ~sub ~instrument ~input:(tpl, tail) ~(pool : pool option)
    =
  let n = spec.adus in
  let first_tx = Array.make n nan and got = Bytes.make n '\000' in
  let delivered = ref 0 and bad = ref 0 and done_at = ref nan in
  (* Set-up: engine, topology, endpoints, key and schema compile, up to
     the first send. *)
  let engine = Engine.create () in
  let rng = Rng.create ~seed:(Int64.of_int sub) in
  let impair = Impair.make ~loss ~reorder () in
  let net =
    Topology.point_to_point ~engine ~rng ~impair ~queue_limit:1024
      ~bandwidth_bps:bandwidth ~delay ~a:1 ~b:2 ()
  in
  let ua = Transport.Udp.create ~engine ~node:net.Topology.a () in
  let ub = Transport.Udp.create ~engine ~node:net.Topology.b () in
  let sched = Engine.sched engine in
  let timers = if instrument then L.wrap_sched L.tr_timers sched else sched in
  let prog = Wire.Schema.prog_of_xdr schema in
  let key = Int64.add 0xC1B3EL (Int64.of_int seed) in
  let deliver (name : Adu.name) view =
    L.enter L.app_deliver;
    let i = name.Adu.index in
    if i < 0 || i >= n || Bytes.get got i <> '\000' then incr bad
    else begin
      let buf = V.buffer view and off = V.offset view in
      let b, base, _ = Bytebuf.backing buf in
      let ok = ref (V.count view = ints && V.get_int (V.elem view 0) = i) in
      for j = 1 to ints - 1 do
        if Int32.to_int (Bytes.get_int32_be b (base + off + 4 + (4 * j))) <> tpl.(j)
        then ok := false
      done;
      if not !ok then incr bad
      else begin
        Bytes.set got i '\001';
        incr delivered;
        match pool with
        | Some p ->
            p.lat.(p.n) <- int_of_float (1e9 *. (Engine.now engine -. first_tx.(i)));
            p.n <- p.n + 1
        | None -> ()
      end
    end;
    L.leave ()
  in
  let receiver =
    T.receiver_views ~sched:timers ~udp:ub ~port:7 ~stream:1
      ~secure:(Secure.Record.of_int64 key)
      ~reasm_pool:
        (Pool.create
           ~buf_size:(Adu.header_size + adu_bytes + Secure.Record.overhead)
           ())
      ~prog ~deliver ()
  in
  T.on_complete receiver (fun () -> done_at := Engine.now engine);
  let base = Dgram.of_udp ua in
  let send = if instrument then L.wrap_send L.tr_tx base else base.Dgram.send in
  (* First fragment of each ADU on the wire: the frame header puts the
     ADU index at bytes 3–6. *)
  let stamped ~dst ~dst_port ~src_port buf =
    L.enter L.bench;
    if Bytebuf.length buf > 7 && Bytebuf.get_uint8 buf 0 = Framing.frag_magic
    then begin
      let i =
        (Bytebuf.get_uint8 buf 3 lsl 24)
        lor (Bytebuf.get_uint8 buf 4 lsl 16)
        lor (Bytebuf.get_uint8 buf 5 lsl 8)
        lor Bytebuf.get_uint8 buf 6
      in
      if i < n && Float.is_nan first_tx.(i) then first_tx.(i) <- Engine.now engine
    end;
    L.leave ();
    send ~dst ~dst_port ~src_port buf
  in
  let io =
    if instrument then L.wrap_io ~rx_layer:L.tr_sender_rx ~send:stamped base
    else { base with Dgram.send = stamped }
  in
  let sender =
    T.sender_io ~sched:timers ~io ~peer:2 ~peer_port:7 ~port:8 ~stream:1
      ~policy:Recovery.Transport_buffer ~secure:(Secure.Record.of_int64 key)
      ~config:
        { T.default_sender_config with T.pace_bps = Some (bandwidth *. 0.95) }
      ()
  in
  fun () ->
  (* The transfer is timed in pieces — the send loop, then the
     simulation in slices of [slice] virtual seconds — with a
     calibration after each piece, outside the timing, so the speed
     factor follows the machine through the transfer. *)
  let wall = ref 0.0 and scaled = ref 0.0 and alloc = ref 0.0 in
  let g = ref gc_zero and events = ref 0 in
  let timed f =
    let g0 = gc_now () and a0 = alloc_words () in
    L.enter L.bench;
    let t0 = now_s () in
    f ();
    let dt = now_s () -. t0 in
    L.leave ();
    alloc := !alloc +. (alloc_words () -. a0);
    g := gc_add !g (gc_diff g0 (gc_now ()));
    wall := !wall +. dt;
    scaled := !scaled +. (dt /. Calib.factor ())
  in
  timed (fun () ->
      for i = 0 to n - 1 do
        L.enter L.tr_send_value;
        T.send_value sender
          ~name:(Adu.name ~stream:1 ~index:i ())
          (Ilp.Marshal_prog (prog, Wire.Value.List (Wire.Value.Int i :: tail)));
        L.leave ()
      done;
      L.enter L.tr_send_value;
      T.close sender;
      L.leave ());
  let rx = Transport.Udp.stats ub in
  (* Traced: step by step, each event charged to the simulator unless
     it delivered a datagram to the receiver's port: then it is the
     receiver's handler (after the simulated UDP checksum). *)
  let step_until until =
    let continue = ref true in
    while !continue do
      L.enter L.netsim_engine;
      let before = rx.Transport.Udp.datagrams_received in
      let stepped = Engine.step engine in
      L.leave_as
        (if rx.Transport.Udp.datagrams_received <> before then L.tr_rx
         else L.netsim_engine);
      incr events;
      if (not stepped) || Engine.now engine >= until then continue := false
    done
  in
  while Engine.pending engine > 0 && Engine.now engine <= horizon do
    let until = Engine.now engine +. slice in
    timed (fun () ->
        if instrument then step_until until else Engine.run ~until engine)
  done;
  let rs = T.receiver_stats receiver and ss = T.sender_stats sender in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if !bad > 0 then fail "transfer %d: %d deliveries with wrong contents or repeated" sub !bad;
  if not (T.complete receiver) then fail "transfer %d: receiver not complete" sub;
  if rs.T.adus_delivered <> !delivered then
    fail "transfer %d: receiver counted %d deliveries, the application saw %d" sub
      rs.T.adus_delivered !delivered;
  if !delivered + rs.T.adus_gone_local + rs.T.adus_lost <> n then
    fail "transfer %d: delivered %d + gone_local %d + lost %d <> sent %d" sub
      !delivered rs.T.adus_gone_local rs.T.adus_lost n;
  {
    o_wall = !wall;
    o_scaled = !scaled;
    o_alloc = !alloc;
    o_delivered = !delivered;
    o_gone_local = rs.T.adus_gone_local;
    o_lost = rs.T.adus_lost;
    o_done_at = !done_at;
    o_problems = List.rev !problems;
    o_rstats = rs;
    o_sstats = ss;
    o_events = !events;
    o_gc = !g;
  }

(* Set-up takes microseconds: it is timed in batches of [setup_batch]
   worlds built and dropped, each batch on a settled heap, and reported as
   the median batch mean. *)
let setup_batches = 9
let setup_batch = 200

let sub_seed seed i = seed + (1000 * (i mod sim_transfers))

let run ~name ~spec ~seed ~seconds ~trace =
  let input = input seed in
  let setup_times =
    List.init setup_batches (fun b ->
        Gc.full_major ();
        let t0 = now_s () in
        for k = 1 to setup_batch do
          let (_ : unit -> outcome) =
            transfer ~spec ~seed ~sub:(sub_seed seed (b + k)) ~instrument:trace
              ~input ~pool:None
          in
          ()
        done;
        let t = (now_s () -. t0) /. float_of_int setup_batch in
        t /. Calib.factor ())
  in
  let pool = { lat = Array.make (sim_transfers * spec.adus) 0; n = 0 } in
  let sims = ref [] and traced = ref [] and plain = ref [] and starts = ref [] in
  let first_calls = ref [||] and heap_top = ref nan and repeat_problems = ref [] in
  let t_start = now_s () in
  let i = ref 0 in
  L.reset ();
  while
    !i < sim_transfers
    || now_s () -. t_start < seconds
    || (trace && (List.length !traced < 2 || List.length !plain < 2))
  do
    let sub = sub_seed seed !i in
    (* A traced run alternates instrumented and plain transfers: their
       ADU/s ratio is the tracing overhead. *)
    let instrument = trace && !i mod 2 = 0 in
    L.on := instrument;
    let drive =
      transfer ~spec ~seed ~sub ~instrument ~input
        ~pool:(if !i < sim_transfers then Some pool else None)
    in
    (* Each transfer starts on a settled heap: the previous one's 20 MB
       retransmission store is not collected on its time. *)
    Gc.full_major ();
    if !i < sim_transfers then starts := pool.n :: !starts;
    let o = drive () in
    L.on := false;
    (if !i >= sim_transfers then
       let first = List.nth !sims (sim_transfers - 1 - (!i mod sim_transfers)) in
       if
         (o.o_delivered, o.o_gone_local, o.o_lost)
         <> (first.o_delivered, first.o_gone_local, first.o_lost)
       then
         Printf.ksprintf
           (fun p -> repeat_problems := p :: !repeat_problems)
           "transfer %d: delivered %d gone_local %d lost %d, but its first run with simulator seed %d gave %d, %d, %d"
           !i o.o_delivered o.o_gone_local o.o_lost sub first.o_delivered
           first.o_gone_local first.o_lost);
    if !i = 0 then first_calls := Array.copy L.calls;
    if !i < sim_transfers then sims := o :: !sims;
    if !i = sim_transfers - 1 then heap_top := heap_top_mb ();
    if instrument then traced := o :: !traced else plain := o :: !plain;
    incr i
  done;
  let all = !traced @ !plain and sims = List.rev !sims in
  let sum f os = List.fold_left (fun a o -> a + f o) 0 os in
  let fsum f os = List.fold_left (fun a o -> a +. f o) 0.0 os in
  (* Wall-clock ADU/s at the reference machine speed ({!Calib}). *)
  let raw_rate o = float_of_int o.o_delivered /. o.o_wall in
  let rate o = float_of_int o.o_delivered /. o.o_scaled in
  let speed o = o.o_wall /. o.o_scaled in
  let sim_offered = spec.adus * sim_transfers in
  let sim_delivered = sum (fun o -> o.o_delivered) sims in
  let goodput =
    float_of_int (sim_delivered * adu_bytes * 8)
    /. fsum (fun o -> o.o_done_at) sims
    /. 1e6
  in
  let alloc_per_adu = fsum (fun o -> o.o_alloc) sims /. float_of_int sim_delivered in
  let report = ref [] in
  let line fmt = Printf.ksprintf (fun s -> report := s :: !report) fmt in
  line "%s: %d transfers of %d x %d B ADUs (%.1f MB) over netsim, %g Mb/s, %g ms, %g%% loss, %g%% reorder, ChaCha20/Poly1305"
    name (List.length all) spec.adus adu_bytes
    (float_of_int (spec.adus * adu_bytes) /. 1e6)
    (bandwidth /. 1e6) (delay *. 1e3) (loss *. 100.0) (reorder *. 100.0);
  List.iteri
    (fun k (o, start) ->
      let p50, p99 =
        match
          percentiles (Array.sub pool.lat start o.o_delivered) o.o_delivered
            [ 0.5; 0.99 ]
        with
        | [ a; b ] -> (a /. 1e6, b /. 1e9)
        | _ -> assert false
      in
      line "sim transfer %d (simulator seed %d): delivered %d, gone_local %d, lost %d, done at %.3f s, retransmitted %d ADUs, latency p50 %.1f ms p99 %.2f s (virtual)"
        k (sub_seed seed k) o.o_delivered o.o_gone_local o.o_lost o.o_done_at
        o.o_sstats.T.adus_retransmitted p50 p99)
    (List.combine sims (List.rev !starts));
  let mean_us = mean pool.lat pool.n /. 1e3 in
  let p50, p99 =
    match percentiles pool.lat pool.n [ 0.5; 0.99 ] with
    | [ a; b ] -> (a /. 1e3, b /. 1e3)
    | _ -> assert false
  in
  line "unscaled: median transfer %.0f ADU/s; machine speed factor min %.3f median %.3f max %.3f"
    (median (List.map raw_rate all))
    (List.fold_left (fun a o -> Float.min a (speed o)) infinity all)
    (median (List.map speed all))
    (List.fold_left (fun a o -> Float.max a (speed o)) 0.0 all);
  line "adus_failed_frac %.6f (%d of %d ADUs offered not delivered)"
    (1.0 -. (float_of_int sim_delivered /. float_of_int sim_offered))
    (sim_offered - sim_delivered) sim_offered;
  line "latency (virtual clock, first fragment on the wire to delivery): %d samples, mean %.1f us, p50 %.1f us, p99 %.1f us"
    pool.n mean_us p50 p99;
  let end_to_end =
    if trace then []
    else
      [
        m "adus_per_s" (median (List.map rate all)) "ADU/s";
        m "latency_mean_us" mean_us "us";
        m "latency_p99_us" p99 "us";
        m "goodput_mbps" goodput "Mb/s";
        m "alloc_words_per_adu" alloc_per_adu "words";
        m "heap_top_mb" !heap_top "MB";
        m "setup_s" (median setup_times) "s";
        m "adus_delivered_frac"
          (float_of_int sim_delivered /. float_of_int sim_offered)
          "ratio";
      ]
  in
  let per_layer =
    if not trace then []
    else begin
      let ts = !traced in
      let n_adus = float_of_int (sum (fun o -> o.o_delivered) ts) in
      (* Layer times at the reference machine speed, like the
         end-to-end figures; shares and ratios are unaffected. *)
      let speed = fsum (fun o -> o.o_wall) ts /. fsum (fun o -> o.o_scaled) ts in
      let ns l = float_of_int L.self_ns.(l) /. speed in
      let per_adu x = x /. n_adus in
      let per_call l = ns l /. Float.max 1.0 (float_of_int L.calls.(l)) in
      let rsum f = sum (fun o -> f o.o_rstats) ts
      and ssum f = sum (fun o -> f o.o_sstats) ts in
      let traced_rate = median (List.map rate ts)
      and plain_rate = median (List.map rate !plain) in
      let sum_self = float_of_int (L.total_self_ns ()) /. speed in
      let wall_ns = 1e9 *. fsum (fun o -> o.o_wall) ts /. speed in
      let sender = ns L.tr_send_value +. ns L.tr_tx +. ns L.tr_sender_rx in
      let events = sum (fun o -> o.o_events) ts in
      L.report ~n_adus ~speed (fun s -> report := s :: !report);
      line "netsim.engine: %d events, %.2f per ADU" events (per_adu (float_of_int events));
      line "alf_transport: retransmitted ADUs %d, bytes_retransmitted/bytes_sent %.4f, nacks %d, dups %d, out_of_order %d, gone_local %d, store_peak %d B"
        (ssum (fun s -> s.T.adus_retransmitted))
        (float_of_int (ssum (fun s -> s.T.bytes_retransmitted))
        /. float_of_int (ssum (fun s -> s.T.bytes_sent)))
        (rsum (fun r -> r.T.nacks_sent)) (rsum (fun r -> r.T.duplicates))
        (rsum (fun r -> r.T.out_of_order)) (rsum (fun r -> r.T.adus_gone_local))
        (List.fold_left (fun a o -> max a o.o_sstats.T.store_peak) 0 ts);
      line "sender (alf_transport send side) share of ledger time %.3f; tracing: untraced %.0f vs traced %.0f ADU/s"
        (sender /. sum_self) plain_rate traced_rate;
      [
        m "substrate.self_ns_per_adu" (per_adu (ns L.netsim_engine)) "ns";
        m "substrate.wakeups_per_adu" (per_adu (float_of_int events)) "count";
        m "substrate.wait_share" (ns L.rt_wait /. sum_self) "ratio";
        m "receiver.self_ns_per_adu" (per_adu (ns L.tr_rx)) "ns";
        m "receiver.ingest_ns_per_dgram" (per_call L.tr_rx) "ns";
        m "receiver.words_per_adu" (per_adu L.words.(L.tr_rx)) "words";
        m "receiver.dgrams_per_adu" (per_adu (float_of_int L.calls.(L.tr_rx))) "count";
        m "sender.self_ns_per_adu" (per_adu (ns L.tr_send_value)) "ns";
        m "sender.words_per_adu" (per_adu L.words.(L.tr_send_value)) "words";
        m "sender.send_ns_per_dgram" (per_call L.tr_tx) "ns";
        m "sender.rx_ns_per_adu" (per_adu (ns L.tr_sender_rx)) "ns";
        m "timers.self_ns_per_adu" (per_adu (ns L.tr_timers)) "ns";
        m "app.self_ns_per_adu" (per_adu (ns L.app_deliver)) "ns";
        m "bench.self_ns_per_adu" (per_adu (ns L.bench)) "ns";
        m "retx_per_kadu"
          (1e3 *. per_adu (float_of_int (ssum (fun s -> s.T.adus_retransmitted))))
          "count";
        m "nacks_per_kadu"
          (1e3 *. per_adu (float_of_int (rsum (fun r -> r.T.nacks_sent))))
          "count";
        m "gone_local" (float_of_int (rsum (fun r -> r.T.adus_gone_local))) "count";
      ]
      @ gc_metrics (List.fold_left (fun a o -> gc_add a o.o_gc) gc_zero ts) n_adus
      @ [
        m "sender_share" (sender /. sum_self) "ratio";
        m "unattributed_share" ((wall_ns -. sum_self) /. wall_ns) "ratio";
        m "trace_overhead" (plain_rate /. traced_rate) "ratio";
      ]
    end
  in
  let problems =
    List.concat_map (fun o -> o.o_problems) all @ List.rev !repeat_problems
  in
  (* Attempted and failed ADUs count the seed-determined transfers only:
     the repeats reproduce them (checked above), and how many repeats a
     run fits in depends on the machine's speed. *)
  {
    correct = problems = [];
    problems;
    attempted = sim_offered;
    failed = sim_offered - sim_delivered;
    end_to_end;
    per_layer;
    report = List.rev !report;
    determinism =
      String.concat " "
        (List.map
           (fun o ->
             Printf.sprintf "[delivered=%d gone_local=%d lost=%d done_at=%.9f alloc=%.0f]"
               o.o_delivered o.o_gone_local o.o_lost o.o_done_at o.o_alloc)
           sims
        @ [ Printf.sprintf "mean=%.3f p50=%.3f p99=%.3f" mean_us p50 p99 ]
        @
        if trace then
          [
            "calls="
            ^ String.concat "," (Array.to_list (Array.map string_of_int !first_calls));
          ]
        else []);
  }
