(* The per-layer ledger: spans timed from outside, around the calls the
   benchmark makes into each layer and around the callbacks the library
   makes back (wrapped Dgram handlers and sends, wrapped Sched timers).

   Spans nest on a fixed stack; a layer's self time is its span minus
   the spans opened inside it, so the self times of all layers add up to
   the root span. Everything lives in arrays allocated once at start-up,
   and a span records nothing but integers and unboxed floats, so spans
   allocate no heap words of their own (the wrapped scheduler below is
   the one exception). With tracing off every entry point is a single
   branch. *)

let layer_names =
  [|
    "bench";
    "rt.loop";
    "rt.loop.wait";
    "serve.ingest";
    "serve.pump";
    "serve.send";
    "serve.harvest";
    "loadgen.step";
    "loadgen.send";
    "loadgen.rx";
    "alf_transport.send_value";
    "alf_transport.rx";
    "alf_transport.timers";
    "alf_transport.sender_rx";
    "alf_transport.tx";
    "netsim.engine";
    "app.deliver";
  |]

let bench = 0
let rt_loop = 1
let rt_wait = 2
let serve_ingest = 3
let serve_pump = 4
let serve_send = 5
let serve_harvest = 6
let loadgen_step = 7
let loadgen_send = 8
let loadgen_rx = 9
let tr_send_value = 10
let tr_rx = 11
let tr_timers = 12
let tr_sender_rx = 13
let tr_tx = 14
let netsim_engine = 15
let app_deliver = 16
let count = Array.length layer_names

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let on = ref false
let self_ns = Array.make count 0
let calls = Array.make count 0
let words = Array.make count 0.0

let max_depth = 64
let st_layer = Array.make max_depth 0
let st_t0 = Array.make max_depth 0
let st_child = Array.make max_depth 0
let st_w0 = Array.make max_depth 0.0
let st_wchild = Array.make max_depth 0.0
let depth = ref 0

let reset () =
  Array.fill self_ns 0 count 0;
  Array.fill calls 0 count 0;
  Array.fill words 0 count 0.0;
  depth := 0

let enter l =
  if !on then begin
    let d = !depth in
    st_layer.(d) <- l;
    st_child.(d) <- 0;
    st_wchild.(d) <- 0.0;
    st_w0.(d) <- Gc.minor_words ();
    depth := d + 1;
    st_t0.(d) <- now_ns ()
  end

(* Close the innermost span and charge it to [l] — which may differ from
   the layer it was opened under, for spans classified only once their
   work is known (a simulator event that turned out to be a receive). *)
let leave_as l =
  if !on then begin
    let t1 = now_ns () in
    let w1 = Gc.minor_words () in
    let d = !depth - 1 in
    depth := d;
    let el = t1 - st_t0.(d) and wel = w1 -. st_w0.(d) in
    self_ns.(l) <- self_ns.(l) + el - st_child.(d);
    words.(l) <- words.(l) +. wel -. st_wchild.(d);
    calls.(l) <- calls.(l) + 1;
    if d > 0 then begin
      st_child.(d - 1) <- st_child.(d - 1) + el;
      st_wchild.(d - 1) <- st_wchild.(d - 1) +. wel
    end
  end

let leave () = if !on then leave_as st_layer.(!depth - 1)

let total_self_ns () = Array.fold_left ( + ) 0 self_ns

(* Wrappers for the seams the library calls back through. Each closure
   is built once, at set-up; calling it allocates nothing. *)

let wrap_send layer (io : Alf_core.Dgram.t) =
  let base = io.Alf_core.Dgram.send in
  fun ~dst ~dst_port ~src_port buf ->
    enter layer;
    let ok = base ~dst ~dst_port ~src_port buf in
    leave ();
    ok

(* [send] replaces the substrate's send (already wrapped by the caller
   when it needs its own bookkeeping); handlers bound through the result
   run inside [rx_layer] spans. *)
let wrap_io ~rx_layer ~send (io : Alf_core.Dgram.t) : Alf_core.Dgram.t =
  {
    io with
    Alf_core.Dgram.send;
    bind =
      (fun ~port h ->
        io.Alf_core.Dgram.bind ~port (fun ~src ~src_port buf ->
            enter rx_layer;
            h ~src ~src_port buf;
            leave ()));
  }

(* Timers: every callback scheduled through the result runs inside a
   [layer] span. The wrapper allocates one closure per timer armed,
   charged to the layer that arms it, so only traced runs install it. *)
let wrap_sched layer (s : Rt.Sched.t) : Rt.Sched.t =
  {
    s with
    Rt.Sched.schedule =
      (fun delay f ->
        s.Rt.Sched.schedule delay (fun () ->
            enter layer;
            f ();
            leave ()));
  }

(* One line per layer that ran: self time per ADU, calls, self time per
   call and minor-heap words per call; times divided by [speed]. *)
let report ~n_adus ~speed emit =
  emit "layer                       self_ns/ADU       calls    ns/call  words/call";
  Array.iteri
    (fun l name ->
      if calls.(l) > 0 then
        emit
        @@ Printf.sprintf "%-26s %12.1f %11d %10.1f %11.1f" name
          (float_of_int self_ns.(l) /. speed /. n_adus)
          calls.(l)
          (float_of_int self_ns.(l) /. speed /. float_of_int calls.(l))
          (words.(l) /. float_of_int calls.(l)))
    layer_names
