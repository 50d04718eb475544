open Bufkit

let max_payload = 65507

type stats = {
  mutable datagrams_sent : int;
  mutable datagrams_received : int;
  mutable send_dropped : int;
  mutable no_peer : int;
  mutable unrouted : int;
  mutable recv_batches : int;
  mutable max_batch : int;
  mutable recv_pool_misses : int;
}

type t = {
  loop : Loop.t;
  recv_batch : int;
  pool : Pool.t option;
  scratch : Bytebuf.t;  (* staging when the pool is absent or exhausted *)
  bind_addr : Unix.inet_addr;
  socks : (int, Unix.file_descr) Hashtbl.t;  (* virtual port -> socket *)
  handlers : (int, src:int -> src_port:int -> Bytebuf.t -> unit) Hashtbl.t;
  peers : (int, Unix.sockaddr) Hashtbl.t;  (* [peer_key addr port] -> *)
  rev : (Unix.sockaddr, int * int) Hashtbl.t;
  mutable next_addr : int;
  mutable closed : bool;
  stats : stats;
}

let stats t = t.stats

let create ?(recv_batch = 32) ?(buf_size = 2048) ?pool
    ?(bind_addr = Unix.inet_addr_loopback) ~loop () =
  if recv_batch < 1 then invalid_arg "Udp_link.create: recv_batch";
  if buf_size < 1 then invalid_arg "Udp_link.create: buf_size";
  {
    loop;
    recv_batch;
    pool;
    scratch = Bytebuf.create buf_size;
    bind_addr;
    socks = Hashtbl.create 8;
    handlers = Hashtbl.create 8;
    peers = Hashtbl.create 16;
    rev = Hashtbl.create 16;
    next_addr = 1;
    closed = false;
    stats =
      {
        datagrams_sent = 0;
        datagrams_received = 0;
        send_dropped = 0;
        no_peer = 0;
        unrouted = 0;
        recv_batches = 0;
        max_batch = 0;
        recv_pool_misses = 0;
      };
  }

(* A peer's (address, port) pair as the one int [peers] is keyed on,
   so [send] looks it up without building a tuple. Addresses below 2^30
   and ports below 2^32 keep it exact; anything else names no peer. *)
let peer_key addr port = (addr lsl 32) lor port

let peer_key_ok addr port =
  addr >= 0 && addr < 1 lsl 30 && port >= 0 && port <= 0xFFFFFFFF

(* The one write path for both registry directions. A sockaddr already
   known under another (addr, port) — typically the synthetic port 0 that
   {!source_of} assigns on first contact — is upgraded {e in place}: the
   stale forward entry is removed, so the registry never holds two peers
   for one sockaddr or a rev mapping pointing at a dead pair (which would
   misattribute [src_port] on every later arrival). *)
let rebind t sa ~addr ~port =
  if not (peer_key_ok addr port) then
    invalid_arg "Udp_link: peer address or port out of range";
  (match Hashtbl.find_opt t.rev sa with
  | Some (a0, p0) when (a0, p0) <> (addr, port) ->
      Hashtbl.remove t.peers (peer_key a0 p0)
  | Some _ | None -> ());
  Hashtbl.replace t.peers (peer_key addr port) sa;
  Hashtbl.replace t.rev sa (addr, port)

let register_sockaddr t sa ~port =
  match Hashtbl.find_opt t.rev sa with
  | Some (addr, p0) ->
      (* First contact registered it under port 0; now the caller knows
         the real port. Keep the address — tokens already handed to
         handlers stay valid, since sends resolve through [peers] and the
         old pair is re-pointed here. *)
      if p0 <> port then rebind t sa ~addr ~port;
      addr
  | None ->
      let addr = t.next_addr in
      t.next_addr <- t.next_addr + 1;
      rebind t sa ~addr ~port;
      addr

let set_peer t ~addr ~port sa = rebind t sa ~addr ~port

(* Identify an arrival's source. First contact from an unknown sockaddr
   registers it under a fresh address and a synthetic virtual port: the
   pair is only ever echoed back into [send], where the registry resolves
   it again, so its actual value is immaterial. *)
let source_of t sa =
  match Hashtbl.find t.rev sa with
  | pair -> pair
  | exception Not_found ->
      let addr = t.next_addr in
      t.next_addr <- t.next_addr + 1;
      Hashtbl.replace t.peers (peer_key addr 0) sa;
      Hashtbl.replace t.rev sa (addr, 0);
      (addr, 0)

(* A received datagram is staged in a buffer of [t.pool] when one is
   free, else in [t.scratch]; only the former goes back. *)
let release_staging t staging =
  match t.pool with
  | Some pool when staging != t.scratch -> Pool.release pool staging
  | Some _ | None -> ()

let drain t ~port fd =
  let received = ref 0 in
  let continue = ref true in
  while !continue && !received < t.recv_batch do
    let staging =
      match t.pool with
      | Some pool -> (
          match Pool.try_acquire pool with
          | Some full -> full
          | None ->
              (* The receive budget is spent but the kernel queue is not:
                 fall back to the scratch buffer rather than leave the
                 datagram queued, and account the miss — under a hostile
                 flood this is the socket-drain pressure signal. *)
              t.stats.recv_pool_misses <- t.stats.recv_pool_misses + 1;
              t.scratch)
      | None -> t.scratch
    in
    match
      Unix.recvfrom fd (Bytebuf.storage staging) (Bytebuf.offset staging)
        (Bytebuf.length staging) []
    with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        release_staging t staging;
        continue := false
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.EINTR), _, _) ->
        (* A previous send drew an ICMP unreachable; the datagram it
           refers to is already gone. Keep draining. *)
        release_staging t staging
    | n, sa ->
        incr received;
        t.stats.datagrams_received <- t.stats.datagrams_received + 1;
        let src, src_port = source_of t sa in
        (match Hashtbl.find t.handlers port with
        | handler -> handler ~src ~src_port (Bytebuf.take staging n)
        | exception Not_found -> t.stats.unrouted <- t.stats.unrouted + 1);
        release_staging t staging
  done;
  if !received > 0 then begin
    t.stats.recv_batches <- t.stats.recv_batches + 1;
    if !received > t.stats.max_batch then t.stats.max_batch <- !received
  end

let socket_for t ~port =
  match Hashtbl.find t.socks port with
  | fd -> fd
  | exception Not_found ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
      Unix.set_nonblock fd;
      (* Bigger kernel buffers absorb the bursts a paced simulator never
         produces; best-effort (rmem_max caps silently). *)
      (try Unix.setsockopt_int fd Unix.SO_RCVBUF (1 lsl 21) with _ -> ());
      (try Unix.setsockopt_int fd Unix.SO_SNDBUF (1 lsl 21) with _ -> ());
      Unix.bind fd (Unix.ADDR_INET (t.bind_addr, 0));
      Hashtbl.replace t.socks port fd;
      ignore (register_sockaddr t (Unix.getsockname fd) ~port);
      Loop.on_readable t.loop fd (fun () -> drain t ~port fd);
      fd

let bind t ~port handler =
  if t.closed then invalid_arg "Udp_link.bind: link closed";
  Hashtbl.replace t.handlers port handler;
  ignore (socket_for t ~port)

let local_sockaddr t ~port =
  match Hashtbl.find_opt t.socks port with
  | Some fd -> Unix.getsockname fd
  | None -> raise Not_found

let local_addr t ~port =
  match Hashtbl.find_opt t.rev (local_sockaddr t ~port) with
  | Some (addr, _) -> addr
  | None -> raise Not_found

let no_peer t =
  t.stats.no_peer <- t.stats.no_peer + 1;
  false

let send t ~dst ~dst_port ~src_port payload =
  if t.closed then false
  else if not (peer_key_ok dst dst_port) then no_peer t
  else
    match Hashtbl.find t.peers (peer_key dst dst_port) with
    | exception Not_found -> no_peer t
    | sa -> (
        let fd = socket_for t ~port:src_port in
        match
          Unix.sendto fd (Bytebuf.storage payload) (Bytebuf.offset payload)
            (Bytebuf.length payload) [] sa
        with
        | _ ->
            t.stats.datagrams_sent <- t.stats.datagrams_sent + 1;
            true
        | exception
            Unix.Unix_error
              ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ENOBUFS
                | Unix.ECONNREFUSED ),
                _,
                _ ) ->
            t.stats.send_dropped <- t.stats.send_dropped + 1;
            false)

let close t =
  if not t.closed then begin
    t.closed <- true;
    Hashtbl.iter
      (fun _ fd ->
        Loop.clear_readable t.loop fd;
        try Unix.close fd with Unix.Unix_error _ -> ())
      t.socks;
    Hashtbl.reset t.socks
  end
