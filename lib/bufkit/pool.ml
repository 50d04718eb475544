type stats = {
  buf_size : int;
  allocated : int;
  reused : int;
  outstanding : int;
  high_water : int;
  exhausted : int;
}

exception Exhausted

(* Every buffer a pool makes is a [buf_size]-byte view over a backing
   store [tag_bytes] longer. The hidden tail holds a tag: the pool's id
   shifted left once, with bit 0 set while the buffer sits in the free
   stack. [release] tells its own buffers from foreign ones, and a double
   release from a legal one, by reading that word — O(1), where scanning
   the free list cost a walk over every idle buffer on every release. *)
let tag_bytes = 8

external get_tag : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set_tag : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* Ids start at 1: tag 0 is what a zero-filled foreign store carries. *)
let next_id = Atomic.make 1

type t = {
  (* The free stack, the tags of the buffers on it and the accounting
     all move under [lock]. Without it, two domains racing [acquire] can
     pop the same slot and leave with ONE aliased buffer — silent
     cross-domain data corruption, a strictly worse outcome than the
     double-release bug the tags guard against. Nothing that can raise
     runs while it is held: allocation and zero-fill happen after the
     unlock, on a buffer the caller already owns. *)
  lock : Mutex.t;
  busy : int;  (* tag of an outstanding buffer of this pool; [busy + 1] when free *)
  buf_size : int;
  max_outstanding : int;  (* [max_int] when uncapped *)
  free : Bytebuf.t array;  (* a stack: [free.(0 .. free_count - 1)] *)
  mutable free_count : int;
  mutable allocated : int;
  mutable reused : int;
  mutable outstanding : int;
  mutable high_water : int;
  mutable exhausted : int;
}

let create ?(capacity = 64) ?max_outstanding ~buf_size () =
  if buf_size <= 0 then invalid_arg "Pool.create: buf_size must be positive";
  if buf_size > Sys.max_string_length - tag_bytes then
    invalid_arg "Pool.create: buf_size too large";
  if capacity < 0 then invalid_arg "Pool.create: negative capacity";
  let max_outstanding =
    match max_outstanding with
    | Some m when m <= 0 ->
        invalid_arg "Pool.create: max_outstanding must be positive"
    | Some m -> m
    | None -> max_int
  in
  {
    lock = Mutex.create ();
    busy = Atomic.fetch_and_add next_id 1 lsl 1;
    buf_size;
    max_outstanding;
    free = Array.make capacity Bytebuf.empty;
    free_count = 0;
    allocated = 0;
    reused = 0;
    outstanding = 0;
    high_water = 0;
    exhausted = 0;
  }

(* The tag of [buf], or -1 when it cannot carry one: only the full view
   of a store exactly [tag_bytes] longer than [buf_size] has a tail. *)
let tag_of t buf =
  let data = Bytebuf.storage buf in
  if Bytebuf.offset buf = 0 && Bytes.length data = t.buf_size + tag_bytes then
    Int64.to_int (get_tag data t.buf_size)
  else -1

let set_tag_of t buf tag =
  set_tag (Bytebuf.storage buf) t.buf_size (Int64.of_int tag)

let at_cap t =
  if t.outstanding >= t.max_outstanding then begin
    t.exhausted <- t.exhausted + 1;
    true
  end
  else false

(* Under the lock: count one more outstanding buffer and pop the free
   stack. [Bytebuf.empty] (never a pool buffer: [buf_size > 0]) means the
   stack was empty and the caller makes a fresh buffer after unlocking. *)
let take_locked t =
  t.outstanding <- t.outstanding + 1;
  if t.outstanding > t.high_water then t.high_water <- t.outstanding;
  if t.free_count = 0 then begin
    t.allocated <- t.allocated + 1;
    Bytebuf.empty
  end
  else begin
    let i = t.free_count - 1 in
    let b = t.free.(i) in
    t.free.(i) <- Bytebuf.empty;
    t.free_count <- i;
    t.reused <- t.reused + 1;
    set_tag_of t b t.busy;
    b
  end

(* Outside the lock: the buffer is the caller's alone by now. *)
let ready t b =
  if b == Bytebuf.empty then begin
    let b = Bytebuf.take (Bytebuf.create (t.buf_size + tag_bytes)) t.buf_size in
    set_tag_of t b t.busy;
    b
  end
  else begin
    Bytebuf.fill b '\000';
    b
  end

let acquire t =
  Mutex.lock t.lock;
  if at_cap t then begin
    Mutex.unlock t.lock;
    raise Exhausted
  end;
  let b = take_locked t in
  Mutex.unlock t.lock;
  ready t b

let try_acquire t =
  Mutex.lock t.lock;
  if at_cap t then begin
    Mutex.unlock t.lock;
    None
  end
  else begin
    let b = take_locked t in
    Mutex.unlock t.lock;
    Some (ready t b)
  end

let release t buf =
  if Bytebuf.length buf <> t.buf_size then
    invalid_arg "Pool.release: buffer size does not match pool";
  Mutex.lock t.lock;
  (* A double release would push the same buffer onto the free stack
     twice; two later acquires would then hand out one aliased buffer —
     silent data corruption. Detect both symptoms: the buffer's tag says
     it is already on the free stack, and more releases than acquires.
     The tag is read under the lock so two racing releases of one buffer
     cannot both see it outstanding. *)
  let tag = tag_of t buf in
  if tag = t.busy + 1 then begin
    Mutex.unlock t.lock;
    invalid_arg "Pool.release: buffer already released"
  end;
  if t.outstanding = 0 then begin
    Mutex.unlock t.lock;
    invalid_arg "Pool.release: more releases than acquires"
  end;
  t.outstanding <- t.outstanding - 1;
  (* Only this pool's own buffers go back on the stack: a foreign one
     carries no tag, so a second release of it could not be caught. *)
  if tag = t.busy && t.free_count < Array.length t.free then begin
    set_tag_of t buf (t.busy + 1);
    t.free.(t.free_count) <- buf;
    t.free_count <- t.free_count + 1
  end;
  Mutex.unlock t.lock

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      buf_size = t.buf_size;
      allocated = t.allocated;
      reused = t.reused;
      outstanding = t.outstanding;
      high_water = t.high_water;
      exhausted = t.exhausted;
    }
  in
  Mutex.unlock t.lock;
  s

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "pool(size=%d allocated=%d reused=%d outstanding=%d high_water=%d exhausted=%d)"
    s.buf_size s.allocated s.reused s.outstanding s.high_water s.exhausted
