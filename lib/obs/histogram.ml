(* Bucket 0 is the underflow bucket (v < 1); bucket i >= 1 covers
   [2^((i-1)/4), 2^(i/4)). *)
let per_octave = 4
let octaves = 62
let nbuckets = (per_octave * octaves) + 1

type t = {
  (* Buckets plus the scalar moments move together under [lock]: a
     histogram is updated from whichever domain ran the measured code, and
     an unsynchronized [count <- count + 1] next to an array store would
     drop updates and let count drift from the bucket sum. *)
  lock : Mutex.t;
  counts : int array;
  mutable count : int;
  moments : Float.Array.t;
      (* sum, min, max — unboxed, so [record] allocates nothing; a mutable
         float field in this mixed record would box on every store *)
}

let sum_slot = 0
let min_slot = 1
let max_slot = 2

let create () =
  let moments = Float.Array.make 3 0.0 in
  Float.Array.set moments min_slot infinity;
  Float.Array.set moments max_slot neg_infinity;
  { lock = Mutex.create (); counts = Array.make nbuckets 0; count = 0; moments }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Total: NaN lands in the underflow bucket with everything below 1. *)
let[@inline] bucket_of v =
  if not (v >= 1.0) then 0
  else
    let i = 1 + int_of_float (Float.log2 v *. float_of_int per_octave) in
    if i >= nbuckets then nbuckets - 1 else i

(* Geometric midpoint of bucket i's range. *)
let representative i =
  if i = 0 then 0.5
  else Float.pow 2.0 ((float_of_int (i - 1) +. 0.5) /. float_of_int per_octave)

let moment t slot = Float.Array.get t.moments slot

(* Called once per measured event (e.g. every stage-2 run), so it takes
   the lock without a [Fun.protect] closure: nothing between lock and
   unlock can raise. Inlined so that {!record_int}'s float stays
   unboxed. *)
let[@inline] record t v =
  let b = bucket_of v in
  Mutex.lock t.lock;
  t.counts.(b) <- t.counts.(b) + 1;
  t.count <- t.count + 1;
  Float.Array.set t.moments sum_slot (moment t sum_slot +. v);
  if v < moment t min_slot then Float.Array.set t.moments min_slot v;
  if v > moment t max_slot then Float.Array.set t.moments max_slot v;
  Mutex.unlock t.lock

let record_int t n = record t (float_of_int n)

let count t = locked t (fun () -> t.count)
let sum t = locked t (fun () -> moment t sum_slot)

let mean t =
  locked t (fun () ->
      if t.count = 0 then 0.0 else moment t sum_slot /. float_of_int t.count)

let minimum t =
  locked t (fun () -> if t.count = 0 then 0.0 else moment t min_slot)

let maximum t =
  locked t (fun () -> if t.count = 0 then 0.0 else moment t max_slot)

let percentile t q =
  locked t (fun () ->
      if t.count = 0 then 0.0
      else if q <= 0.0 then moment t min_slot
      else if q >= 1.0 then moment t max_slot
      else begin
        let rank = Float.max 1.0 (Float.round (q *. float_of_int t.count)) in
        let cum = ref 0 in
        let i = ref 0 in
        (try
           while !i < nbuckets do
             cum := !cum + t.counts.(!i);
             if float_of_int !cum >= rank then raise Exit;
             incr i
           done
         with Exit -> ());
        let v = representative (min !i (nbuckets - 1)) in
        Float.min (moment t max_slot) (Float.max (moment t min_slot) v)
      end)

let p50 t = percentile t 0.50
let p90 t = percentile t 0.90
let p99 t = percentile t 0.99

let pp ppf t =
  Format.fprintf ppf
    "hist(n=%d mean=%.4g p50=%.4g p90=%.4g p99=%.4g min=%.4g max=%.4g)"
    (count t) (mean t) (p50 t) (p90 t) (p99 t) (minimum t) (maximum t)
