(* Per-peer policing: a fixed-size token-bucket table keyed by the
   {!Demux} hash. The table is two float arrays allocated at [create]
   and never grows — a hostile peer cannot make the policer itself a
   memory attack — so distinct peers may share a bucket (hash modulo).
   Collisions only make policing *stricter* for the colliding pair,
   never looser, and with buckets sized a few times the honest peer
   population they are rare. Buckets start full so honest startup
   bursts pass untouched. *)

type t = {
  tokens : float array;
  stamp : float array;  (* last refill time per bucket *)
  rate : float;  (* tokens per second *)
  burst : float;  (* bucket capacity *)
  buckets : int;
}

let create ~buckets ~rate ~burst () =
  if buckets <= 0 then invalid_arg "Police.create: buckets must be positive";
  if rate <= 0.0 || burst <= 0.0 then
    invalid_arg "Police.create: rate and burst must be positive";
  {
    tokens = Array.make buckets burst;
    stamp = Array.make buckets 0.0;
    rate;
    burst;
    buckets;
  }

let bucket_of t key = (key land max_int) mod t.buckets

let allow_int t ~key ~now =
  let i = bucket_of t key in
  let elapsed = now -. t.stamp.(i) in
  let filled =
    if elapsed > 0.0 then
      Float.min t.burst (t.tokens.(i) +. (elapsed *. t.rate))
    else t.tokens.(i)
  in
  t.stamp.(i) <- now;
  if filled >= 1.0 then begin
    t.tokens.(i) <- filled -. 1.0;
    true
  end
  else begin
    t.tokens.(i) <- filled;
    false
  end

let allow t ~key ~now = allow_int t ~key:(Int64.to_int key) ~now
let tokens_left t ~key = t.tokens.(bucket_of t (Int64.to_int key))
