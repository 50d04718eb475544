(* Machine-speed calibration.

   Small shared virtual machines change speed under a benchmark's feet:
   on a 2-vCPU Xeon virtual machine, a fixed computation took anywhere
   from 1x to 1.8x its fastest time, drifting over seconds to minutes, so
   two sets of runs minutes apart disagreed by 30-40% in ADU/s with no
   code changed.

   [factor ()] times a fixed reference job that is independent of the
   code under test — a random read-modify-write walk over 4 MB, a
   streaming integer pass over 64 KB, and 300 loopback UDP ping-pongs on
   plain sockets — and divides by [reference_s], the job's time on that
   machine at its usual speed. Each wall-clock measurement is taken next to
   one calibration and scaled by it: rates are multiplied by the factor,
   times divided by it, which reports them at the reference speed. The
   unscaled figures and the factors are printed in the report. *)

let reference_s = 5.0e-3

let walk = Bytes.make (1 lsl 22) '\001'
let stream = Bytes.make 65536 '\002'
let ping = Bytes.make 96 'p'
let pong = Bytes.create 2048

let sockets =
  lazy
    (let open Unix in
     let a = socket PF_INET SOCK_DGRAM 0 and b = socket PF_INET SOCK_DGRAM 0 in
     bind b (ADDR_INET (inet_addr_loopback, 0));
     (* A lost datagram must not hang the benchmark. *)
     setsockopt_float b SO_RCVTIMEO 1.0;
     at_exit (fun () ->
         close a;
         close b);
     (a, b, getsockname b))

let job () =
  let x = ref 0x2545F4914F6CDD1D and mask = Bytes.length walk - 1 in
  for i = 1 to 200_000 do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) in
    x := v;
    let j = v land mask in
    Bytes.unsafe_set walk j
      (Char.unsafe_chr ((Char.code (Bytes.unsafe_get walk j) + i) land 0xff))
  done;
  let acc = ref 0 in
  for r = 1 to 40 do
    for j = 0 to (Bytes.length stream / 8) - 1 do
      acc := !acc + ((Int64.to_int (Bytes.get_int64_le stream (j * 8)) lxor r) * 31)
    done
  done;
  ignore (Sys.opaque_identity !acc);
  let a, b, addr = Lazy.force sockets in
  for _ = 1 to 300 do
    ignore (Unix.sendto a ping 0 (Bytes.length ping) [] addr);
    ignore (Unix.recvfrom b pong 0 (Bytes.length pong) [])
  done

(* > 1 when the machine runs slower than the reference. *)
let factor () =
  let t0 = Ledger.now_ns () in
  job ();
  float_of_int (Ledger.now_ns () - t0) /. 1e9 /. reference_s
