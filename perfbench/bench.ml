(* One workload, one run:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

   prints the workload's report lines, then as its last line one JSON
   object {correct, attempted, failed, metrics}: the end-to-end metrics
   with --trace 0, the per-layer ledger with --trace 1. --smoke shrinks
   every workload to a few hundred ADUs (the metric set is unchanged). *)

open Common

let workloads =
  [
    ( "serve-64b",
      fun ~smoke ->
        Serve_wl.run
          ~spec:
            (if smoke then { Serve_wl.serve_64b with Serve_wl.sessions = 64 }
             else Serve_wl.serve_64b) );
    ( "serve-1k-aead-loss1",
      fun ~smoke ->
        Serve_wl.run
          ~spec:
            (if smoke then { Serve_wl.serve_1k with Serve_wl.sessions = 32 }
             else Serve_wl.serve_1k) );
    ( "transfer-8k-aead-loss2",
      fun ~smoke ->
        Transfer_wl.run
          ~spec:(if smoke then { Transfer_wl.adus = 40 } else Transfer_wl.transfer_8k)
    );
  ]

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit: %.17g round-trips a double. Non-finite values are not
   JSON; they print as null and fail the smoke check. *)
let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let result_json r metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun mt ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string mt.name)
              (json_number mt.value) (json_string mt.unit_))
          metrics))

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map fst workloads));
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.0)
  and trace = ref (-1) and smoke = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--smoke" :: rest -> smoke := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run =
    match List.assoc_opt !workload workloads with Some f -> f | None -> usage ()
  in
  if !seed < 0 || !seconds < 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  let r =
    run ~smoke:!smoke ~name:!workload ~seed:!seed ~seconds:!seconds
      ~trace:(!trace = 1)
  in
  List.iter print_endline r.report;
  List.iter (fun p -> print_endline ("CHECK FAILED: " ^ p)) r.problems;
  print_endline ("determinism: " ^ r.determinism);
  let metrics = if !trace = 1 then r.per_layer else r.end_to_end in
  List.iter
    (fun mt -> Printf.printf "%-28s %16.6f %s\n" mt.name mt.value mt.unit_)
    metrics;
  print_endline (result_json r metrics)
