(* Performance gate over machine-readable bench output: one table of
   checks, grouped by the row-name prefix they cover, and one interpreter.

     perfcheck FILE GROUP...

   runs every check of each named group against the JSON array in FILE,
   prints one line per check, and exits 1 if any check fails — a row or
   field it needs but cannot find counts as a failure. `make perf-smoke`,
   `make secure-smoke`, `make udp-smoke`, `make bench-serve` and
   `make bench-hostile` call it after writing their rows.

   Ratios are between measurements of the *same run*, so host speed and
   quota cancel out. *)

type cmp = Eq | Ge | Gt | Lt

(* What a field is compared with: a number, a boolean, or another field
   of the same row. *)
type bound = N of float | B of bool | F of string

(* Which rows an [Every]/[Count] check ranges over: all rows in the
   file, those that carry a given field, or those whose name starts with
   a given prefix. *)
type rows = All | Having of string | Prefixed of string

type check =
  | Ratio of string * string * float  (* mbps of one row / another >= floor *)
  | Field of string * string * cmp * bound  (* a named row's field *)
  | Every of rows * string * cmp * bound  (* each row's field *)
  | Count of rows * int  (* at least this many rows *)

let marshal_codec c =
  let r m = Printf.sprintf "ilp-marshal/%s/%s" c m in
  [
    Ratio (r "fused", r "serial", 1.5);
    Ratio (r "fused", r "encode-only", 0.8);
    Ratio (r "fused", r "marshal-only", 0.7);
  ]

let groups =
  [
    (* E2, the original ILP claim: the fused copy+checksum loop must beat
       its serial composition. *)
    ("ilp-fusion", [ Ratio ("ilp-fusion/fused", "ilp-fusion/serial", 1.0) ]);
    (* E14, the plan compiler: the compiled 3-stage plan
       (decrypt+checksum+deliver) must beat the serial layered composition
       by at least 2x, and the per-byte interpreter outright. *)
    ( "ilp-compile",
      [
        Ratio ("ilp-compile/3stage/compiled", "ilp-compile/3stage/serial", 2.0);
        Ratio
          ("ilp-compile/3stage/compiled", "ilp-compile/3stage/interpreted", 1.0);
      ] );
    (* E15, fused presentation conversion, for both codecs: the fused
       marshal+checksum+deliver pass must beat encode-then-checksum-then-
       copy by at least 1.5x and not fall below the bare cursor encode
       (the paper's 28 -> 24 Mb/s conversion+checksum figure). Against
       the bare in-place marshal (no stages) the per-word stage dispatch
       may cost up to 30%: the paper measured 14% (24/28) against a
       conversion loop an order of magnitude slower than ours, so the
       fixed stage cost is a proportionally larger slice here. *)
    ("ilp-marshal", marshal_codec "xdr" @ marshal_codec "ber");
    (* E19: the schema-compiled fused marshal must not fall below the
       interpretive fused marshal (nor may the cached entry point, beyond
       noise), the lazy validate-view receive must not fall below the
       eager decode, both directions must be allocation-free in steady
       state, and the schema-program cache must hit at least as often as
       it misses. *)
    ( "schema-marshal",
      [
        Ratio
          ( "schema-marshal/xdr/compiled-fused",
            "schema-marshal/xdr/interp-fused",
            1.0 );
        Ratio
          ( "schema-marshal/xdr/compiled-cached-fused",
            "schema-marshal/xdr/interp-fused",
            0.95 );
        Ratio
          ("schema-marshal/xdr/view-fused", "schema-marshal/xdr/decode-fused", 1.0);
        Field ("schema-marshal/gate", "steady_allocs", Eq, N 0.);
        Field ("schema-marshal/gate", "rx_steady_allocs", Eq, N 0.);
        Field ("schema-marshal/gate", "cache_hits", Ge, F "cache_misses");
      ] );
    (* E20: the fused marshal+AEAD+frame single pass must beat the
       layered reference stack (byte-grain per-layer walks plus per-layer
       PDU copies) by at least 1.5x on send and 1.3x on receive, and stay
       within noise of the word-grain layered upper bound (shared
       ChaCha20/Poly1305 compute floors both sides, so the honest win is
       pass elimination plus word-grain processing); both record
       directions must be allocation-free in steady state. *)
    ( "secure-record",
      [
        Ratio ("secure-record/xdr/fused", "secure-record/xdr/serial", 1.5);
        Ratio ("secure-record/xdr/fused", "secure-record/xdr/serial-words", 0.85);
        Ratio ("secure-record/xdr/open-fused", "secure-record/xdr/open-serial", 1.3);
        Ratio ("secure-record/xdr/open-fused", "secure-record/xdr/open-words", 0.8);
        Field ("secure-record/gate", "steady_allocs", Eq, N 0.);
        Field ("secure-record/gate", "rx_steady_allocs", Eq, N 0.);
      ] );
    (* E16 (`alfnet udp --bench`): the fused send path must stay
       zero-allocation in steady state over real loopback sockets, hold
       the stream's own invariants, and both backends must post a
       positive throughput. *)
    ( "udp",
      [
        Field ("udp/fused-send", "mbps", Gt, N 0.);
        Field ("netsim/fused-send", "mbps", Gt, N 0.);
        Field ("udp/fused-send", "steady_allocs_per_adu", Eq, N 0.);
        Field ("udp/fused-send", "ok", Eq, B true);
      ] );
    (* E17 (`alfnet serve --bench`): every sessions x domains point must
       hold the serve engine's invariants (ok: every session DONE,
       delivered union gone = sent, peak concurrency = the session count),
       post a positive throughput, and stage a zero-steady-state-allocation
       data path. Heap words per delivered ADU (whole process, all
       domains, minor heap) are bounded per backend: the serve path
       allocates only the [Adu.t] it hands out, so what remains is the
       substrate's — the simulator's events on netsim, [Unix.recvfrom]'s
       results on real sockets. Each bound is 1.5x the largest value
       measured on a 2-core host at 4,000 and 100,000 sessions, rounded
       up (netsim 234, rt 82). *)
    ( "serve",
      [
        Count (All, 1);
        Every (All, "ok", Eq, B true);
        Every (All, "adus_per_s", Gt, N 0.);
        Every (All, "pool_allocs_steady", Eq, N 0.);
        Every (All, "fallback_allocs", Eq, N 0.);
        Count (Prefixed "serve/rt/", 1);
        Every (Prefixed "serve/netsim/", "heap_words_per_adu", Lt, N 350.);
        Every (Prefixed "serve/rt/", "heap_words_per_adu", Lt, N 125.);
      ] );
    (* E18 (`alfnet serve --bench --hostile`): both backends must survive
       a >= 30% byzantine traffic mix with every honest session completing
       exactly (ok covers the exact delivered+gone accounting, flat pool
       budget, conservation and reason-coded drop totals) and zero
       dispatch errors, and the stage-0 validator's measured cost must
       stay under 3% of the clean run's wall clock. *)
    ( "hostile",
      [
        Count (All, 1);
        Every (All, "ok", Eq, B true);
        Count (Having "hostile_ratio", 2);
        Every (Having "hostile_ratio", "hostile_ratio", Ge, N 0.3);
        Every (Having "hostile_ratio", "dispatch_errors", Eq, N 0.);
        Field ("hostile/stage0-overhead", "overhead_frac", Lt, N 0.03);
      ] );
  ]

let name_of row =
  match Obs.Json.member "name" row with Some (Obs.Json.Str n) -> n | _ -> "?"

let find rows name = List.find_opt (fun r -> name_of r = name) rows

let cmp_name = function Eq -> "=" | Ge -> ">=" | Gt -> ">" | Lt -> "<"

let bound_name = function
  | N v -> Printf.sprintf "%g" v
  | B b -> string_of_bool b
  | F k -> k

let value_name = function
  | Obs.Json.Num v -> Printf.sprintf "%g" v
  | Obs.Json.Bool b -> string_of_bool b
  | _ -> "?"

(* [(ok, detail)]; a field the check needs but the row lacks fails it. *)
let compare_field row key cmp bound =
  let get k =
    match Obs.Json.member k row with
    | Some ((Obs.Json.Num _ | Obs.Json.Bool _) as v) -> Some v
    | _ -> None
  in
  let against =
    match bound with
    | N v -> Some (Obs.Json.Num v)
    | B b -> Some (Obs.Json.Bool b)
    | F k -> get k
  in
  match (get key, against) with
  | Some v, Some w ->
      let ok =
        match (cmp, v, w) with
        | Eq, _, _ -> v = w
        | Ge, Obs.Json.Num a, Obs.Json.Num b -> a >= b
        | Gt, Obs.Json.Num a, Obs.Json.Num b -> a > b
        | Lt, Obs.Json.Num a, Obs.Json.Num b -> a < b
        | _ -> false
      in
      (ok, value_name v)
  | _ -> (false, "field missing")

let selected rows = function
  | All -> rows
  | Having k -> List.filter (fun r -> Obs.Json.member k r <> None) rows
  | Prefixed p ->
      List.filter (fun r -> String.starts_with ~prefix:p (name_of r)) rows

let having = function
  | All -> ""
  | Having k -> " with " ^ k
  | Prefixed p -> " named " ^ p ^ "*"

(* One line per check: its label, what was measured, and the verdict. *)
let run_check rows check =
  let label, (ok, detail) =
    match check with
    | Ratio (num, den, floor) -> (
        let mbps name =
          match Option.map (Obs.Json.member "mbps") (find rows name) with
          | Some (Some (Obs.Json.Num v)) -> Some v
          | _ -> None
        in
        ( Printf.sprintf "%s / %s >= %.2fx" num den floor,
          match (mbps num, mbps den) with
          | Some a, Some b -> (a /. b >= floor, Printf.sprintf "%.2fx" (a /. b))
          | None, _ -> (false, Printf.sprintf "no measurement named %S" num)
          | _, None -> (false, Printf.sprintf "no measurement named %S" den) ))
    | Field (row, key, cmp, bound) ->
        ( Printf.sprintf "%s %s %s %s" row key (cmp_name cmp) (bound_name bound),
          match find rows row with
          | None -> (false, Printf.sprintf "no row named %S" row)
          | Some r -> compare_field r key cmp bound )
    | Every (which, key, cmp, bound) ->
        let over = selected rows which in
        ( Printf.sprintf "every row%s: %s %s %s" (having which) key
            (cmp_name cmp) (bound_name bound),
          match
            List.find_map
              (fun r ->
                match compare_field r key cmp bound with
                | true, _ -> None
                | false, v -> Some (Printf.sprintf "%s in %s" v (name_of r)))
              over
          with
          | None -> (true, Printf.sprintf "%d rows" (List.length over))
          | Some bad -> (false, bad) )
    | Count (which, n) ->
        let k = List.length (selected rows which) in
        ( Printf.sprintf "at least %d row(s)%s" n (having which),
          (k >= n, Printf.sprintf "%d rows" k) )
  in
  Printf.printf "perfcheck: %-72s %s  %s\n" label detail
    (if ok then "ok" else "FAIL");
  ok

let () =
  let usage () =
    prerr_endline
      ("usage: perfcheck FILE GROUP...  (groups: "
      ^ String.concat ", " (List.map fst groups)
      ^ ")");
    exit 2
  in
  let path, names =
    match List.tl (Array.to_list Sys.argv) with
    | path :: (_ :: _ as names) -> (path, names)
    | _ -> usage ()
  in
  let checks =
    List.concat_map
      (fun g ->
        match List.assoc_opt g groups with
        | Some cs -> cs
        | None ->
            prerr_endline ("perfcheck: unknown group " ^ g);
            usage ())
      names
  in
  let rows =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error msg -> Error ("cannot read: " ^ msg)
    | text -> (
        match Obs.Json.parse text with
        | Ok (Obs.Json.Arr rows) -> Ok rows
        | Ok _ -> Error "expected a top-level JSON array"
        | Error e -> Error e)
  in
  match rows with
  | Error e ->
      Printf.eprintf "perfcheck: %s: %s\n" path e;
      exit 1
  | Ok rows ->
      let failed =
        List.length (List.filter (fun c -> not (run_check rows c)) checks)
      in
      if failed > 0 then begin
        Printf.eprintf "perfcheck: %d of %d check(s) failed in %s (%s)\n" failed
          (List.length checks) path (String.concat " " names);
        exit 1
      end;
      Printf.printf "perfcheck: all %d check(s) hold in %s (%s)\n"
        (List.length checks) path (String.concat " " names)
