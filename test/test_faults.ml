(** Robustness tests: deterministic fault injection, contained cell
    failures with retry, and the self-healing on-disk cache. *)

open Util
module H = Spd_harness
module Engine = H.Engine
module Faults = H.Faults

let case name f = Alcotest.test_case name `Quick f

let parse_ok spec =
  match Faults.parse spec with
  | Ok f -> f
  | Error msg -> Alcotest.failf "Faults.parse %S: %s" spec msg

(* ------------------------------------------------------------------ *)

let test_faults_parse () =
  check_bool "none is none" true (Faults.is_none Faults.none);
  check_bool "empty spec is none" true (Faults.is_none (parse_ok ""));
  check_bool "cache-corrupt armed" false
    (Faults.is_none (parse_ok "cache-corrupt:3"));
  check_int "fuel carried" 1234
    (Option.get (Faults.fuel (parse_ok "fuel:1234,cell-raise:adi/2/SPEC")));
  List.iter
    (fun bad ->
      match Faults.parse bad with
      | Ok _ -> Alcotest.failf "Faults.parse %S unexpectedly succeeded" bad
      | Error _ -> ())
    [ "bogus"; "cache-corrupt:x"; "cache-corrupt:0"; "fuel:"; "cell-raise:";
      "cell-raise:k@x"; "worker-raise:0" ];
  (* no fault perturbs reported cycle counts *)
  (match Faults.parse "cycles-inflate:10" with
  | Ok _ -> Alcotest.fail "a removed fault kind parsed"
  | Error msg ->
      check_bool "the removed fault is an unknown fault" true
        (Test_harness.contains msg "unknown fault"));
  match Faults.parse "bogus" with
  | Ok _ -> Alcotest.fail "a spec without a colon parsed"
  | Error msg ->
      List.iter
        (fun kind ->
          check_bool ("malformed-spec message names " ^ kind) true
            (Test_harness.contains msg kind))
        [ "cache-corrupt"; "cell-raise"; "fuel"; "worker-raise";
          "checker-raise" ]

(* the chaos harness's client budgets are its own constants, not
   faults: the product refuses their old spellings *)
let test_conn_faults_parse () =
  List.iter
    (fun spec ->
      match Faults.parse spec with
      | Ok _ -> Alcotest.failf "Faults.parse %S unexpectedly succeeded" spec
      | Error msg ->
          check_bool (spec ^ " is an unknown fault") true
            (Test_harness.contains msg "unknown fault"))
    [ "conn-torn-frame:4"; "conn-garbage-header:3"; "conn-stall:2" ]

let test_worker_raise_hook () =
  let f = parse_ok "worker-raise:2" in
  check_bool "worker-raise arms the spec" false (Faults.is_none f);
  let fired = ref 0 in
  for _ = 1 to 5 do
    match Faults.worker_raise f with
    | () -> ()
    | exception Faults.Injected _ -> incr fired
  done;
  check_int "fires exactly its budget" 2 !fired;
  (* a no-fault spec never fires *)
  Faults.worker_raise Faults.none

let test_cell_raise_matching () =
  let f = parse_ok "cell-raise:adi/2/SPEC" in
  check_bool "prefix match raises" true
    (match Faults.cell_raise f ~key:"adi/2/SPEC/summary" with
    | () -> false
    | exception Faults.Injected _ -> true);
  let f = parse_ok "cell-raise:adi/2/SPEC" in
  Faults.cell_raise f ~key:"adi/6/SPEC/summary";
  Faults.cell_raise f ~key:"fft/2/SPEC/summary" (* no match: no raise *)

let test_checker_raise_budget () =
  let f = parse_ok "checker-raise:2" in
  check_bool "checker-raise arms the spec" false (Faults.is_none f);
  let fired = ref 0 in
  for _ = 1 to 5 do
    match Faults.checker_raise f with
    | () -> ()
    | exception Faults.Injected _ -> incr fired
  done;
  check_int "fires exactly its budget" 2 !fired;
  (* a no-fault spec never fires *)
  Faults.checker_raise Faults.none;
  List.iter
    (fun bad ->
      match Faults.parse bad with
      | Ok _ -> Alcotest.failf "Faults.parse %S unexpectedly succeeded" bad
      | Error _ -> ())
    [ "checker-raise:"; "checker-raise:0"; "checker-raise:x" ]

(* A raising per-application checker fails only the grid cell whose
   preparation invoked it — the documented {!Spd_core.Heuristic.checker}
   contract: the exception propagates out of [Heuristic.run] and the
   engine's protected runner contains it. *)
let test_checker_raise_contained () =
  let faults = parse_ok "checker-raise:1" in
  let s = Engine.Session.create ~jobs:1 ~faults () in
  Fun.protect ~finally:(fun () -> Engine.Session.close s) @@ fun () ->
  (match
     Engine.Session.submit s
       (Engine.Query.v ~bench:"moment" ~latency:2 Engine.Query.Spd_counts)
   with
  | Engine.Failed f ->
      check_bool "failure key names the SPEC cell" true
        (String.starts_with ~prefix:"moment/2/SPEC" f.Engine.key);
      check_bool "failure is the injected fault" true
        (match f.Engine.exn with
        | Faults.Injected _ -> true
        | _ -> false)
  | Engine.Ok _ -> Alcotest.fail "expected Failed outcome");
  (* the budget is spent: sibling cells run their checkers cleanly *)
  ignore (ask s ~bench:"moment" ~latency:6 Engine.Query.Spd_counts);
  check_int "only the faulted cell failed" 1
    (List.length (Engine.Session.failures s))

(* And through the report: the faulted cell renders n/a, the appendix
   names the injection, every other cell keeps its value. *)
let test_checker_raise_renders_na () =
  let faults = parse_ok "checker-raise:1" in
  Test_harness.with_session
    (Engine.Session.create ~jobs:1 ~faults ())
    (fun s ->
      let table = Test_harness.pretty (H.Report.table6_3_tables s) in
      let appendix = Test_harness.render (H.Report.failure_appendix s) in
      check_bool "faulted table renders n/a" true
        (Test_harness.contains table "n/a");
      check_bool "appendix names the fault" true
        (Test_harness.contains appendix "Fault injected");
      check_int "exactly one cell failed" 1
        (List.length (Engine.Session.failures s)))

(* ------------------------------------------------------------------ *)
(* A cell that raises once and then succeeds: with retries=2 the session
   must deliver the clean value and record the retry, not a failure. *)

let test_retry_then_succeed () =
  let clean =
    let s = Engine.Session.create ~jobs:1 () in
    Fun.protect ~finally:(fun () -> Engine.Session.close s) @@ fun () ->
    ask s ~bench:"moment" ~latency:2 Engine.Query.Spd_counts
  in
  let faults = parse_ok "cell-raise:moment/2/SPEC/summary@1" in
  let s = Engine.Session.create ~jobs:1 ~retries:2 ~faults () in
  Fun.protect ~finally:(fun () -> Engine.Session.close s) @@ fun () ->
  let got = ask s ~bench:"moment" ~latency:2 Engine.Query.Spd_counts in
  check_bool "value identical to clean session" true (got = clean);
  let st = Engine.Session.stats s in
  check_int "one retry recorded" 1 st.Engine.Stats.cell_retries;
  check_int "no failure recorded" 0 st.Engine.Stats.cell_failures;
  check_bool "failures list empty" true (Engine.Session.failures s = [])

(* Without a retry budget the same fault becomes a contained failure:
   the outcome is [Failed], the raising accessor raises [Cell_failed],
   and sibling cells still compute. *)

let test_contained_failure () =
  let faults = parse_ok "cell-raise:moment/2/SPEC/summary" in
  let s = Engine.Session.create ~jobs:1 ~faults () in
  Fun.protect ~finally:(fun () -> Engine.Session.close s) @@ fun () ->
  (match
     Engine.Session.submit s
       (Engine.Query.v ~bench:"moment" ~latency:2 Engine.Query.Spd_counts)
   with
  | Engine.Failed f ->
      check_bool "failure key names the cell" true
        (f.Engine.key = "moment/2/SPEC/summary")
  | Engine.Ok _ -> Alcotest.fail "expected Failed outcome");
  check_bool "raising accessor raises Cell_failed" true
    (match ask s ~bench:"moment" ~latency:2 Engine.Query.Spd_counts with
    | _ -> false
    | exception Engine.Cell_failed _ -> true);
  (* the failure was memoized, not recomputed *)
  check_int "one failure recorded" 1
    (Engine.Session.stats s).Engine.Stats.cell_failures;
  (* sibling cells are unaffected *)
  ignore (ask s ~bench:"moment" ~latency:6 Engine.Query.Spd_counts);
  check_int "sibling cell computed" 1
    (List.length (Engine.Session.failures s))

(* ------------------------------------------------------------------ *)
(* Reports render a failed cell as n/a, append the failure appendix, and
   every other cell still carries its value. *)

let test_report_renders_na () =
  let clean =
    Test_harness.with_session (Engine.Session.create ~jobs:1 ()) (fun s ->
        Test_harness.pretty (H.Report.table6_3_tables s))
  in
  let faults = parse_ok "cell-raise:moment/2/SPEC" in
  let faulted, appendix =
    Test_harness.with_session
      (Engine.Session.create ~jobs:2 ~faults ())
      (fun s ->
        let table = Test_harness.pretty (H.Report.table6_3_tables s) in
        let appendix =
          Test_harness.render (H.Report.failure_appendix s)
        in
        (table, appendix))
  in
  check_bool "faulted table renders n/a" true
    (Test_harness.contains faulted "n/a");
  check_bool "clean table has no n/a" false
    (Test_harness.contains clean "n/a");
  check_bool "appendix names the injected cell" true
    (Test_harness.contains appendix "moment/2/SPEC/summary");
  check_bool "appendix names the fault" true
    (Test_harness.contains appendix "Fault injected");
  (* every other row still renders its numbers: the outputs differ only
     on the moment row *)
  let lines s = String.split_on_char '\n' s in
  let diff_rows =
    List.combine (lines clean) (lines faulted)
    |> List.filter (fun (a, b) -> not (String.equal a b))
  in
  (* the moment row goes n/a and TOTAL drops its contribution; every
     other row is untouched *)
  check_int "exactly two rows differ (moment + TOTAL)" 2
    (List.length diff_rows);
  check_bool "the differing rows are moment's and TOTAL" true
    (match diff_rows with
    | [ (a, _); (b, _) ] ->
        Test_harness.contains a "moment" && Test_harness.contains b "TOTAL"
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Self-healing cache, at record level: flip a byte inside one record's
   body and cut the pack inside a later record; a warm rerun must evict
   both, miss the records past the cut, recompute and emit identical
   bytes, and its flush must leave one healed pack. *)

let cache_dir name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "spd_%s_%d" name (Unix.getpid ()))
  in
  Test_harness.rm_rf dir;
  dir

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* the records of a pack, read independently of the engine: for each,
   where its body starts and how long it is, from the header
   [<address> spd-cache <version> <md5> <length>] *)
let pack_records s =
  let rec go i acc =
    match String.index_from_opt s i '\n' with
    | None -> List.rev acc
    | Some j -> (
        match String.split_on_char ' ' (String.sub s i (j - i)) with
        | [ _; "spd-cache"; _; _; len ] ->
            let len = int_of_string len in
            go (j + 1 + len) ((j + 1, len) :: acc)
        | _ -> Alcotest.failf "malformed pack header at byte %d" i)
  in
  go 0 []

let count suffix dir = List.length (Test_harness.files_with suffix dir)

let the_pack dir =
  match Test_harness.files_with ".pack" dir with
  | [ p ] -> Filename.concat dir p
  | ps -> Alcotest.failf "expected one pack, found %d" (List.length ps)

let test_cache_self_healing () =
  let dir = cache_dir "heal_test" in
  Fun.protect ~finally:(fun () -> Test_harness.rm_rf dir) @@ fun () ->
  let render s = Test_harness.pretty (H.Report.table6_3_tables s) in
  let session () =
    Engine.Session.create ~jobs:2 ~disk_cache:true ~cache_dir:dir ()
  in
  let cold = Test_harness.with_session (session ()) render in
  let pack = the_pack dir in
  let bytes = read_file pack in
  let records = pack_records bytes in
  check_int "cold pack holds every cell" 22 (List.length records);
  let flipped, flipped_len = List.nth records 2 in
  let cut, cut_len = List.nth records 10 in
  let b = Bytes.of_string bytes in
  let i = flipped + (flipped_len / 2) in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
  write_file pack (Bytes.sub_string b 0 (cut + (cut_len / 2)));
  let s = session () in
  let warm = Test_harness.with_session s render in
  let st = Engine.Session.stats s in
  check_int "flipped and cut records evicted" 2 st.Engine.Stats.disk_evictions;
  check_int "the other records before the cut served" 9
    st.Engine.Stats.disk_hits;
  check_int "records past the cut missed" 13 st.Engine.Stats.disk_misses;
  check_bool "evicted cells recomputed" true
    (st.Engine.Stats.preparations > 0);
  check_bool "healed output bit-identical to cold" true
    (String.equal cold warm);
  (* third run: fully healed, nothing to evict or recompute *)
  let s3 = session () in
  let again = Test_harness.with_session s3 render in
  let st3 = Engine.Session.stats s3 in
  check_int "healed cache: no evictions" 0 st3.Engine.Stats.disk_evictions;
  check_int "healed cache: no recomputation" 0 st3.Engine.Stats.preparations;
  check_int "healed cache: one pack" 1 (count ".pack" dir);
  check_int "healed cache: no temporary file" 0 (count ".tmp" dir);
  check_int "healed pack holds every cell" 22
    (List.length (pack_records (read_file (the_pack dir))));
  check_bool "healed cache output identical" true (String.equal cold again)

(* A record of another cache version is never served: a reading session
   skips it without evicting anything, and the next writing session's
   pack drops it. *)
let test_cache_foreign_version () =
  let dir = cache_dir "version_test" in
  Fun.protect ~finally:(fun () -> Test_harness.rm_rf dir) @@ fun () ->
  let session () =
    Engine.Session.create ~jobs:2 ~disk_cache:true ~cache_dir:dir ()
  in
  let render s = Test_harness.pretty (H.Report.table6_3_tables s) in
  let cold = Test_harness.with_session (session ()) render in
  let pack = the_pack dir in
  let bytes = read_file pack in
  let body, len = List.hd (pack_records bytes) in
  (* the first record again, under the same address and another version *)
  let foreign =
    match String.split_on_char ' ' (String.sub bytes 0 (body - 1)) with
    | [ address; magic; _; md5; length ] ->
        String.concat " " [ address; magic; "0"; md5; length ]
        ^ "\n" ^ String.sub bytes body len
    | _ -> Alcotest.fail "malformed first record"
  in
  write_file pack (bytes ^ foreign);
  let versions () =
    let s = read_file (the_pack dir) in
    List.map
      (fun (body, _) ->
        let start =
          match String.rindex_from_opt s (body - 2) '\n' with
          | Some i -> i + 1
          | None -> 0
        in
        List.nth (String.split_on_char ' ' (String.sub s start (body - start))) 2)
      (pack_records s)
  in
  check_int "the foreign record is in the pack" 1
    (List.length (List.filter (( = ) "0") (versions ())));
  let s = session () in
  let warm = Test_harness.with_session s render in
  let st = Engine.Session.stats s in
  check_int "reading: nothing evicted" 0 st.Engine.Stats.disk_evictions;
  check_int "reading: every cell served" 22 st.Engine.Stats.disk_hits;
  check_bool "reading: output identical" true (String.equal cold warm);
  Test_harness.with_session (session ()) (fun s ->
      ignore
        (ask s ~bench:"moment" ~latency:2
           (Engine.Query.Cycles
              { kind = H.Pipeline.Naive; width = Spd_machine.Descr.Fus 4 })));
  check_bool "writing: the foreign record is gone" true
    (List.for_all (( = ) Engine.cache_version) (versions ()));
  check_int "writing: every current record kept" 23
    (List.length (versions ()))

(* Two sessions load the same pack, write different cells and flush into
   one directory: each flush removes only the pack it loaded, so a third
   session serves the union without preparing anything. *)
let test_cache_concurrent_writers () =
  let dir = cache_dir "writers_test" in
  Fun.protect ~finally:(fun () -> Test_harness.rm_rf dir) @@ fun () ->
  let session () =
    Engine.Session.create ~jobs:1 ~disk_cache:true ~cache_dir:dir ()
  in
  let naive4 =
    Engine.Query.Cycles
      { kind = H.Pipeline.Naive; width = Spd_machine.Descr.Fus 4 }
  in
  let counts s = ask s ~bench:"perm" ~latency:6 Engine.Query.Spd_counts in
  let growth s = ask s ~bench:"tree" ~latency:2 Engine.Query.Code_growth in
  let seed_cycles =
    Test_harness.with_session (session ()) (fun s ->
        ask s ~bench:"moment" ~latency:2 naive4)
  in
  let a = session () and b = session () in
  let perm_counts = counts a and tree_growth = growth b in
  Engine.Session.close a;
  Engine.Session.close b;
  check_int "one pack per writer" 2 (count ".pack" dir);
  let c = session () in
  Test_harness.with_session c (fun c ->
      check_int "seed cell served" seed_cycles
        (ask c ~bench:"moment" ~latency:2 naive4);
      check_bool "first writer's cell served" true (counts c = perm_counts);
      check_bool "second writer's cell served" true
        (Float.equal (growth c) tree_growth));
  let st = Engine.Session.stats c in
  check_int "union served without preparing" 0 st.Engine.Stats.preparations;
  check_int "every cell a disk hit" 4 st.Engine.Stats.disk_hits;
  check_int "a reading session writes nothing" 2 (count ".pack" dir)

(* [spd cache stats] counts records across packs and their bytes *)
let test_cache_usage () =
  let dir = cache_dir "usage_test" in
  Fun.protect ~finally:(fun () -> Test_harness.rm_rf dir) @@ fun () ->
  check_bool "no directory, no records" true (Engine.cache_usage dir = (0, 0));
  Test_harness.with_session
    (Engine.Session.create ~jobs:2 ~disk_cache:true ~cache_dir:dir ())
    (fun s -> ignore (Test_harness.pretty (H.Report.table6_3_tables s)));
  let entries, bytes = Engine.cache_usage dir in
  check_int "a cold table6_3 writes 22 records" 22 entries;
  check_int "bytes are the pack's size"
    (String.length (read_file (the_pack dir)))
    bytes

(* The cache-corrupt fault: corrupt the Nth cache *read*, so a warm run
   heals exactly that one entry. *)

let test_cache_corrupt_fault () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "spd_corrupt_fault_test_%d" (Unix.getpid ()))
  in
  Test_harness.rm_rf dir;
  Fun.protect ~finally:(fun () -> Test_harness.rm_rf dir) @@ fun () ->
  let render s = Test_harness.pretty (H.Report.table6_3_tables s) in
  let cold =
    Test_harness.with_session
      (Engine.Session.create ~jobs:1 ~disk_cache:true ~cache_dir:dir ())
      render
  in
  let s =
    Engine.Session.create ~jobs:1 ~disk_cache:true ~cache_dir:dir
      ~faults:(parse_ok "cache-corrupt:1") ()
  in
  let warm = Test_harness.with_session s render in
  let st = Engine.Session.stats s in
  check_int "exactly one eviction" 1 st.Engine.Stats.disk_evictions;
  check_bool "output unaffected" true (String.equal cold warm)

let tests =
  [
    case "faults: parse and reject" test_faults_parse;
    case "faults: cell-raise key matching" test_cell_raise_matching;
    case "faults: chaos-client budgets" test_conn_faults_parse;
    case "faults: worker-raise budget" test_worker_raise_hook;
    case "faults: checker-raise budget" test_checker_raise_budget;
    case "engine: checker-raise contained to its cell"
      test_checker_raise_contained;
    case "report: checker-raise renders n/a" test_checker_raise_renders_na;
    case "engine: retry then succeed" test_retry_then_succeed;
    case "engine: contained cell failure" test_contained_failure;
    case "report: n/a cells and failure appendix" test_report_renders_na;
    case "cache: self-healing after corruption" test_cache_self_healing;
    case "cache: foreign-version records dropped"
      test_cache_foreign_version;
    case "cache: concurrent writers keep the union"
      test_cache_concurrent_writers;
    case "cache: stats count pack records" test_cache_usage;
    case "cache: cache-corrupt fault injection" test_cache_corrupt_fault;
  ]
