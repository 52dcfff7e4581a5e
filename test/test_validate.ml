(** Translation-validation tests: the symbolic equivalence checker
    proves every SpD application the heuristic performs on the paper
    workloads, refutes hand-miscompiled transforms with a concretizable
    counterexample, and its verdicts agree with concrete differential
    runs on random programs.  The [spd-validate/1] document is
    deterministic across job counts and cache states. *)

open Util
module H = Spd_harness
module Pipeline = H.Pipeline
module Engine = H.Engine
module V = Spd_validate.Validate
module Verdict = Spd_validate.Verdict

let case name f = Alcotest.test_case name `Quick f
let qcase = QCheck_alcotest.to_alcotest
let with_session = Engine.Session.with_session

(* ------------------------------------------------------------------ *)
(* Every SpD application across the full paper grid proves. *)

let test_paper_grid_proved () =
  with_session (Engine.Session.create ~jobs:2 ()) @@ fun s ->
  List.iter
    (fun latency ->
      List.iter
        (fun bench ->
          let reports = ask s ~bench ~latency Engine.Query.Spd_verdicts in
          let applied =
            Spd_core.Heuristic.applied_decisions
              (ask s ~bench ~latency Engine.Query.Spd_decisions)
          in
          check_int
            (Printf.sprintf "%s/lat%d: one verdict per application" bench
               latency)
            (List.length applied) (List.length reports);
          List.iter
            (fun (r : V.report) ->
              match r.verdict with
              | Verdict.Proved -> ()
              | v ->
                  Alcotest.failf "%s/lat%d %s tree %d arc #%d->#%d: %s%s"
                    bench latency r.func r.tree_id (fst r.arc) (snd r.arc)
                    (Verdict.name v)
                    (match v with
                    | Verdict.Unknown reason ->
                        ": " ^ Verdict.reason_text reason
                    | Verdict.Refuted cx ->
                        ": " ^ cx.Verdict.detail
                    | Verdict.Proved -> ""))
            reports)
        (H.Report.benches ()))
    H.Report.latencies

(* ------------------------------------------------------------------ *)
(* The ledger of every application on the paper workloads and
   matmul300, at both latencies, is byte-identical to the committed
   golden file: verdicts, path/split/term counts and both digests.  Any
   change to what the explorer visits, or in which order, shows up
   here; re-bless an intentional one with [make golden-promote]. *)

let test_golden_ledger () =
  Option.iter Alcotest.fail
    (Golden_render.drift ~what:"validation ledger"
       (Filename.concat "golden" Golden_render.validate_file)
       (Golden_render.render_validate ()))

(* ------------------------------------------------------------------ *)
(* Miscompile fixtures: surgically broken transforms must be refuted,
   and the counterexample must concretize to a real divergence. *)

(* the first application pair of the [tree] workload whose transformed
   tree satisfies [want] *)
let fixture_pair what want =
  let w = Spd_workloads.Registry.by_name "tree" in
  let rec pick = function
    | [] -> Alcotest.failf "no SpD application on tree with %s" what
    | (_, before, _, after) :: rest ->
        if want after then (before, after) else pick rest
  in
  pick (Golden_render.spec_pairs w.source)

let has_guarded_store (t : Spd_ir.Tree.t) =
  Array.exists
    (fun (i : Spd_ir.Insn.t) ->
      i.op = Spd_ir.Opcode.Store && i.guard <> None)
    t.insns

let has_select (t : Spd_ir.Tree.t) =
  Array.exists
    (fun (i : Spd_ir.Insn.t) ->
      match (i.op, i.srcs) with
      | Spd_ir.Opcode.Select, [ _; a; b ] -> a <> b
      | _ -> false)
    t.insns

let check_refuted what ~before ~after =
  let verdict, _, _ = V.check_trees ~before ~after () in
  match verdict with
  | Verdict.Refuted cx ->
      (* the stored counterexample replays as a concrete divergence *)
      check_bool
        (what ^ ": counterexample seed concretizes")
        true
        (V.concrete_divergence ~seed:cx.Verdict.seed ~before ~after <> None)
  | Verdict.Proved -> Alcotest.failf "%s: proved a miscompiled tree" what
  | Verdict.Unknown r ->
      Alcotest.failf "%s: unknown (%s), want refuted" what
        (Verdict.reason_text r)

(* Flip the polarity of the first guarded store: the speculated store
   now commits exactly when it must not. *)
let test_refutes_flipped_guard () =
  let before, after = fixture_pair "a guarded store" has_guarded_store in
  let flipped = ref false in
  let insns =
    Array.map
      (fun (i : Spd_ir.Insn.t) ->
        match (i.op, i.guard) with
        | Spd_ir.Opcode.Store, Some g when not !flipped ->
            flipped := true;
            { i with guard = Some { g with positive = not g.positive } }
        | _ -> i)
      after.Spd_ir.Tree.insns
  in
  check_bool "fixture has a guarded store" true !flipped;
  check_refuted "flipped store guard" ~before
    ~after:{ after with Spd_ir.Tree.insns }

(* Swap the data arms of the first select: the merge now picks the
   speculative value on the wrong side of the alias predicate. *)
let test_refutes_swapped_select () =
  let before, after = fixture_pair "a select" has_select in
  let swapped = ref false in
  let insns =
    Array.map
      (fun (i : Spd_ir.Insn.t) ->
        match (i.op, i.srcs) with
        | Spd_ir.Opcode.Select, [ p; a; b ] when (not !swapped) && a <> b ->
            swapped := true;
            { i with srcs = [ p; b; a ] }
        | _ -> i)
      after.Spd_ir.Tree.insns
  in
  check_bool "fixture has a select" true !swapped;
  check_refuted "swapped select arms" ~before
    ~after:{ after with Spd_ir.Tree.insns }

(* ------------------------------------------------------------------ *)
(* Property: on random programs, a [Proved] verdict implies concrete
   exit/store equality on 100 sampled valuations, and the real
   transform is never refuted. *)

let prop_proved_implies_concrete_equality =
  QCheck.Test.make
    ~name:"proved SpD applications agree with concrete runs" ~count:15
    Gen_prog.arbitrary_source (fun src ->
      List.iter
        (fun (func, before, _, after) ->
          let verdict, _, _ = V.check_trees ~before ~after () in
          match verdict with
          | Verdict.Refuted cx ->
              QCheck.Test.fail_reportf
                "validator refuted a real SpD application in %s: %s" func
                cx.Verdict.detail
          | Verdict.Unknown _ -> ()
          | Verdict.Proved ->
              for seed = 0 to 99 do
                match V.concrete_divergence ~seed ~before ~after with
                | None -> ()
                | Some d ->
                    QCheck.Test.fail_reportf
                      "proved application in %s diverges concretely (seed \
                       %d): %s"
                      func seed d
              done)
        (Golden_render.spec_pairs src);
      true)

(* ------------------------------------------------------------------ *)
(* The spd-validate/1 document is a pure function of its inputs. *)

let validate_json ?fn ?tree s workload =
  Spd_telemetry.Json.to_string
    (H.Validation.to_json ?fn ?tree
       (H.Validation.analyze ~mem_latency:2 s workload))

let rm_rf dir =
  if Sys.file_exists dir then
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

let test_validate_json_deterministic () =
  let j1 =
    with_session (Engine.Session.create ~jobs:1 ()) (fun s ->
        validate_json s "perm")
  in
  let j4 =
    with_session (Engine.Session.create ~jobs:4 ()) (fun s ->
        validate_json s "perm")
  in
  check_bool "validate JSON bit-identical across jobs" true
    (String.equal j1 j4);
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "spd_validate_cache_test_%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cold =
    with_session
      (Engine.Session.create ~jobs:2 ~disk_cache:true ~cache_dir:dir ())
      (fun s -> validate_json s "perm")
  in
  let warm =
    with_session
      (Engine.Session.create ~jobs:2 ~disk_cache:true ~cache_dir:dir ())
      (fun s -> validate_json s "perm")
  in
  check_bool "warm validate byte-identical to cold" true
    (String.equal cold warm);
  check_bool "validate = uncached baseline" true (String.equal j1 cold)

(* The certification rollup agrees with the per-cell ledgers and is
   acceptable on the real corpus. *)
let test_certify_acceptable () =
  with_session (Engine.Session.create ~jobs:2 ()) @@ fun s ->
  let c = H.Validation.certify s in
  check_bool "no refutation on the paper grid" true (c.H.Validation.refuted = 0);
  check_bool "no failed cell" true (c.H.Validation.failed = []);
  check_bool "certification acceptable" true (H.Validation.acceptable c);
  check_int "every application proved" c.H.Validation.applications
    c.H.Validation.proved;
  check_int "cells = workloads x latencies"
    (List.length (H.Report.benches ()) * List.length H.Report.latencies)
    c.H.Validation.cells

(* ------------------------------------------------------------------ *)
(* An engine session explores each distinct obligation once.  Its
   ledgers must equal fresh explorations row for row, in every field
   but the wall clock, and the memo key must cover exactly what the
   checker reads. *)

let source bench =
  (Spd_workloads.Registry.by_name bench).Spd_workloads.Workload.source

let same_row (a : V.report) (b : V.report) =
  compare { a with time_ms = 0. } { b with time_ms = 0. } = 0

let test_memo_rows_equal_fresh () =
  with_session (Engine.Session.create ~jobs:2 ()) @@ fun s ->
  List.iter
    (fun bench ->
      List.iter
        (fun latency ->
          let ledger = ask s ~bench ~latency Engine.Query.Spd_verdicts in
          let fresh =
            List.map
              (fun (func, before, app, after) ->
                V.check_application ~func ~before app after)
              (Golden_render.spec_pairs ~mem_latency:latency (source bench))
          in
          check_int
            (Printf.sprintf "%s/lat%d: rows" bench latency)
            (List.length fresh) (List.length ledger);
          List.iteri
            (fun i (m, (f : V.report)) ->
              if not (same_row m f) then
                Alcotest.failf
                  "%s/lat%d row %d (%s tree %d arc #%d->#%d) differs from a \
                   fresh exploration"
                  bench latency i f.func f.tree_id (fst f.arc) (snd f.arc))
            (List.combine ledger fresh))
        [ 2; 6 ])
    (Spd_workloads.Registry.names @ [ "matmul300" ]);
  (* every repeat on the paper grid has its first row's function, tree,
     kind and arc, so ask for a known obligation under other ones: the
     hit must carry the asker's *)
  let func, before, app, after =
    List.hd (Golden_render.spec_pairs (source "tree"))
  in
  let func = func ^ "'" in
  let app =
    {
      app with
      tree_id = app.tree_id + 1000;
      arc = (snd app.arc, fst app.arc);
      kind = (if app.kind = Spd_ir.Memdep.Raw then Waw else Raw);
    }
  in
  let explored () = (Engine.Session.stats s).Engine.Stats.explorations in
  let n = explored () in
  let hit = Engine.Session.validator s ~func ~before app after in
  check_int "a known obligation is a hit" n (explored ());
  check_bool "a hit keeps the asker's function, tree, kind and arc" true
    (same_row hit (V.check_application ~func ~before app after))

let test_obligation_key () =
  let module Tree = Spd_ir.Tree in
  let module Reg = Spd_ir.Reg in
  (* a pair whose trees carry arcs and ranges, so dropping them is a
     real change *)
  let carries (t : Tree.t) = t.arcs <> [] && not (Reg.Map.is_empty t.ranges) in
  let before, after =
    match
      List.find_map
        (fun bench ->
          List.find_map
            (fun (_, b, _, a) ->
              if carries b && carries a then Some (b, a) else None)
            (Golden_render.spec_pairs (source bench)))
        Spd_workloads.Registry.names
    with
    | Some pair -> pair
    | None -> Alcotest.fail "no SpD application with arcs and ranges"
  in
  let key ?max_paths ?samples ~before ~after () =
    V.key (V.obligation ?max_paths ?samples ~before ~after ())
  in
  let base = key ~before ~after () in
  let fresh (t : Tree.t) = 1 + Reg.Set.max_elt (Tree.all_regs t) in
  let last a = a.(Array.length a - 1) in
  let changed =
    [
      ( "params",
        fun (t : Tree.t) -> { t with params = t.params @ [ fresh t ] } );
      ( "insns",
        fun t ->
          { t with insns = Array.sub t.insns 0 (Array.length t.insns - 1) } );
      ( "exits",
        fun t -> { t with exits = Array.append t.exits [| last t.exits |] } );
      ( "addr_params",
        fun t -> { t with addr_params = Reg.Set.add (fresh t) t.addr_params } );
    ]
  and kept =
    [
      ("id", fun (t : Tree.t) -> { t with id = t.id + 1000 });
      ("name", fun t -> { t with name = t.name ^ "'" });
      ("arcs", fun t -> { t with arcs = [] });
      ("ranges", fun t -> { t with ranges = Reg.Map.empty });
      ( "addr_params inserted in reverse",
        fun t ->
          {
            t with
            addr_params =
              List.fold_right Reg.Set.add (Reg.Set.elements t.addr_params)
                Reg.Set.empty;
          } );
    ]
  in
  let check_field ~same (field, f) =
    List.iter
      (fun (side, k) ->
        check_bool
          (Printf.sprintf "%s of %s %s the key" field side
             (if same then "keeps" else "changes"))
          same (Digest.equal k base))
      [
        ("before", key ~before:(f before) ~after ());
        ("after", key ~before ~after:(f after) ());
      ]
  in
  List.iter (check_field ~same:false) changed;
  List.iter (check_field ~same:true) kept;
  check_bool "max_paths changes the key" false
    (Digest.equal base (key ~max_paths:1 ~before ~after ()));
  check_bool "samples change the key" false
    (Digest.equal base (key ~samples:1 ~before ~after ()))

let tests =
  [
    case "paper grid: every application proved" test_paper_grid_proved;
    case "ledger matches the golden file" test_golden_ledger;
    case "session memo rows = fresh explorations" test_memo_rows_equal_fresh;
    case "obligation key: what the checker reads" test_obligation_key;
    case "refutes a flipped store guard" test_refutes_flipped_guard;
    case "refutes swapped select arms" test_refutes_swapped_select;
    qcase prop_proved_implies_concrete_equality;
    case "validate JSON deterministic" test_validate_json_deterministic;
    case "grid certification acceptable" test_certify_acceptable;
  ]
