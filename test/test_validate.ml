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
(* Capturing (before, application, after) triples: run the heuristic
   exactly as the SPEC pipeline does, with a recording checker. *)

let spec_pairs ?(mem_latency = 2) src =
  let lowered = compile src in
  let cleaned = Spd_analysis.Forwarding.run lowered in
  let naive = Spd_analysis.Memarcs.annotate cleaned in
  let static = Spd_disambig.Static_disambig.run naive in
  let profile = Pipeline.profile_of static in
  let pairs = ref [] in
  let checker ~func ~before app after =
    pairs := (func, before, app, after) :: !pairs
  in
  ignore (Spd_core.Heuristic.run ~profile ~checker ~mem_latency static);
  List.rev !pairs

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
  pick (spec_pairs w.source)

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
        (spec_pairs src);
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

let tests =
  [
    case "paper grid: every application proved" test_paper_grid_proved;
    case "refutes a flipped store guard" test_refutes_flipped_guard;
    case "refutes swapped select arms" test_refutes_swapped_select;
    qcase prop_proved_implies_concrete_equality;
    case "validate JSON deterministic" test_validate_json_deterministic;
    case "grid certification acceptable" test_certify_acceptable;
  ]
