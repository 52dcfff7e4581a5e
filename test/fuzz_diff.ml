(** Differential fuzz oracle for the SpD pipeline.

    Every case generates a random mini-C program (from a seeded,
    replayable RNG), runs it through the plain interpreter, and through
    the SpD-transformed program both untimed and under the 4-FU
    scheduled machine.  All three observable behaviours (return value
    and printed output) must be identical; the machine adds timing, not
    semantics.

    Each case additionally cross-checks the rewritten hot paths against
    their preserved originals: the indexed DDG build must produce the
    reference build's edges, and the heap list scheduler must emit
    bit-identical schedules to {!Scheduler_reference}.

    The pricing oracle re-derives every cycle count the harness
    reports: for all four pipelines at both memory latencies, cycles
    priced from one instrumented run's path histogram — NAIVE's run for
    NAIVE, STATIC and PERFECT, SPEC's own for SPEC — must equal a timed
    interpreter run at 1–8 FUs and on the infinite machine, and the
    per-tree breakdown [spd explain] prints must sum to that run's
    cycles and traversals.

    The gain oracle re-prices the heuristic's estimator: on every tree
    of the STATIC and the SpD program, at both memory latencies,
    profiled and uniform, [Gain.candidates] (one dependence graph per
    tree) must equal a full graph rebuild per ambiguous arc bit for
    bit.

    Finally the symbolic translation validator is run as a cross-oracle
    against the concrete differential stages: a transform every
    concrete run certified must not be [Refuted] symbolically — the
    two oracles fail independently, so a divergence flags a bug in
    whichever one is wrong.

    On a mismatch (or a crash in any stage) the failing case is
    greedily shrunk to a minimal spec, and the seed, case number and
    minimized source are printed so the failure replays exactly with
    [--replay CASE --seed SEED].

    {v
    fuzz_diff [--count N] [--seed S] [--replay CASE] [--fuel N] [--verbose]
    v}

    [--fuel] tightens the per-case traversal budget (default 2M);
    exhausting it counts as a stage failure, which also exercises the
    shrinker on demand. *)

module Pipeline = Spd_harness.Pipeline
module Interp = Spd_sim.Interp
module Scheduler = Spd_machine.Scheduler
module Ddg = Spd_analysis.Ddg

(* a per-case fuel well under the default: generated programs are tiny,
   so a runaway traversal count is itself a bug worth failing on *)
let case_fuel = ref 2_000_000

type mismatch = {
  stage : string;
  detail : string;
}

let pp_observed ppf (ret, output) =
  Fmt.pf ppf "return %a; output [%a]" Spd_ir.Value.pp ret
    Fmt.(list ~sep:semi Spd_ir.Value.pp)
    output

(* Hot-path oracle 1: the indexed DDG build and the heap scheduler must
   reproduce the preserved reference implementations bit for bit. *)
let check_scheduler_equivalence (prog : Spd_ir.Prog.t) =
  Spd_ir.Prog.iter_trees
    (fun _func tree ->
      let g = Ddg.build ~mem_latency:2 tree in
      let r = Scheduler_reference.build_ddg ~mem_latency:2 tree in
      if
        not
          (g.Ddg.preds = r.Ddg.preds
          && g.Ddg.succs = r.Ddg.succs
          && g.Ddg.node_lat = r.Ddg.node_lat)
      then
        failwith
          (Printf.sprintf "%s: indexed DDG differs from the reference build"
             tree.Spd_ir.Tree.name);
      List.iter
        (fun fus ->
          let s = Scheduler.run ~fus g in
          let s' = Scheduler_reference.run ~fus r in
          if
            s.Scheduler.issue <> s'.Scheduler.issue
            || s.Scheduler.fu <> s'.Scheduler.fu
            || s.Scheduler.length <> s'.Scheduler.length
          then
            failwith
              (Printf.sprintf
                 "%s: %d-wide heap schedule differs from the reference scan"
                 tree.Spd_ir.Tree.name fus))
        [ 1; 4 ])
    prog

(* Pricing oracle: [Histogram.price] over one instrumented run, and its
   per-tree breakdown, against [Interp.run ~timing], the reference, on
   every machine. *)
let check_pricing (lowered : Spd_ir.Prog.t) =
  List.iter
    (fun mem_latency ->
      let config =
        Pipeline.Config.v ~check:false ~fuel:!case_fuel ~mem_latency ()
      in
      let reference =
        Pipeline.reference ~config (Pipeline.naive ~config lowered)
      in
      List.iter
        (fun kind ->
          let p =
            Pipeline.prepare ~config ~reference:(fun () -> reference) kind
              lowered
          in
          let run =
            match kind with
            | Pipeline.Spec -> Pipeline.run p
            | Pipeline.Naive | Pipeline.Static | Pipeline.Perfect ->
                reference.Pipeline.run
          in
          List.iter
            (fun width ->
              let timing =
                Spd_machine.Timing_builder.program
                  { Spd_machine.Descr.width; mem_latency } p.prog
              in
              let timed = Interp.run ~timing ~fuel:!case_fuel p.prog in
              let priced = Spd_sim.Histogram.price run.histogram timing in
              let trees = Spd_sim.Histogram.breakdown run.histogram timing in
              let sum f = List.fold_left (fun n c -> n + f c) 0 trees in
              let fail what ours theirs =
                failwith
                  (Fmt.str "%s at %a, %d-cycle memory: %s %d, timed %d"
                     (Pipeline.name kind) Spd_machine.Descr.pp_width width
                     mem_latency what ours theirs)
              in
              if priced <> timed.cycles then fail "priced" priced timed.cycles;
              (* the per-tree breakdown [spd explain] prints *)
              let cycles = sum (fun c -> c.Spd_sim.Histogram.cycles) in
              if cycles <> timed.cycles then
                fail "per-tree cycles sum to" cycles timed.cycles;
              let traversals = sum (fun c -> c.Spd_sim.Histogram.traversals) in
              if traversals <> timed.traversals then
                fail "per-tree traversals sum to" traversals timed.traversals)
            (Spd_machine.Descr.Infinite
            :: List.init 8 (fun i -> Spd_machine.Descr.Fus (i + 1))))
        Pipeline.all)
    [ 2; 6 ]

(* Gain oracle: [Gain.candidates] against the per-arc rebuild of
   {!Gain_reference}, bit for bit, on every tree of the STATIC and the
   SpD program. *)
let check_gain (lowered : Spd_ir.Prog.t) (spd : Spd_ir.Prog.t) =
  let config = Pipeline.Config.v ~check:false ~fuel:!case_fuel () in
  let static = (Pipeline.prepare ~config Pipeline.Static lowered).prog in
  let profile = Pipeline.profile_of ~fuel:!case_fuel static in
  List.iter
    (fun prog ->
      Spd_ir.Prog.iter_trees
        (fun func (tree : Spd_ir.Tree.t) ->
          List.iter
            (fun mem_latency ->
              List.iter
                (fun profile ->
                  let expected =
                    Gain_reference.candidates ?profile ~mem_latency ~func tree
                  in
                  match
                    Gain_reference.diff ~expected
                      (Spd_core.Gain.candidates ?profile ~mem_latency ~func
                         tree)
                  with
                  | None -> ()
                  | Some d ->
                      failwith
                        (Printf.sprintf "%s, %d-cycle memory, %s: %s"
                           tree.name mem_latency
                           (if profile = None then "uniform" else "profiled")
                           d))
                [ Some profile; None ])
            [ 2; 6 ])
        prog)
    [ static; spd ]

(* The oracle: [Ok ()] when the SpD pipeline preserves the plain
   interpreter's observable behaviour, [Error m] otherwise.  Any
   exception out of compilation, transformation or simulation is a
   failure of that stage. *)
let check (spec : Gen_prog.spec) : (unit, mismatch) result =
  let src = Gen_prog.render spec in
  let stage name f =
    match f () with
    | v -> Ok v
    | exception e ->
        Error { stage = name; detail = Printexc.to_string e }
  in
  let ( let* ) = Result.bind in
  let* lowered = stage "lower" (fun () -> Spd_lang.Lower.compile src) in
  let* expected =
    stage "interpret (plain)" (fun () ->
        Interp.observe ~fuel:!case_fuel lowered)
  in
  let* prepared =
    stage "transform (SpD)" (fun () ->
        Pipeline.prepare
          ~config:(Pipeline.Config.v ~check:false ~fuel:!case_fuel ())
          Pipeline.Spec lowered)
  in
  let* got =
    stage "interpret (SpD)" (fun () ->
        Interp.observe ~fuel:!case_fuel prepared.prog)
  in
  let* () =
    stage "scheduler-equivalence (heap vs reference)" (fun () ->
        check_scheduler_equivalence prepared.prog)
  in
  let* () =
    stage "pricing (histogram vs timed run)" (fun () -> check_pricing lowered)
  in
  let* () =
    stage "gain (one graph vs per-arc rebuild)" (fun () ->
        check_gain lowered prepared.prog)
  in
  let* timed =
    stage "simulate (SpD, 4 FU)" (fun () ->
        let descr =
          { Spd_machine.Descr.width = Spd_machine.Descr.Fus 4;
            mem_latency = 2 }
        in
        let timing = Spd_machine.Timing_builder.program descr prepared.prog in
        let r = Interp.run ~timing ~fuel:!case_fuel prepared.prog in
        (r.ret, r.output))
  in
  let* () =
    if got <> expected then
      Error
        {
          stage = "diff (SpD vs plain)";
          detail =
            Fmt.str "plain: %a@.SpD:   %a" pp_observed expected pp_observed
              got;
        }
    else if timed <> expected then
      Error
        {
          stage = "diff (scheduled vs plain)";
          detail =
            Fmt.str "plain:     %a@.scheduled: %a" pp_observed expected
              pp_observed timed;
        }
    else Ok ()
  in
  (* Cross-oracle: every concrete stage above just certified this
     transform, so the symbolic validator must not refute it — a
     [Validation_failed] here means the validator refuted a passing
     program ([Unknown] verdicts are tolerated; [Proved] agreement with
     concrete runs is what the earlier diff stages established). *)
  let* p =
    stage "validate-oracle (symbolic vs concrete)" (fun () ->
        Pipeline.prepare
          ~config:
            (Pipeline.Config.v ~check:false ~validate:true ~fuel:!case_fuel ())
          Pipeline.Spec lowered)
  in
  if List.length p.Pipeline.verdicts <> List.length p.Pipeline.applications
  then
    Error
      {
        stage = "validate-oracle (symbolic vs concrete)";
        detail = "validation ledger is missing applications";
      }
  else Ok ()

let spec_of ~seed ~case =
  let rand = Random.State.make [| seed; case |] in
  QCheck.Gen.generate1 ~rand Gen_prog.gen_spec

let report_failure ~seed ~case spec m =
  Fmt.epr "@.FAIL case %d (seed %d): %s@.%s@." case seed m.stage m.detail;
  Fmt.epr "@.Shrinking...@.";
  let still_fails s = Result.is_error (check s) in
  let small = Gen_prog.shrink ~still_fails spec in
  let m' =
    match check small with Error m' -> m' | Ok () -> m (* unreachable *)
  in
  Fmt.epr "@.Minimized reproducer (%s):@.%s@." m'.stage
    (Gen_prog.render small);
  Fmt.epr "Replay with: fuzz_diff --seed %d --replay %d@." seed case

let () =
  let count = ref 200 in
  let seed = ref 42 in
  let replay = ref None in
  let verbose = ref false in
  let usage () =
    Fmt.epr
      "usage: fuzz_diff [--count N] [--seed S] [--replay CASE] [--verbose]@.";
    exit 1
  in
  let int_flag flag n =
    match int_of_string_opt n with
    | Some v when v >= 0 -> v
    | _ ->
        Fmt.epr "fuzz_diff: %s expects a non-negative integer, got %S@." flag
          n;
        exit 1
  in
  let rec parse = function
    | [] -> ()
    | "--count" :: n :: tl -> count := int_flag "--count" n; parse tl
    | "--seed" :: n :: tl -> seed := int_flag "--seed" n; parse tl
    | "--replay" :: n :: tl ->
        replay := Some (int_flag "--replay" n);
        parse tl
    | "--fuel" :: n :: tl ->
        (match int_flag "--fuel" n with
        | 0 -> Fmt.epr "fuzz_diff: --fuel expects a positive integer@."; exit 1
        | v -> case_fuel := v);
        parse tl
    | "--verbose" :: tl -> verbose := true; parse tl
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = !seed in
  let cases =
    match !replay with Some c -> [ c ] | None -> List.init !count Fun.id
  in
  let failed = ref 0 in
  List.iter
    (fun case ->
      let spec = spec_of ~seed ~case in
      match check spec with
      | Ok () ->
          if !verbose then Fmt.epr "case %d: ok@." case
      | Error m ->
          incr failed;
          report_failure ~seed ~case spec m)
    cases;
  if !failed > 0 then begin
    Fmt.epr "@.%d of %d differential cases FAILED (seed %d)@." !failed
      (List.length cases) seed;
    exit 1
  end
  else
    Fmt.pr "fuzz_diff: %d differential cases passed (seed %d)@."
      (List.length cases) seed
