(** The four disambiguation pipelines of Table 6-4.

    {v
    source --lower--> trees --all-pairs arcs-->            NAIVE
    NAIVE  --GCD/Banerjee (affine forms)-->                STATIC
    STATIC --profiled path probabilities--SpD heuristic--> SPEC
    NAIVE  --profiled alias counts, drop superfluous-->    PERFECT
    v}

    Every prepared program is checked against the NAIVE baseline.
    NAIVE, STATIC and PERFECT only relabel arcs, so their code must be
    NAIVE's with arcs ignored; SPEC rewrites code, so one instrumented
    run of it must produce NAIVE's observable behaviour (return value
    and printed output).

    Cycles are priced, not simulated per machine: one instrumented run
    counts each tree's paths ({!Spd_sim.Histogram}), and every width's
    cycles are that histogram folded with the width's schedule.  NAIVE,
    STATIC and PERFECT execute the same code, so NAIVE's run — which
    also yields the profile SPEC and PERFECT are built from — prices all
    three. *)

open Spd_ir
module Memarcs = Spd_analysis.Memarcs
module Static = Spd_disambig.Static_disambig
module Heuristic = Spd_core.Heuristic

type kind = Naive | Static | Spec | Perfect

let all = [ Naive; Static; Spec; Perfect ]

let name = function
  | Naive -> "NAIVE"
  | Static -> "STATIC"
  | Spec -> "SPEC"
  | Perfect -> "PERFECT"

let pp ppf k = Fmt.string ppf (name k)

(* ------------------------------------------------------------------ *)
(* Pipeline stages, for wall-clock instrumentation. *)

type stage = Lower | Profile | Spd | Validate | Schedule | Simulate

let stages = [ Lower; Profile; Spd; Validate; Schedule; Simulate ]

let stage_name = function
  | Lower -> "lower"
  | Profile -> "profile"
  | Spd -> "spd"
  | Validate -> "validate"
  | Schedule -> "schedule"
  | Simulate -> "simulate"

module M = Spd_telemetry.Metrics
module Clock = Spd_telemetry.Clock

(* one process-wide histogram per stage: every run of a stage, in a
   session or not, is observed once *)
let m_stage_seconds =
  List.map
    (fun st ->
      ( st,
        M.histogram_handle ~buckets:M.time_buckets
          ("spd.engine.stage_seconds." ^ stage_name st) ))
    stages

let observe_stage stage dt =
  M.observe (M.get (List.assoc stage m_stage_seconds)) dt

let stage_seconds () =
  List.map (fun (st, h) -> (st, (M.hist_value (M.get h)).sum)) m_stage_seconds

(* Every instrumented stage is also a trace span, so a --trace run shows
   the stage breakdown nested under its grid cell's span.  [nested] is
   the time [f] spent in work another stage accounts for, which the
   observation leaves out so the stage rows stay disjoint. *)
let time ?(nested = ref 0.) stage f =
  Spd_telemetry.Trace.with_span ~name:("stage:" ^ stage_name stage)
    (fun () ->
      let t0 = Clock.now () in
      let r = f () in
      observe_stage stage (Clock.now () -. t0 -. !nested);
      r)

(* Lowering is observed without a [stage:lower] span: the benchmark
   harness books [spd.engine.stage_seconds.lower] to its lowering layer
   itself, so a span would count it twice. *)
let lower source =
  let t0 = Clock.now () in
  let prog = Spd_lang.Lower.compile source in
  observe_stage Lower (Clock.now () -. t0);
  prog

(* ------------------------------------------------------------------ *)

module Config = struct
  type t = {
    check : bool;  (** verify observable equivalence with NAIVE *)
    validate : bool;
        (** translation-validate every SpD application symbolically: a
            [Refuted] verdict is a hard error, and the prepared record
            carries the full verdict ledger *)
    spd_params : Heuristic.params option;
        (** guidance-heuristic knobs (default: {!Heuristic.default_params}) *)
    graft : bool;  (** unroll loop trees before disambiguation (section 7) *)
    mem_latency : int;  (** memory latency in cycles (paper: 2 and 6) *)
    fuel : int option;
        (** traversal budget for every simulator run (profiling, checking,
            timing); [None] = the simulator's default *)
    deadline : float option;
        (** wall-clock budget in seconds for every simulator run *)
    checker_fault : (unit -> unit) option;
        (** consulted at every per-application checker invocation; the
            engine wires the session's [checker-raise] fault here *)
  }

  let default =
    { check = true; validate = false; spd_params = None; graft = false;
      mem_latency = 2; fuel = None; deadline = None; checker_fault = None }

  let v ?(check = true) ?(validate = false) ?spd_params ?(graft = false)
      ?fuel ?deadline ?checker_fault ?(mem_latency = 2) () =
    { check; validate; spd_params; graft; mem_latency; fuel; deadline;
      checker_fault }

  (* The canonical encoding of the semantic fields (everything except
     [checker_fault], [fuel] and [deadline] — the budgets can
     only turn a result into a failure, never change a successfully
     computed value, so they do not participate in cache addressing).
     [validate] is likewise excluded: validation never changes the
     prepared program, it can only fail the preparation, so validated
     and unvalidated cells share their cached numbers; the verdict
     ledger itself is cached under its own payload suffix. *)
  let fingerprint t =
    let params =
      match t.spd_params with
      | None -> "default"
      | Some (p : Heuristic.params) ->
          Printf.sprintf "me=%h,mg=%h,ma=%d" p.max_expansion p.min_gain
            p.max_applications
    in
    Printf.sprintf "check=%b;graft=%b;lat=%d;params=%s" t.check t.graft
      t.mem_latency params
end

(* ------------------------------------------------------------------ *)
(* Instrumented runs *)

type region_dynamics = {
  func : string;
  tree_id : int;
  dep_kind : Memdep.kind;
  arc : int * int;
  alias_commits : int;
  noalias_commits : int;
}

type dynamics = {
  regions : region_dynamics list;
      (** one row per SpD application, sorted (func, tree, arc) *)
  squashed : int;  (** guarded stores squashed across all watched trees *)
}

type run = {
  ret : Value.t;
  output : Value.t list;
  traversals : int;
  histogram : Spd_sim.Histogram.t;
  dynamics : dynamics;
}

(* One instrumented interpreter run, timed as [stage]: the path
   histogram, the observable behaviour, a watch on every SpD
   application and, when given, the profile. *)
let instrumented (config : Config.t) stage ?profile ~applications prog : run
    =
  let histogram = Spd_sim.Histogram.create () in
  let spd = Spd_sim.Profile.Spd.create () in
  let handles =
    List.map
      (fun (a : Heuristic.application) ->
        ( a,
          Spd_sim.Profile.Spd.watch spd ~func:a.func ~tree_id:a.tree_id
            ~predicate:a.predicate ))
      applications
  in
  let r =
    time stage (fun () ->
        Spd_sim.Interp.run ~histogram ?profile
          ?spd:(if applications = [] then None else Some spd)
          ?fuel:config.fuel ?deadline:config.deadline prog)
  in
  let regions =
    List.map
      (fun ((a : Heuristic.application), (r : Spd_sim.Profile.Spd.region)) ->
        {
          func = a.func;
          tree_id = a.tree_id;
          dep_kind = a.kind;
          arc = a.arc;
          alias_commits = r.alias_commits;
          noalias_commits = r.noalias_commits;
        })
      handles
    |> List.sort (fun a b ->
           compare (a.func, a.tree_id, a.arc) (b.func, b.tree_id, b.arc))
  in
  {
    ret = r.ret;
    output = r.output;
    traversals = r.traversals;
    histogram;
    dynamics =
      { regions; squashed = (Spd_sim.Profile.Spd.totals spd).squashed };
  }

type reference = { run : run; profile : Spd_sim.Profile.t }

(* the front end every pipeline shares: store-to-load forwarding and
   redundant-load elimination, as in the paper's optimizing compiler;
   optional tree grafting (paper section 7), which unrolls loop trees to
   expose more ambiguous pairs to SpD; then all-pairs memory arcs *)
let naive ?(config = Config.default) (lowered : Prog.t) : Prog.t =
  let cleaned = Spd_analysis.Forwarding.run lowered in
  let cleaned =
    if config.graft then Spd_analysis.Unroll.run cleaned else cleaned
  in
  Memarcs.annotate cleaned

(* the NAIVE program, structurally validated: what every preparation of
   one lowered program starts from *)
let front ?config (lowered : Prog.t) : Prog.t =
  Spd_telemetry.Trace.with_span ~name:"harness.front" (fun () ->
      let p = naive ?config lowered in
      Prog.validate p;
      p)

let reference ?(config = Config.default) (naive : Prog.t) : reference =
  let profile = Spd_sim.Profile.create () in
  { run = instrumented config Profile ~profile ~applications:[] naive; profile }

type prepared = {
  kind : kind;
  config : Config.t;
  mem_latency : int;
  prog : Prog.t;
  applications : Heuristic.application list;
      (** SpD applications performed (SPEC only) *)
  decisions : Heuristic.decision list;
      (** the heuristic's full decision ledger (SPEC only) *)
  verdicts : Spd_validate.Validate.report list;
      (** per-application translation-validation ledger, in application
          order (SPEC with [config.validate] only) *)
  run : run option;
}

(* ------------------------------------------------------------------ *)
(* Decision-ledger counters, forced eagerly by [spd serve] so a metrics
   snapshot carries them whether or not a SPEC pipeline has been
   prepared yet. *)

let rejection_labels =
  [
    "not-critical"; "not-applicable.arc-not-ambiguous";
    "not-applicable.intervening-reference";
    "not-applicable.address-unavailable"; "below-min-gain";
    "max-applications"; "max-expansion";
  ]

let m_candidates = M.counter_handle "spd.heuristic.candidates"
let m_applied = M.counter_handle "spd.heuristic.applied"

let m_rejected =
  List.map
    (fun r -> (r, M.counter_handle ("spd.heuristic.rejected." ^ r)))
    rejection_labels

let m_proved = M.counter_handle "spd.validate.proved"
let m_refuted = M.counter_handle "spd.validate.refuted"
let m_unknown = M.counter_handle "spd.validate.unknown"

let observe_verdict (v : Spd_validate.Verdict.t) =
  M.incr
    (M.get
       (match v with
       | Spd_validate.Verdict.Proved -> m_proved
       | Spd_validate.Verdict.Refuted _ -> m_refuted
       | Spd_validate.Verdict.Unknown _ -> m_unknown))

(** Force registration of the [spd.heuristic.*] and [spd.validate.*]
    counters and the stage histograms. *)
let register_metrics () =
  List.iter
    (fun h -> ignore (M.get h))
    ([ m_candidates; m_applied; m_proved; m_refuted; m_unknown ]
    @ List.map snd m_rejected);
  List.iter (fun (_, h) -> ignore (M.get h)) m_stage_seconds

(* the counter suffix for a rejection (metric names avoid ':') *)
let rejection_label : Heuristic.verdict -> string option =
  let module T = Spd_core.Transform in
  function
  | Heuristic.Applied -> None
  | Heuristic.Rejected_not_critical -> Some "not-critical"
  | Heuristic.Rejected_not_applicable T.Arc_not_ambiguous ->
      Some "not-applicable.arc-not-ambiguous"
  | Heuristic.Rejected_not_applicable T.Intervening_reference ->
      Some "not-applicable.intervening-reference"
  | Heuristic.Rejected_not_applicable T.Address_unavailable ->
      Some "not-applicable.address-unavailable"
  | Heuristic.Rejected_below_min_gain -> Some "below-min-gain"
  | Heuristic.Rejected_max_applications -> Some "max-applications"
  | Heuristic.Rejected_max_expansion -> Some "max-expansion"

let observe_decisions (ds : Heuristic.decision list) =
  M.incr ~by:(List.length ds) (M.get m_candidates);
  List.iter
    (fun (d : Heuristic.decision) ->
      M.incr
        (M.get
           (match rejection_label d.verdict with
           | None -> m_applied
           | Some r -> List.assoc r m_rejected)))
    ds

(** Profile a program: run it once with instrumentation. *)
let profile_of ?fuel ?deadline (prog : Prog.t) : Spd_sim.Profile.t =
  let profile = Spd_sim.Profile.create () in
  ignore (Spd_sim.Interp.run ~profile ?fuel ?deadline prog);
  profile

exception Behaviour_mismatch of string

(** Raised by a [config.validate] preparation when the symbolic
    equivalence checker refutes an SpD application; the payload names
    the application and renders the concrete counterexample. *)
exception Validation_failed of string

let () =
  Printexc.register_printer (function
    | Validation_failed msg -> Some ("Validation_failed: " ^ msg)
    | _ -> None)

(* The per-application transform checker installed when [config.check]
   holds: every accepted SpD application must leave a structurally valid
   tree that did not shrink (SpD only adds compensation code).  The
   whole-program equivalence check below catches semantic drift; this
   one pins the failure to the exact application. *)
let transform_checker ~func:_ ~(before : Spd_ir.Tree.t)
    (app : Heuristic.application) (after : Spd_ir.Tree.t) =
  Spd_ir.Tree.validate after;
  if Spd_ir.Tree.size after < Spd_ir.Tree.size before then
    raise
      (Behaviour_mismatch
         (Fmt.str "SpD application on tree %d arc #%d->#%d shrank the tree"
            app.tree_id (fst app.arc) (snd app.arc)))

(* what the interpreter executes: the program with its arcs dropped *)
let code_of (p : Prog.t) =
  Prog.map_trees (fun _ t -> { t with Tree.arcs = [] }) p

type run_identity =
  Prog.t * (string * int * Reg.t * Memdep.kind * (int * int)) list

(* Everything an instrumented run of [prog] watching [applications]
   reads, budgets aside: the code it executes and, per application, what
   [instrumented] hands the interpreter and copies into the dynamics.
   Two runs with equal identities are equal. *)
let run_identity (prog : Prog.t) (applications : Heuristic.application list)
    : run_identity =
  ( code_of prog,
    List.map
      (fun (a : Heuristic.application) ->
        (a.func, a.tree_id, a.predicate, a.kind, a.arc))
      applications )

(* a fresh instrumented run of [p]'s code, timed as [Simulate] *)
let fresh_run (p : prepared) : run =
  instrumented p.config Simulate ~applications:p.applications p.prog

(* [check], SPEC's run made by [run] *)
let check_with ~run ~naive ~(reference : unit -> reference) (p : prepared) :
    run option =
  match p.kind with
  | Naive | Static | Perfect ->
      if compare (code_of naive) (code_of p.prog) <> 0 then
        raise
          (Behaviour_mismatch
             (Fmt.str "pipeline %s changed code beyond its arcs"
                (name p.kind)));
      None
  | Spec ->
      let run = run p in
      let expected = (reference ()).run in
      if (expected.ret, expected.output) <> (run.ret, run.output) then
        raise
          (Behaviour_mismatch
             (Fmt.str "pipeline %s changed program behaviour" (name p.kind)));
      Some run

(** The equivalence check of [config.check]: NAIVE, STATIC and PERFECT
    must be [naive]'s code with arcs ignored; SPEC is run once,
    instrumented, and must behave like [reference ()]'s run, which it
    returns. *)
let check ~naive ~reference p = check_with ~run:fresh_run ~naive ~reference p

(** One exploration of an SpD application's proof obligation, timed as
    the [Validate] stage. *)
let explore ~func ~before app after =
  time Validate (fun () ->
      Spd_validate.Validate.check_application ~func ~before app after)

(** Build pipeline [kind] from a lowered program (no arcs yet) under
    [config] (default {!Config.default}).  [front] is the program's
    validated NAIVE front end, [reference] its NAIVE reference run,
    [run] SPEC's checking run and [validator] the per-application
    translation validation; without them the preparation makes its own
    when it needs one. *)
let prepare ?(config = Config.default) ?front:shared_front ?reference:shared
    ?(run = fresh_run) ?(validator = explore) (kind : kind) (lowered : Prog.t)
    : prepared =
  let { Config.check = checked; validate; spd_params; graft = _; mem_latency;
        fuel = _; deadline = _; checker_fault } =
    config
  in
  (* a shared front end was validated when it was made *)
  let naive, validated =
    match shared_front with
    | Some n -> (n, true)
    | None -> (naive ~config lowered, false)
  in
  (* the NAIVE reference run: made at most once, and only when read *)
  let made = ref None in
  let reference () =
    match !made with
    | Some r -> r
    | None ->
        let r =
          match shared with Some f -> f () | None -> reference ~config naive
        in
        made := Some r;
        r
  in
  let prog, applications, decisions, verdicts =
    match kind with
    | Naive -> (naive, [], [], [])
    | Static -> (time Spd (fun () -> Static.run naive), [], [], [])
    | Spec ->
        let static = time Spd (fun () -> Static.run naive) in
        (* STATIC only relabels NAIVE's arcs, so NAIVE's profile is
           STATIC's *)
        let profile = (reference ()).profile in
        (* The composed per-application checker: the armed checker fault
           (if any), the structural checks, then the symbolic
           equivalence proof.  [Heuristic.run] calls it sequentially
           within this preparation, so a plain accumulator is safe. *)
        let acc = ref [] in
        (* the validator's wall clock, which the Spd stage leaves out *)
        let validation = ref 0. in
        let fire_fault () =
          match checker_fault with Some f -> f () | None -> ()
        in
        let composed ~func ~before app after =
          fire_fault ();
          if checked then transform_checker ~func ~before app after;
          if validate then begin
            let t0 = Clock.now () in
            let r = validator ~func ~before app after in
            validation := !validation +. (Clock.now () -. t0);
            observe_verdict r.Spd_validate.Validate.verdict;
            (match r.Spd_validate.Validate.verdict with
            | Spd_validate.Verdict.Refuted cx ->
                raise
                  (Validation_failed
                     (Fmt.str
                        "SpD application on tree %d arc #%d->#%d refuted: \
                         %s (seed %d)"
                        app.Heuristic.tree_id
                        (fst app.Heuristic.arc)
                        (snd app.Heuristic.arc)
                        cx.Spd_validate.Verdict.detail
                        cx.Spd_validate.Verdict.seed))
            | Spd_validate.Verdict.Unknown reason ->
                Spd_telemetry.Log.warn "pipeline.validate.unknown"
                  [
                    ("func", Spd_telemetry.Json.String func);
                    ( "tree",
                      Spd_telemetry.Json.Int app.Heuristic.tree_id );
                    ( "reason",
                      Spd_telemetry.Json.String
                        (Spd_validate.Verdict.reason_text reason) );
                  ]
            | Spd_validate.Verdict.Proved -> ());
            acc := r :: !acc
          end
        in
        let checker =
          if checked || validate || checker_fault <> None then Some composed
          else None
        in
        let prog, apps, ds =
          time ~nested:validation Spd (fun () ->
              Heuristic.run ~profile ?checker ?params:spd_params ~mem_latency
                static)
        in
        observe_decisions ds;
        (prog, apps, ds, List.rev !acc)
    | Perfect ->
        let profile = (reference ()).profile in
        (time Spd (fun () -> Static.perfect ~profile naive), [], [], [])
  in
  if not (validated && prog == naive) then Prog.validate prog;
  let p =
    { kind; config; mem_latency; prog; applications; decisions; verdicts;
      run = None }
  in
  let run = if checked then check_with ~run ~naive ~reference p else None in
  (* NAIVE, STATIC and PERFECT execute NAIVE's code: its run is theirs *)
  let run =
    match (run, !made) with
    | None, Some r when kind <> Spec -> Some r.run
    | run, _ -> run
  in
  { p with run }

(** The instrumented run that prices [p]: the one its preparation made,
    or a fresh one. *)
let run (p : prepared) : run =
  match p.run with Some r -> r | None -> fresh_run p

(** [p]'s cycles on [width] functional units, from [r], a run of [p]'s
    code: schedule, then fold [r]'s histogram with the schedule. *)
let price (p : prepared) (r : run) ~(width : Spd_machine.Descr.width) : int =
  let descr = { Spd_machine.Descr.width; mem_latency = p.mem_latency } in
  let timing =
    time Schedule (fun () ->
        Spd_machine.Timing_builder.program descr p.prog)
  in
  Spd_telemetry.Trace.with_span ~name:"sim.price" (fun () ->
      Spd_sim.Histogram.price r.histogram timing)

(** Cycle count of a prepared program on [width] functional units. *)
let cycles (p : prepared) ~width : int = price p (run p) ~width

(** Static code size in operations (Figure 6-4's metric). *)
let code_size (p : prepared) : int = Prog.code_size p.prog

(** The paper's speedup metric: [cycles_base / cycles_x - 1]. *)
let speedup ~(base : int) ~(this : int) : float =
  (float_of_int base /. float_of_int this) -. 1.0