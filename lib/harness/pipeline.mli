(** The four disambiguation pipelines of Table 6-4.

    {v
    source --lower--> trees --all-pairs arcs-->            NAIVE
    NAIVE  --GCD/Banerjee (affine forms)-->                STATIC
    STATIC --profiled path probabilities--SpD heuristic--> SPEC
    NAIVE  --profiled alias counts, drop superfluous-->    PERFECT
    v}

    Every prepared program is checked against the NAIVE baseline: NAIVE,
    STATIC and PERFECT only relabel arcs, so their code must be NAIVE's
    with arcs ignored; one instrumented run of SPEC must reproduce
    NAIVE's observable behaviour (return value and printed output).

    Cycles are priced from one instrumented run per program: its path
    histogram folded with each width's schedule
    ({!Spd_sim.Histogram.price}).  NAIVE, STATIC and PERFECT share NAIVE's
    run, which is also the profile SPEC and PERFECT are built from. *)

module Memarcs = Spd_analysis.Memarcs
module Static = Spd_disambig.Static_disambig
module Heuristic = Spd_core.Heuristic
type kind = Naive | Static | Spec | Perfect
val all : kind list
val name : kind -> string
val pp : Format.formatter -> kind -> unit

(** {1 Stages}

    The instrumented stages of a pipeline run, in execution order:
    lowering ({!lower}, which the engine calls before {!prepare}),
    profiling, the disambiguation transforms (static tests + SpD), the
    translation validation of each SpD application ({!explore}),
    scheduling and timed simulation.  Every run of a stage, in an
    engine session or not, is observed once in the process-wide
    histogram [spd.engine.stage_seconds.<name>]; every stage but
    lowering is also a [stage:<name>] trace span.  Validation runs
    inside the SpD heuristic: its span nests in [stage:spd], and the
    [Spd] observation leaves the validator's time out, so the stage
    rows are disjoint. *)

type stage = Lower | Profile | Spd | Validate | Schedule | Simulate
val stage_name : stage -> string

(** Cumulative wall clock per stage in this process, across all
    domains: the sums of the stage histograms. *)
val stage_seconds : unit -> (stage * float) list

(** Compile a source program to IR, observed as the [Lower] stage.
    Raises the front end's errors. *)
val lower : string -> Spd_ir.Prog.t

(** {1 Configuration}

    All knobs of [prepare], collapsed into one record so call sites name
    only what they change and the engine can fingerprint a configuration
    for its content-addressed result cache. *)

module Config : sig
  type t = {
    check : bool;  (** verify observable equivalence with NAIVE *)
    validate : bool;
        (** translation-validate every SpD application symbolically
            ({!prepare}'s [validator]): a [Refuted]
            verdict raises {!Validation_failed}, an [Unknown] verdict is
            counted and logged, and the prepared record carries the full
            verdict ledger *)
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

  (** [check = true], no validation, no parameter overrides, no
      grafting, 2-cycle memory, no budgets, no checker fault. *)
  val default : t

  (** Build a configuration naming only the fields that differ from
      {!default}. *)
  val v :
    ?check:bool ->
    ?validate:bool ->
    ?spd_params:Heuristic.params ->
    ?graft:bool ->
    ?fuel:int ->
    ?deadline:float ->
    ?checker_fault:(unit -> unit) ->
    ?mem_latency:int ->
    unit -> t

  (** Canonical encoding of the semantic fields (everything except
      [checker_fault], [fuel] and [deadline] — budgets can only
      turn a result into a failure, never change a successfully computed
      value); [validate] is likewise excluded, since validation never
      changes the prepared program.  Two configurations with equal
      fingerprints prepare identical programs.  Used by {!Engine}'s
      on-disk cache keys. *)
  val fingerprint : t -> string
end

(** {1 Instrumented runs} *)

type region_dynamics = {
  func : string;
  tree_id : int;
  dep_kind : Spd_ir.Memdep.kind;
  arc : int * int;
  alias_commits : int;
  noalias_commits : int;
}

(** How the SpD applications behaved at run time: per application, how
    often the alias version vs. the speculative no-alias version
    committed, and how many guarded operations were squashed. *)
type dynamics = {
  regions : region_dynamics list;
      (** one row per SpD application, sorted (func, tree, arc) *)
  squashed : int;  (** guarded stores squashed across all watched trees *)
}

(** One instrumented interpreter run: everything the harness reads off a
    program's execution. *)
type run = {
  ret : Spd_ir.Value.t;
  output : Spd_ir.Value.t list;
  traversals : int;
  histogram : Spd_sim.Histogram.t;
      (** path counts: the run's cycles on any machine *)
  dynamics : dynamics;  (** watched SpD applications; empty without *)
}

(** The NAIVE program's run, with the profile (exit and alias counts)
    the SPEC heuristic and the PERFECT disambiguator read. *)
type reference = { run : run; profile : Spd_sim.Profile.t }

(** The NAIVE program of a lowered one: forwarding, optional grafting
    ([config.graft]), then all-pairs memory arcs. *)
val naive : ?config:Config.t -> Spd_ir.Prog.t -> Spd_ir.Prog.t

(** The front end of {!prepare}: {!naive}, then {!Spd_ir.Prog.validate},
    under a [harness.front] trace span.  Raises {!Spd_ir.Prog.Invalid}. *)
val front : ?config:Config.t -> Spd_ir.Prog.t -> Spd_ir.Prog.t

(** Run a NAIVE program once, instrumented and profiled (the [Profile]
    stage). *)
val reference : ?config:Config.t -> Spd_ir.Prog.t -> reference

type prepared = {
  kind : kind;
  config : Config.t;
  mem_latency : int;
  prog : Spd_ir.Prog.t;
  applications : Heuristic.application list;
  decisions : Heuristic.decision list;
      (** the heuristic's full decision ledger (SPEC only) *)
  verdicts : Spd_validate.Validate.report list;
      (** per-application translation-validation ledger, in application
          order (SPEC with [config.validate] only) *)
  run : run option;
      (** the run the preparation made of this code, if any: SPEC's
          checking run, or for NAIVE, STATIC and PERFECT the NAIVE
          reference run when the preparation read it *)
}

(** Force registration of the [spd.heuristic.{candidates,applied,
    rejected.<reason>}] and [spd.validate.{proved,refuted,unknown}]
    counters and the [spd.engine.stage_seconds.<stage>] histograms, so a
    metrics snapshot carries them before any pipeline fires them
    ([spd serve] calls this at startup). *)
val register_metrics : unit -> unit

(** Profile a program: run it once with instrumentation. *)
val profile_of :
  ?fuel:int -> ?deadline:float -> Spd_ir.Prog.t -> Spd_sim.Profile.t

exception Behaviour_mismatch of string

(** Raised by a [config.validate] preparation when the symbolic
    equivalence checker refutes an SpD application; the payload names
    the application and renders the concrete counterexample.  Like any
    checker exception, it propagates out of {!prepare} and the engine's
    protected cell runner contains it to the affected grid cell. *)
exception Validation_failed of string

(** What an instrumented run of a program is a function of, budgets
    aside: its code with arcs dropped, and per watched SpD application
    the function, tree, predicate register, dependence kind and arc.
    Runs with structurally equal identities are equal — same return
    value, output, traversals, histogram and dynamics — whatever the
    memory latency they were prepared for. *)
type run_identity

(** [run_identity prog applications] is the identity of a run of
    [prog] watching [applications]. *)
val run_identity :
  Spd_ir.Prog.t -> Heuristic.application list -> run_identity

(** The whole-program check {!prepare} applies under [config.check]:
    NAIVE, STATIC and PERFECT must equal [naive] with arcs ignored; SPEC
    is run once, instrumented (the [Simulate] stage), and its return
    value and output must equal the reference run's.  Returns SPEC's
    run.  Raises {!Behaviour_mismatch}. *)
val check :
  naive:Spd_ir.Prog.t -> reference:(unit -> reference) -> prepared -> run option

(** One exploration of an SpD application's proof obligation:
    {!Spd_validate.Validate.check_application}, timed as the [Validate]
    stage. *)
val explore :
  func:string ->
  before:Spd_ir.Tree.t ->
  Heuristic.application ->
  Spd_ir.Tree.t ->
  Spd_validate.Validate.report

(** Build pipeline [kind] from a lowered program (no arcs yet) under
    [config] (default {!Config.default}).  [config.check] runs {!check}
    — the paper validated SpD output the same way — and every accepted
    SpD application through the per-application transform checker.
    Callers that prepare one program many times share the work:
    [front] is {!front} of the same program and configuration
    (default: {!naive}, made here), [reference] its NAIVE reference run
    (default: made when first needed, by SPEC and PERFECT), [run]
    makes the run SPEC's check reads (default: a fresh one, the
    [Simulate] stage), and [validator] gives the ledger row of each SpD
    application under [config.validate] (default: {!explore}, one
    exploration per application). *)
val prepare :
  ?config:Config.t ->
  ?front:Spd_ir.Prog.t ->
  ?reference:(unit -> reference) ->
  ?run:(prepared -> run) ->
  ?validator:
    (func:string ->
    before:Spd_ir.Tree.t ->
    Heuristic.application ->
    Spd_ir.Tree.t ->
    Spd_validate.Validate.report) ->
  kind -> Spd_ir.Prog.t -> prepared

(** The instrumented run that prices a prepared program: the one its
    preparation made, or a fresh one (the [Simulate] stage). *)
val run : prepared -> run

(** [price p r ~width] schedules [p] on [width] functional units and
    folds the histogram of [r] — a run of [p]'s code — with the
    schedule (a [sim.price] trace span): exactly the cycles
    [Spd_sim.Interp.run ~timing] charges. *)
val price : prepared -> run -> width:Spd_machine.Descr.width -> int

(** Cycle count of a prepared program on [width] functional units:
    {!price} over {!run}. *)
val cycles : prepared -> width:Spd_machine.Descr.width -> int

(** Static code size in operations (Figure 6-4's metric). *)
val code_size : prepared -> int

(** The paper's speedup metric: [cycles_base / cycles_x - 1]. *)
val speedup : base:int -> this:int -> float