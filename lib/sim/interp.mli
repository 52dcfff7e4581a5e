(** Cycle-level simulator.

    The interpreter executes decision trees traversal by traversal with
    sequential (original program order) semantics: every instruction is
    evaluated, stores commit only when their guard holds, and the first
    exit whose guard holds is taken.  This is the ground-truth semantics
    against which all disambiguator pipelines are validated.

    Orthogonally, when a {!Timing} table is supplied (built from a machine
    schedule or from the infinite-machine ASAP analysis), each traversal is
    charged [max(taken-exit completion, committed store completions)]
    cycles, and the total is the program's execution time on that machine —
    the paper's measurement methodology.  The harness prices pipeline
    cycles from a {!Histogram} instead ({!Histogram.price}, per tree
    {!Histogram.breakdown}); the timed run is the reference the tests
    hold that pricing to, and the loop the throughput gate times.

    The interpreter also fills in a {!Profile}: exit frequencies and
    dynamic alias counts per memory dependence arc (the PERFECT
    disambiguator's input); and a {!Histogram} of paths, which prices
    the run on every machine without running it again. *)

(** {1 Structured errors}

    Every abnormal termination raises {!Sim_error} with a
    machine-readable kind plus the execution context — function, tree
    and faulting operation — so harness layers can render and classify
    failures without parsing message strings. *)

type error_kind =
  | Fuel_exhausted of int  (** the traversal budget that ran out *)
  | Deadline_exceeded of float  (** the wall-clock budget, seconds *)
  | Call_depth_exceeded of int
  | Stack_overflow
  | Store_out_of_bounds of int
  | Unknown_global of string
  | Unknown_function of string
  | No_such_tree of int
  | Globals_exceed_memory
  | Eval_error of string  (** a pure-evaluation fault, e.g. division by zero *)
  | Malformed of string
      (** an instruction or exit of a shape {!Spd_ir.Insn.make} and
          {!Spd_ir.Prog.validate} do not admit; {!run} compiles every
          tree before the first traversal, so it raises this before the
          program executes *)

type error_context = {
  in_func : string option;
  in_tree : int option;
  at_op : string option;
}

val no_context : error_context

exception Sim_error of error_kind * error_context

val pp_error_kind : Format.formatter -> error_kind -> unit
val pp_error : Format.formatter -> error_kind * error_context -> unit

(** The default traversal budget of {!run} when no [fuel] is given. *)
val default_fuel : int

type result = {
  ret : Spd_ir.Value.t;
  output : Spd_ir.Value.t list;
  cycles : int;
  traversals : int;
}
type finfo = {
  func : Spd_ir.Prog.func;
  by_id : Spd_ir.Tree.t option array;
  nregs : int;
}
type frame = {
  saved_regs : Spd_ir.Value.t array;
  saved_fp : int;
  saved_sp : int;
  saved_fi : finfo;
  ret_reg : Spd_ir.Reg.t option;
  resume : int;
}
val build_finfo : Spd_ir.Prog.func -> finfo

(** Lay out globals in low memory; returns the address map and the first
    free address.  Address 0 is reserved so that a stray null-ish pointer
    faults loudly in bounds checks of size-0 accesses. *)
val layout : Spd_ir.Prog.t -> (string -> int) * int

(** Per-traversal cost callback for dynamic timing models: receives the
    traversal's concrete memory addresses ([addrs], indexed by instruction
    position, [-1] for non-memory ops), which guarded operations committed
    ([active]) and the taken exit, and returns the traversal's cycles.
    Used by the hardware dynamic-disambiguation baseline, which resolves
    aliases with run-time address compares. *)
type traversal_cost =
    func:string ->
    tree:Spd_ir.Tree.t ->
    addrs:int array -> active:bool array -> taken:int -> int

(** [run prog] interprets [prog] to completion.

    [fuel] bounds the number of tree traversals (default
    {!default_fuel}); exhausting it raises [Sim_error (Fuel_exhausted
    fuel, _)].  [deadline] is a budget in seconds of elapsed time,
    read from the monotonic {!Spd_telemetry.Clock.now} every few
    thousand traversals; exceeding it raises
    [Sim_error (Deadline_exceeded d, _)].  An instruction or exit of a
    shape the interpreter does not execute raises
    [Sim_error (Malformed _, _)], naming its function and tree, before
    the first traversal.  [spd] registers watches on
    SpD-transformed regions; their alias/no-alias commit and squash
    counters are filled in as the program runs.

    [histogram] counts every traversal per (tree, taken exit, committed
    guarded stores); {!Histogram.price} turns the counts into this run's
    cycles on any machine without running it again. *)
val run :
  ?timing:Timing.t ->
  ?traversal_cost:traversal_cost ->
  ?profile:Profile.t ->
  ?spd:Profile.Spd.t ->
  ?histogram:Histogram.t ->
  ?mem_words:int ->
  ?fuel:int ->
  ?deadline:float -> Spd_ir.Prog.t -> result

(** Register the [spd.sim.*] counters ahead of their first use. *)
val register_metrics : unit -> unit

(** Run and return just the observable behaviour (return value and output),
    used for semantic-equivalence checks between pipelines. *)
val observe :
  ?mem_words:int ->
  ?fuel:int ->
  ?deadline:float ->
  Spd_ir.Prog.t -> Spd_ir.Value.t * Spd_ir.Value.t list
