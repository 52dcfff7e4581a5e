(** Schedule introspection and cycle attribution ([spd explain]).

    For one workload, reads the STATIC and SPEC preparations and SPEC's
    shared run from an engine session ({!Engine.Session.prepared},
    {!Pipeline.run}), schedules every SPEC tree on the requested
    machine, and renders cycle-by-FU occupancy grids, critical-path
    attributions ({!Spd_machine.Critpath}) and a program-wide
    per-region table whose cycles are SPEC's run priced per tree on the
    machine's timing table ({!Spd_sim.Histogram.breakdown}): they sum
    exactly to the cycles every report prices. *)

module Schedule = Spd_machine.Schedule
module Critpath = Spd_machine.Critpath

(** Schema identifier of the JSON document: ["spd-explain/1"]. *)
val schema : string

(** One scheduled-and-analyzed SPEC tree. *)
type tree_view = {
  func : string;
  tree : Spd_ir.Tree.t;
  schedule : Schedule.t;
  critpath : Critpath.t;
  static_span : int option;  (** same tree's makespan under STATIC *)
  static_ambig : int option;
      (** STATIC makespan cycles attributed to ambiguous arcs *)
  traversals : int;
  cycles : int;  (** the priced cycles of this tree's traversals *)
}

type t = {
  workload : string;
  width : int;
  mem_latency : int;
  total_cycles : int;
      (** the run's priced cycles: the [Cycles] cell of SPEC at this
          width and latency *)
  total_traversals : int;
  applications : Spd_core.Heuristic.application list;
  trees : tree_view list;  (** every tree of the program, in order *)
}

(** [analyze session workload] analyzes [workload] on a [width]-unit
    machine (default 5 FUs, 2-cycle memory).  The preparations and the
    run are the session's memoized ones, made under its budgets.
    Raises [Invalid_argument] for an unknown workload name and whatever
    a failed preparation raises ({!Engine.Session.prepared}). *)
val analyze :
  ?width:int -> ?mem_latency:int -> Engine.Session.t -> string -> t

(** The trees matching the [--fn] / [--tree] filters. *)
val selected : ?fn:string -> ?tree:int -> t -> tree_view list

(** The cycle-by-FU occupancy grid of one tree, SpD versions
    annotated. *)
val grid_table : t -> tree_view -> Table.t

(** The critical-path attribution of one tree; category totals sum to
    the makespan. *)
val critpath_table : tree_view -> Table.t

(** The program-wide per-region attribution; the cycles column sums
    exactly to [total_cycles]. *)
val regions_table : t -> Table.t

(** Every table of an explain run: per selected tree the occupancy grid
    and critical path, then the program-wide region attribution. *)
val tables : ?fn:string -> ?tree:int -> t -> Table.t list

(** The [spd-explain/1] JSON document. *)
val to_json : ?fn:string -> ?tree:int -> t -> Spd_telemetry.Json.t
