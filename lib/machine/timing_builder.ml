(** Build a full program timing table for a machine description. *)

open Spd_ir
module Ddg = Spd_analysis.Ddg

(** Timing of one tree on [descr], constrained by the arcs for which
    [arc_active] holds (by default the active ones). *)
let tree_timing ?arc_active (descr : Descr.t) (tree : Tree.t) :
    Spd_sim.Timing.tree_timing =
  let g = Ddg.build ?arc_active ~mem_latency:descr.mem_latency tree in
  match descr.width with
  | Descr.Infinite ->
      let insn_completion, exit_completion = Ddg.asap_completion g in
      { Spd_sim.Timing.insn_completion; exit_completion }
  | Descr.Fus n -> Scheduler.timing g (Scheduler.run ~fus:n g)

(** Timing of every tree of the program. *)
let program (descr : Descr.t) (prog : Prog.t) : Spd_sim.Timing.t =
  let tbl = Spd_sim.Timing.create () in
  Prog.iter_trees
    (fun func tree ->
      Spd_sim.Timing.add tbl ~func ~tree_id:tree.id (tree_timing descr tree))
    prog;
  tbl

(* ------------------------------------------------------------------ *)
(* Schedule plans *)

(** The largest number of nodes that issue in one cycle. *)
let peak (issue : int array) : int =
  let per_cycle = Array.make (Array.fold_left max (-1) issue + 1) 0 in
  Array.fold_left
    (fun m c ->
      per_cycle.(c) <- per_cycle.(c) + 1;
      max m per_cycle.(c))
    0 issue

type tree_plan = {
  func : string;
  tree_id : int;
  graph : Ddg.t;
  asap : Spd_sim.Timing.tree_timing;
  peak : int;  (** of the ASAP schedule, exits included *)
}

type plan = tree_plan list

let plan ~mem_latency (prog : Prog.t) : plan =
  let trees = ref [] in
  Prog.iter_trees
    (fun func (tree : Tree.t) ->
      let graph = Ddg.build ~mem_latency tree in
      let issue = Ddg.asap graph in
      let insn_completion, exit_completion = Ddg.completion graph issue in
      trees :=
        { func; tree_id = tree.id; graph;
          asap = { Spd_sim.Timing.insn_completion; exit_completion };
          peak = peak issue }
        :: !trees)
    prog;
  !trees

(* At [n >= peak] units every cycle's ASAP nodes fit in its word, so
   the list scheduler issues each node at its ASAP cycle. *)
let timing (plan : plan) (width : Descr.width) : Spd_sim.Timing.t =
  let tbl = Spd_sim.Timing.create () in
  List.iter
    (fun t ->
      Spd_sim.Timing.add tbl ~func:t.func ~tree_id:t.tree_id
        (match width with
        | Descr.Fus n when n < t.peak ->
            Scheduler.timing t.graph (Scheduler.run ~fus:n t.graph)
        | Descr.Fus _ | Descr.Infinite -> t.asap))
    plan;
  tbl
