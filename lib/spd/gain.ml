(** The [Gain()] estimator of the guidance heuristic (paper section 5.3).

    The predicted gain of removing an ambiguous arc is the drop in the
    tree's expected execution time on the infinite machine, where the
    expectation runs over the tree's exits weighted by profiled path
    probabilities (uniform when no profile is available, e.g. on the first
    compile). *)

open Spd_ir
module Ddg = Spd_analysis.Ddg

let arc_eq (a : Memdep.t) (b : Memdep.t) =
  a.src = b.src && a.dst = b.dst && a.kind = b.kind

(* Expected traversal time of [g]'s tree from its ASAP issue times. *)
let priced ?profile ~func (g : Ddg.t) (issue : int array) : float =
  let tree = g.tree in
  let completion node = issue.(node) + Ddg.node_latency g node in
  let store_max = ref 0 in
  Array.iteri
    (fun pos (insn : Insn.t) ->
      if Insn.is_store insn then
        store_max := max !store_max (completion (Ddg.insn_node pos)))
    tree.insns;
  let prob k =
    match profile with
    | Some p -> Spd_sim.Profile.exit_probability p ~func ~tree k
    | None -> 1.0 /. float_of_int (Array.length tree.exits)
  in
  let acc = ref 0.0 in
  for k = 0 to g.n_exits - 1 do
    let c = completion (Ddg.exit_node g k) in
    acc := !acc +. (prob k *. float_of_int (max c !store_max))
  done;
  !acc

(** Expected traversal time of [tree] with the given arc filter.

    Matches the simulator's charge for a traversal taking exit [k]:
    [max(exit_k completion, committed store completions)].  The estimator
    conservatively assumes stores commit on every exit. *)
let expected_time ?profile ~mem_latency ~func ?(without : Memdep.t option)
    (tree : Tree.t) : float =
  let arc_active (a : Memdep.t) =
    Memdep.is_active a
    && match without with Some w -> not (arc_eq a w) | None -> true
  in
  let g = Ddg.build ~arc_active ~mem_latency tree in
  priced ?profile ~func g (Ddg.asap g)

(** One evaluated candidate: an ambiguous arc with the expected time
    of the tree with and without it, and the resulting predicted gain
    ([before -. after]). *)
type candidate = {
  arc : Memdep.t;
  before : float;
  after : float;
  gain : float;
}

(** Every ambiguous arc of [tree], evaluated, from one graph of [tree]:
    an arc with slack in its ASAP timing sets no issue time, so its
    [after] is [before] exactly; only binding arcs are re-priced.  The
    list is in [Tree.ambiguous_arcs] order (program order). *)
let candidates ?profile ~mem_latency ~func (tree : Tree.t) : candidate list =
  let g = Ddg.build ~mem_latency tree in
  let issue = Ddg.asap g in
  let before = priced ?profile ~func g issue in
  let pos_of_id = Array.make (Tree.max_insn_id tree + 1) (-1) in
  Array.iteri (fun pos (i : Insn.t) -> pos_of_id.(i.id) <- pos) tree.insns;
  List.map
    (fun (arc : Memdep.t) ->
      let src = Ddg.insn_node pos_of_id.(arc.src)
      and dst = Ddg.insn_node pos_of_id.(arc.dst) in
      if issue.(src) + Memdep.weight ~mem_latency arc < issue.(dst) then
        { arc; before; after = before; gain = 0.0 }
      else
        let after =
          expected_time ?profile ~mem_latency ~func ~without:arc tree
        in
        { arc; before; after; gain = before -. after })
    (Tree.ambiguous_arcs tree)
