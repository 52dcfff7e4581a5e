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

(* The expected traversal time of [g]'s tree as a function of its issue
   times.  The exit probabilities and the store nodes are looked up
   once, when the pricer is made. *)
let pricer ?profile ~func (g : Ddg.t) : int array -> float =
  let tree = g.tree in
  let stores = ref [] in
  Array.iteri
    (fun pos insn ->
      if Insn.is_store insn then stores := Ddg.insn_node pos :: !stores)
    tree.insns;
  let prob =
    Array.init g.n_exits (fun k ->
        match profile with
        | Some p -> Spd_sim.Profile.exit_probability p ~func ~tree k
        | None -> 1.0 /. float_of_int (Array.length tree.exits))
  in
  fun issue ->
    let completion node = issue.(node) + Ddg.node_latency g node in
    let store_max =
      List.fold_left (fun m node -> Int.max m (completion node)) 0 !stores
    in
    let acc = ref 0.0 in
    for k = 0 to g.n_exits - 1 do
      let c = completion (Ddg.exit_node g k) in
      acc := !acc +. (prob.(k) *. float_of_int (Int.max c store_max))
    done;
    !acc

(** Expected traversal time of [tree].

    Matches the simulator's charge for a traversal taking exit [k]:
    [max(exit_k completion, committed store completions)].  The estimator
    conservatively assumes stores commit on every exit. *)
let expected_time ?profile ~mem_latency ~func (tree : Tree.t) : float =
  let g = Ddg.build ~mem_latency tree in
  pricer ?profile ~func g (Ddg.asap g)

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
    [after] is [before] exactly; a binding arc is re-timed on the same
    graph with its edges masked.  The list is in [Tree.ambiguous_arcs]
    order (program order). *)
let candidates ?profile ~mem_latency ~func (tree : Tree.t) : candidate list =
  let g = Ddg.build ~mem_latency tree in
  let issue = Ddg.asap g in
  let price = pricer ?profile ~func g in
  let before = price issue in
  let retimer = Ddg.retimer g issue in
  let pos_of_id = Array.make (Tree.max_insn_id tree + 1) (-1) in
  Array.iteri (fun pos (i : Insn.t) -> pos_of_id.(i.id) <- pos) tree.insns;
  let unchanged arc = { arc; before; after = before; gain = 0.0 } in
  List.map
    (fun (arc : Memdep.t) ->
      let src = Ddg.insn_node pos_of_id.(arc.src)
      and dst = Ddg.insn_node pos_of_id.(arc.dst)
      and weight = Memdep.weight ~mem_latency arc in
      if issue.(src) + weight < issue.(dst) then unchanged arc
      else
        (* the graph holds one [(src, weight)] entry per active arc
           [arc_eq] to this one; a register-flow edge between the same
           nodes stays *)
        let count =
          List.fold_left
            (fun n a -> if Memdep.is_active a && arc_eq a arc then n + 1 else n)
            0 tree.arcs
        in
        match Ddg.retime_without retimer ~dst ~src ~weight ~count price with
        | None -> unchanged arc
        | Some after -> { arc; before; after; gain = before -. after })
    (Tree.ambiguous_arcs tree)
