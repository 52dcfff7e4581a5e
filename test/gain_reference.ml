(** Reference [Gain()] pricing for the oracles: every ambiguous arc
    priced by rebuilding the tree's whole dependence graph without it,
    and [before] by a build of its own — the direct reading of the
    paper's estimator that {!Spd_core.Gain.candidates} must reproduce
    bit for bit. *)

open Spd_ir
module Ddg = Spd_analysis.Ddg
module Gain = Spd_core.Gain

let expected_time ?profile ~mem_latency ~func ?(without : Memdep.t option)
    (tree : Tree.t) : float =
  let arc_active (a : Memdep.t) =
    Memdep.is_active a
    && match without with Some w -> not (Gain.arc_eq a w) | None -> true
  in
  let g = Ddg.build ~arc_active ~mem_latency tree in
  let insn_completion, exit_completion = Ddg.asap_completion g in
  let store_max = ref 0 in
  Array.iteri
    (fun pos (insn : Insn.t) ->
      if Insn.is_store insn then
        store_max := max !store_max insn_completion.(pos))
    tree.insns;
  let prob k =
    match profile with
    | Some p -> Spd_sim.Profile.exit_probability p ~func ~tree k
    | None -> 1.0 /. float_of_int (Array.length tree.exits)
  in
  let acc = ref 0.0 in
  Array.iteri
    (fun k c -> acc := !acc +. (prob k *. float_of_int (max c !store_max)))
    exit_completion;
  !acc

(** The reference candidate of [arc] in [tree]. *)
let candidate ?profile ~mem_latency ~func (tree : Tree.t) (arc : Memdep.t) :
    Gain.candidate =
  let before = expected_time ?profile ~mem_latency ~func tree in
  let after = expected_time ?profile ~mem_latency ~func ~without:arc tree in
  { arc; before; after; gain = before -. after }

(** Every ambiguous arc of [tree], in [Tree.ambiguous_arcs] order. *)
let candidates ?profile ~mem_latency ~func (tree : Tree.t) :
    Gain.candidate list =
  let before = expected_time ?profile ~mem_latency ~func tree in
  List.map
    (fun arc ->
      let after = expected_time ?profile ~mem_latency ~func ~without:arc tree in
      { Gain.arc; before; after; gain = before -. after })
    (Tree.ambiguous_arcs tree)

(** Bit-for-bit float equality: [0.0] and [-0.0] differ, and so would
    two NaNs with different payloads. *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(** [None] when [got] carries exactly [expected]'s numbers for the same
    arcs in the same order, else the first difference. *)
let diff ~(expected : Gain.candidate list) (got : Gain.candidate list) :
    string option =
  let same (e : Gain.candidate) (g : Gain.candidate) =
    Gain.arc_eq e.arc g.arc
    && same_bits e.before g.before
    && same_bits e.after g.after
    && same_bits e.gain g.gain
  in
  let show (c : Gain.candidate) =
    Fmt.str "%d->%d %a before %h after %h gain %h" c.arc.src c.arc.dst
      Memdep.pp_kind c.arc.kind c.before c.after c.gain
  in
  let rec go i es gs =
    match (es, gs) with
    | [], [] -> None
    | e :: es, g :: gs ->
        if same e g then go (i + 1) es gs
        else
          Some
            (Printf.sprintf "candidate %d: expected %s, got %s" i (show e)
               (show g))
    | _ ->
        Some
          (Printf.sprintf "%d candidates expected, %d got"
             (List.length expected) (List.length got))
  in
  go 0 expected got
