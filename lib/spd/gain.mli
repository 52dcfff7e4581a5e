(** The [Gain()] estimator of the guidance heuristic (paper section 5.3).

    The predicted gain of removing an ambiguous arc is the drop in the
    tree's expected execution time on the infinite machine, where the
    expectation runs over the tree's exits weighted by profiled path
    probabilities (uniform when no profile is available, e.g. on the first
    compile). *)

val arc_eq : Spd_ir.Memdep.t -> Spd_ir.Memdep.t -> bool

(** Expected traversal time of [tree] with the given arc filter.

    Matches the simulator's charge for a traversal taking exit [k]:
    [max(exit_k completion, committed store completions)].  The estimator
    conservatively assumes stores commit on every exit. *)
val expected_time :
  ?profile:Spd_sim.Profile.t ->
  mem_latency:int ->
  func:string -> ?without:Spd_ir.Memdep.t -> Spd_ir.Tree.t -> float

(** One evaluated candidate: an ambiguous arc with the expected time
    of the tree with and without it, and the resulting predicted gain
    ([before -. after]). *)
type candidate = {
  arc : Spd_ir.Memdep.t;
  before : float;
  after : float;
  gain : float;
}

(** Every ambiguous arc of [tree], evaluated — the decision ledger's
    raw material.  One dependence graph of [tree] is built and timed
    per call, and [before] is priced from it.  An arc with slack in
    that timing ([issue src + weight < issue dst]) sets no node's issue
    time, so dropping it changes none: its [after] is [before] and its
    [gain] is [0.0], exactly.  Only the arcs that bind their target are
    re-priced, by {!expected_time} [~without:arc].  Every number is
    bit-identical to pricing each arc with a rebuild of its own.  The
    list is in [Tree.ambiguous_arcs] order (program order), which keeps
    everything derived from it deterministic. *)
val candidates :
  ?profile:Spd_sim.Profile.t ->
  mem_latency:int -> func:string -> Spd_ir.Tree.t -> candidate list
