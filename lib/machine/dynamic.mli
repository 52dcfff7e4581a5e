(** Hardware dynamic disambiguation baseline (paper section 2.3).

    Models a processor in the style of the Motorola 88110: the load/store
    unit may reorder memory references whose addresses it can compare at
    run time, but only within a small window.  A memory dependence arc is
    relaxed for a traversal when

    - both references fall within [window] memory operations of each
      other (the hardware's reordering scope), and
    - their dynamic addresses differ this traversal (or one of them did
      not commit).

    Arcs outside the window, and genuinely aliasing pairs, constrain the
    schedule exactly as in the static machine.  The per-traversal cost is
    computed from an ASAP/list schedule for the traversal's alias outcome,
    memoized by outcome bit-mask — outcomes repeat heavily, so almost
    every traversal is a table lookup.

    This is the "more hardware" alternative the paper contrasts SpD
    against: its scope is the window, while SpD's scope is the whole
    decision tree. *)

type tree_info = {
  tree : Spd_ir.Tree.t;
  arcs : (Spd_ir.Memdep.t * bool) array;
  src_pos : int array;
  dst_pos : int array;
  memo : (int, Spd_sim.Timing.tree_timing) Hashtbl.t;
}
type t = {
  window : int;
  width : Descr.width;
  mem_latency : int;
  infos : (string * int, tree_info) Hashtbl.t;
}
val build_info : window:int -> Spd_ir.Tree.t -> tree_info
val create :
  ?window:int ->
  width:Descr.width -> mem_latency:int -> Spd_ir.Prog.t -> t
val timing_for : t -> tree_info -> int -> Spd_sim.Timing.tree_timing

(** The traversal-cost callback to pass to {!Spd_sim.Interp.run}. *)
val cost : t -> Spd_sim.Interp.traversal_cost

(** Simulate [prog] on the dynamic-disambiguation machine and return the
    cycle count. *)
val cycles :
  ?window:int ->
  width:Descr.width -> mem_latency:int -> Spd_ir.Prog.t -> int
