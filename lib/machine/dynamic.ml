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

open Spd_ir

type tree_info = {
  tree : Tree.t;
  arcs : (Memdep.t * bool) array;  (** arc, in-window flag *)
  src_pos : int array;  (** per arc: position of the source insn *)
  dst_pos : int array;
  memo : (int, Spd_sim.Timing.tree_timing) Hashtbl.t;
}

type t = {
  window : int;
  width : Descr.width;
  mem_latency : int;
  infos : (string * int, tree_info) Hashtbl.t;
}

let build_info ~window (tree : Tree.t) : tree_info =
  (* ordinal of each memory operation, for window distance *)
  let ordinal = Hashtbl.create 8 in
  let n = ref 0 in
  Array.iteri
    (fun pos (insn : Insn.t) ->
      if Insn.is_mem insn then begin
        Hashtbl.replace ordinal pos !n;
        incr n
      end)
    tree.insns;
  let active = Tree.active_arcs tree in
  let arcs =
    Array.of_list
      (List.map
         (fun (arc : Memdep.t) ->
           let sp = Tree.insn_index tree arc.src
           and dp = Tree.insn_index tree arc.dst in
           let dist =
             Hashtbl.find ordinal dp - Hashtbl.find ordinal sp
           in
           (arc, dist <= window))
         active)
  in
  {
    tree;
    arcs;
    src_pos =
      Array.map (fun (a, _) -> Tree.insn_index tree a.Memdep.src) arcs;
    dst_pos =
      Array.map (fun (a, _) -> Tree.insn_index tree a.Memdep.dst) arcs;
    memo = Hashtbl.create 8;
  }

let create ?(window = 8) ~(width : Descr.width) ~mem_latency (prog : Prog.t)
    : t =
  let infos = Hashtbl.create 32 in
  Prog.iter_trees
    (fun func tree ->
      Hashtbl.replace infos (func, tree.id) (build_info ~window tree))
    prog;
  { window; width; mem_latency; infos }

(* Timing of a tree under a specific alias outcome: bit [i] of [mask] set
   means arc [i] is enforced this traversal. *)
let timing_for (t : t) (info : tree_info) (mask : int) :
    Spd_sim.Timing.tree_timing =
  match Hashtbl.find_opt info.memo mask with
  | Some tt -> tt
  | None ->
      let enforced = Hashtbl.create 8 in
      Array.iteri
        (fun i ((arc : Memdep.t), _) ->
          if mask land (1 lsl i) <> 0 then
            Hashtbl.replace enforced (arc.src, arc.dst, arc.kind) ())
        info.arcs;
      let arc_active (a : Memdep.t) =
        Memdep.is_active a && Hashtbl.mem enforced (a.src, a.dst, a.kind)
      in
      let tt =
        Timing_builder.tree_timing ~arc_active
          { Descr.width = t.width; mem_latency = t.mem_latency }
          info.tree
      in
      Hashtbl.replace info.memo mask tt;
      tt

(** The traversal-cost callback to pass to {!Spd_sim.Interp.run}. *)
let cost (t : t) : Spd_sim.Interp.traversal_cost =
 fun ~func ~tree ~addrs ~active ~taken ->
  let info =
    match Hashtbl.find_opt t.infos (func, tree.id) with
    | Some i -> i
    | None -> invalid_arg "Dynamic.cost: unknown tree"
  in
  if Array.length info.arcs > 60 then
    invalid_arg "Dynamic.cost: too many arcs for a bit mask";
  let mask = ref 0 in
  Array.iteri
    (fun i ((_ : Memdep.t), in_window) ->
      let sp = info.src_pos.(i) and dp = info.dst_pos.(i) in
      let relaxed =
        in_window
        && (not (active.(sp) && active.(dp)) || addrs.(sp) <> addrs.(dp))
      in
      if not relaxed then mask := !mask lor (1 lsl i))
    info.arcs;
  let tt = timing_for t info !mask in
  let cost = ref tt.exit_completion.(taken) in
  Array.iteri
    (fun pos (insn : Insn.t) ->
      if Insn.is_store insn && active.(pos) then
        cost := max !cost tt.insn_completion.(pos))
    tree.insns;
  !cost

(** Simulate [prog] on the dynamic-disambiguation machine and return the
    cycle count. *)
let cycles ?window ~width ~mem_latency (prog : Prog.t) : int =
  let t = create ?window ~width ~mem_latency prog in
  (Spd_sim.Interp.run ~traversal_cost:(cost t) prog).cycles
