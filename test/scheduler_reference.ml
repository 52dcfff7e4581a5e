(** The historical list scheduler and list-based DDG build, kept as a
    differential oracle: the property tests and the fuzzer build and
    schedule every graph through both these and
    {!Spd_analysis.Ddg.build} / {!Spd_machine.Scheduler.run}, and require
    bit-identical results. *)

open Spd_ir
module Ddg = Spd_analysis.Ddg
module Scheduler = Spd_machine.Scheduler

(** The historical graph: per node, edge lists, newest edge first, and
    the memory arcs in a table keyed by node pair. *)
type graph = {
  n_insns : int;
  n_exits : int;
  preds : (int * int) list array;  (** per node: (predecessor, weight) *)
  succs : (int * int) list array;  (** per node: (successor, weight) *)
  mem_edges : (int * int, Memdep.t) Hashtbl.t;
      (** the last arc added between a pair, [Hashtbl.replace]d *)
  node_lat : int array;
}

let n_nodes g = g.n_insns + g.n_exits

(** The historical all-pairs DDG build: def sites in a hashtable,
    memory-arc endpoints through {!Spd_ir.Tree.insn_index}'s linear
    scan, edges consed onto per-node lists in insertion order. *)
let build_ddg ?(arc_active = Memdep.is_active) ~mem_latency
    (tree : Tree.t) : graph =
  let n_insns = Array.length tree.insns in
  let n_exits = Array.length tree.exits in
  let n = n_insns + n_exits in
  let node_lat =
    Array.init n (fun node ->
        if node < n_insns then
          Opcode.latency ~mem_latency tree.insns.(node).Insn.op
        else Opcode.branch_latency)
  in
  let g =
    {
      n_insns;
      n_exits;
      preds = Array.make n [];
      succs = Array.make n [];
      mem_edges = Hashtbl.create 8;
      node_lat;
    }
  in
  let add_edge src dst w =
    g.preds.(dst) <- (src, w) :: g.preds.(dst);
    g.succs.(src) <- (dst, w) :: g.succs.(src)
  in
  let def_pos = Hashtbl.create 16 in
  Array.iteri
    (fun pos (insn : Insn.t) ->
      List.iter (fun d -> Hashtbl.replace def_pos d pos) (Insn.defs insn))
    tree.insns;
  let flow_into node uses =
    List.iter
      (fun r ->
        match Hashtbl.find_opt def_pos r with
        | Some p ->
            let w = Opcode.latency ~mem_latency tree.insns.(p).Insn.op in
            add_edge p node w
        | None -> ())
      uses
  in
  Array.iteri
    (fun pos insn -> flow_into pos (Insn.uses insn))
    tree.insns;
  Array.iteri
    (fun k e -> flow_into (n_insns + k) (Tree.exit_uses e))
    tree.exits;
  List.iter
    (fun (arc : Memdep.t) ->
      if arc_active arc then begin
        let si = Tree.insn_index tree arc.src
        and di = Tree.insn_index tree arc.dst in
        add_edge si di (Memdep.weight ~mem_latency arc);
        Hashtbl.replace g.mem_edges (si, di) arc
      end)
    tree.arcs;
  for k = 1 to n_exits - 1 do
    add_edge (n_insns + k - 1) (n_insns + k) 0
  done;
  g

(** ASAP issue times over the lists. *)
let asap g =
  let issue = Array.make (n_nodes g) 0 in
  for node = 0 to n_nodes g - 1 do
    List.iter
      (fun (p, w) -> issue.(node) <- max issue.(node) (issue.(p) + w))
      g.preds.(node)
  done;
  issue

(** Longest path to the end of the tree, over the lists. *)
let height g =
  let h = Array.make (n_nodes g) 0 in
  for node = n_nodes g - 1 downto 0 do
    h.(node) <- g.node_lat.(node);
    List.iter
      (fun (s, w) -> h.(node) <- max h.(node) (w + h.(s)))
      g.succs.(node)
  done;
  h

(** [None] when [g] holds exactly [r]'s graph: per node the same latency
    and the same predecessor and successor sequences, order included,
    and, on every pair an edge joins, {!Spd_analysis.Ddg.mem_arc} the
    arc [r]'s table keeps; otherwise what differs first. *)
let diff (g : Ddg.t) (r : graph) : string option =
  let slice fold node = List.rev (fold g node (fun v w l -> (v, w) :: l) []) in
  let pp_edges = Fmt.(list ~sep:sp (pair ~sep:comma int int)) in
  let rec node v =
    if v = n_nodes r then None
    else if g.Ddg.node_lat.(v) <> r.node_lat.(v) then
      Some (Fmt.str "node %d: latency %d, reference %d" v g.Ddg.node_lat.(v)
              r.node_lat.(v))
    else
      let preds = slice Ddg.fold_preds v and succs = slice Ddg.fold_succs v in
      if preds <> r.preds.(v) then
        Some (Fmt.str "node %d: preds [%a], reference [%a]" v pp_edges preds
                pp_edges r.preds.(v))
      else if succs <> r.succs.(v) then
        Some (Fmt.str "node %d: succs [%a], reference [%a]" v pp_edges succs
                pp_edges r.succs.(v))
      else
        match
          List.find_opt
            (fun (dst, _) ->
              compare (Ddg.mem_arc g ~src:v ~dst)
                (Hashtbl.find_opt r.mem_edges (v, dst))
              <> 0)
            succs
        with
        | Some (dst, _) -> Some (Fmt.str "mem_arc %d -> %d differs" v dst)
        | None -> node (v + 1)
  in
  if (g.Ddg.n_insns, g.Ddg.n_exits) <> (r.n_insns, r.n_exits) then
    Some "node counts differ"
  else node 0

(** The historical scheduler: every cycle re-scans all nodes for the
    ready set and sorts it (stable, so ties keep node order).  Does not
    touch the telemetry counters — it exists only to be diffed
    against. *)
let run ?fus (g : graph) : Scheduler.t =
  let n = n_nodes g in
  let issue = Array.make n (-1) in
  let fu = Array.make n 0 in
  (match fus with
  | None ->
      let asap = asap g in
      Array.blit asap 0 issue 0 n;
      let per_cycle = Hashtbl.create 16 in
      for node = 0 to n - 1 do
        let k =
          try Hashtbl.find per_cycle issue.(node) with Not_found -> 0
        in
        fu.(node) <- k;
        Hashtbl.replace per_cycle issue.(node) (k + 1)
      done
  | Some fus ->
      if fus <= 0 then
        invalid_arg "Scheduler_reference.run: fus must be positive";
      let height = height g in
      let n_preds_left = Array.make n 0 in
      for node = 0 to n - 1 do
        n_preds_left.(node) <- List.length g.preds.(node)
      done;
      let ready_at = Array.make n 0 in
      let remaining = ref n in
      let cycle = ref 0 in
      while !remaining > 0 do
        let slots = ref fus in
        let progress = ref true in
        while !slots > 0 && !progress do
          let ready =
            List.init n Fun.id
            |> List.filter (fun node ->
                   issue.(node) < 0
                   && n_preds_left.(node) = 0
                   && ready_at.(node) <= !cycle)
            |> List.sort (fun a b -> compare height.(b) height.(a))
          in
          progress := false;
          List.iter
            (fun node ->
              if !slots > 0 then begin
                fu.(node) <- fus - !slots;
                decr slots;
                progress := true;
                issue.(node) <- !cycle;
                decr remaining;
                List.iter
                  (fun (s, w) ->
                    n_preds_left.(s) <- n_preds_left.(s) - 1;
                    ready_at.(s) <- max ready_at.(s) (!cycle + w))
                  g.succs.(node)
              end)
            ready
        done;
        incr cycle
      done);
  let length = Array.fold_left max (-1) issue + 1 in
  { Scheduler.issue; fu; length }
