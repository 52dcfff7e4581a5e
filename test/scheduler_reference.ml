(** The pre-heap list scheduler and pre-indexed DDG build, kept as a
    differential oracle: the property tests and the fuzzer schedule
    every graph through both these and {!Spd_machine.Scheduler.run} /
    {!Spd_analysis.Ddg.build}, and require bit-identical results. *)

open Spd_ir
module Ddg = Spd_analysis.Ddg
module Scheduler = Spd_machine.Scheduler

(** The historical all-pairs DDG build: def sites in a hashtable,
    memory-arc endpoints through {!Spd_ir.Tree.insn_index}'s linear
    scan.  Same edge multiset (and, by construction, the same edge
    insertion order) as {!Spd_analysis.Ddg.build}. *)
let build_ddg ?(arc_active = Memdep.is_active) ~mem_latency
    (tree : Tree.t) : Ddg.t =
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
      Ddg.tree;
      mem_latency;
      n_insns;
      n_exits;
      preds = Array.make n [];
      succs = Array.make n [];
      mem_edges = Hashtbl.create 8;
      node_lat;
    }
  in
  let add_edge src dst w =
    g.Ddg.preds.(dst) <- (src, w) :: g.Ddg.preds.(dst);
    g.Ddg.succs.(src) <- (dst, w) :: g.Ddg.succs.(src)
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
            add_edge (Ddg.insn_node p) node w
        | None -> ())
      uses
  in
  Array.iteri
    (fun pos insn -> flow_into (Ddg.insn_node pos) (Insn.uses insn))
    tree.insns;
  Array.iteri
    (fun k e -> flow_into (Ddg.exit_node g k) (Tree.exit_uses e))
    tree.exits;
  List.iter
    (fun (arc : Memdep.t) ->
      if arc_active arc then begin
        let si = Tree.insn_index tree arc.src
        and di = Tree.insn_index tree arc.dst in
        add_edge (Ddg.insn_node si) (Ddg.insn_node di)
          (Memdep.weight ~mem_latency arc);
        Hashtbl.replace g.Ddg.mem_edges
          (Ddg.insn_node si, Ddg.insn_node di)
          arc
      end)
    tree.arcs;
  for k = 1 to n_exits - 1 do
    add_edge (Ddg.exit_node g (k - 1)) (Ddg.exit_node g k) 0
  done;
  g

(** The historical scheduler: every cycle re-scans all nodes for the
    ready set and sorts it (stable, so ties keep node order).  Does not
    touch the telemetry counters — it exists only to be diffed
    against. *)
let run ?fus (g : Ddg.t) : Scheduler.t =
  let n = Ddg.n_nodes g in
  let issue = Array.make n (-1) in
  let fu = Array.make n 0 in
  (match fus with
  | None ->
      let asap = Ddg.asap g in
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
      let height = Ddg.height g in
      let n_preds_left = Array.make n 0 in
      for node = 0 to n - 1 do
        n_preds_left.(node) <- List.length g.Ddg.preds.(node)
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
                  g.Ddg.succs.(node)
              end)
            ready
        done;
        incr cycle
      done);
  let length = Array.fold_left max (-1) issue + 1 in
  { Scheduler.issue; fu; length }
