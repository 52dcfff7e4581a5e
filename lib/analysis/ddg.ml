(** Data dependence graph of a decision tree, and the infinite-machine
    (ASAP) timing derived from it.

    Nodes are the tree's instructions plus its exit branches.  Edges:

    - register flow: producer -> consumer, weighted by the producer's
      latency (guard registers are consumers like any other source);
    - active memory dependence arcs, weighted per {!Spd_ir.Memdep.weight}
      (a RAW arc costs a full memory latency — removing it is where SpD's
      win comes from);
    - the exit priority chain: a branch may not resolve before the
      branches of higher priority (weight 0: same-cycle issue is fine, the
      machine evaluates exit guards in priority order).

    With unlimited functional units the earliest issue time of every node
    is the longest-path distance from the tree's entry; this is the
    paper's "cycle-level infinite machine simulator" timing. *)

open Spd_ir

type t = {
  tree : Tree.t;
  mem_latency : int;
  n_insns : int;
  n_exits : int;
  preds : (int * int) list array;
      (** per node: (predecessor node, edge weight) *)
  succs : (int * int) list array;
  mem_edges : (int * int, Memdep.t) Hashtbl.t;
      (** the memory dependence arcs that constrain this graph, keyed by
          (src node, dst node) — lets consumers tell a memory edge apart
          from a register-flow edge with the same endpoints *)
  node_lat : int array;
      (** per-node latency, filled once at build time so the hot
          scheduling and critical-path loops never re-derive it from the
          opcode *)
}

let n_nodes g = g.n_insns + g.n_exits

let insn_node pos = pos
let exit_node g k = g.n_insns + k

(** Build the dependence graph.  Only arcs for which [arc_active] holds
    constrain the graph; by default that is {!Spd_ir.Memdep.is_active}.

    The build is a constant number of linear passes: node latencies are
    computed once into [node_lat]; register def sites live in an array
    indexed by register number (trees are single-assignment, so one slot
    per register suffices); memory arcs resolve their endpoints through
    an id→position array instead of scanning the instruction vector per
    arc.  Edge insertion order is identical to the historical all-pairs
    build, so [preds]/[succs] lists — and every schedule derived from
    them — are bit-identical to that build, which the tests keep as
    their reference ([test/scheduler_reference.ml]). *)
let build ?(arc_active = Memdep.is_active) ~mem_latency (tree : Tree.t) : t =
  let n_insns = Array.length tree.insns in
  let n_exits = Array.length tree.exits in
  let n = n_insns + n_exits in
  let node_lat = Array.make n Opcode.branch_latency in
  for pos = 0 to n_insns - 1 do
    node_lat.(pos) <- Opcode.latency ~mem_latency tree.insns.(pos).Insn.op
  done;
  let g =
    {
      tree;
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
    g.preds.(dst) <- (src, w) :: g.preds.(dst);
    g.succs.(src) <- (dst, w) :: g.succs.(src)
  in
  (* register flow: def sites indexed by register number.  Registers
     defined by no instruction (tree parameters) keep -1 and contribute
     no edge — they are available at cycle 0. *)
  let max_reg = ref (-1) in
  let note r = if r > !max_reg then max_reg := r in
  Array.iter
    (fun (insn : Insn.t) ->
      List.iter note (Insn.defs insn);
      List.iter note (Insn.uses insn))
    tree.insns;
  Array.iter (fun e -> List.iter note (Tree.exit_uses e)) tree.exits;
  let def_pos = Array.make (!max_reg + 1) (-1) in
  Array.iteri
    (fun pos (insn : Insn.t) ->
      List.iter (fun d -> def_pos.(d) <- pos) (Insn.defs insn))
    tree.insns;
  let flow_into node uses =
    List.iter
      (fun r ->
        let p = def_pos.(r) in
        if p >= 0 then add_edge (insn_node p) node node_lat.(p))
      uses
  in
  Array.iteri
    (fun pos insn -> flow_into (insn_node pos) (Insn.uses insn))
    tree.insns;
  Array.iteri
    (fun k e -> flow_into (exit_node g k) (Tree.exit_uses e))
    tree.exits;
  (* memory dependence arcs, endpoints via the id→position index *)
  let pos_of_id = Array.make (Tree.max_insn_id tree + 1) (-1) in
  Array.iteri
    (fun pos (insn : Insn.t) -> pos_of_id.(insn.id) <- pos)
    tree.insns;
  List.iter
    (fun (arc : Memdep.t) ->
      if arc_active arc then begin
        let si = pos_of_id.(arc.src) and di = pos_of_id.(arc.dst) in
        if si < 0 || di < 0 then
          invalid_arg
            (Fmt.str "Ddg.build: arc endpoint not in tree %S" tree.name);
        add_edge (insn_node si) (insn_node di) (Memdep.weight ~mem_latency arc);
        Hashtbl.replace g.mem_edges (insn_node si, insn_node di) arc
      end)
    tree.arcs;
  (* exit priority chain *)
  for k = 1 to n_exits - 1 do
    add_edge (exit_node g (k - 1)) (exit_node g k) 0
  done;
  g

(** Latency of a node: its opcode latency, or the branch latency for
    exits. *)
let node_latency g node = g.node_lat.(node)

(** Earliest issue time of every node on an unbounded machine.  Node order
    is topological by construction (definitions precede uses, arcs point
    forward, the exit chain is ordered). *)
let asap (g : t) : int array =
  let issue = Array.make (n_nodes g) 0 in
  for node = 0 to n_nodes g - 1 do
    List.iter
      (fun (p, w) -> issue.(node) <- max issue.(node) (issue.(p) + w))
      g.preds.(node)
  done;
  issue

(** Re-timing of one graph with edges into one node masked, against the
    graph's own ASAP timing.  [scratch] equals [base] and [dirty] is all
    false between calls. *)
type retimer = {
  graph : t;
  base : int array;
  scratch : int array;
  dirty : bool array;
}

let retimer g issue =
  {
    graph = g;
    base = issue;
    scratch = Array.copy issue;
    dirty = Array.make (n_nodes g) false;
  }

(** [retime_without r ~dst ~src ~weight ~count f] re-times [r]'s graph
    with [count] of [dst]'s [(src, weight)] predecessor entries dropped,
    giving exactly the {!asap} of a graph built without those edges.
    Dropping edges into [dst] can move only [dst] and its forward cone:
    [dst]'s time is recomputed from the base timing, then the nodes are
    walked in index order (topological, as {!asap} relies on) and only
    the successors of a node whose time changed are recomputed.  [None]
    when [dst]'s time does not move (then no node's does); otherwise
    [Some (f timing)], where [timing] is valid only during [f]. *)
let retime_without r ~dst ~src ~weight ~count f =
  let g = r.graph and base = r.base and t = r.scratch and dirty = r.dirty in
  let skip = ref count and time = ref 0 in
  List.iter
    (fun (p, w) ->
      if !skip > 0 && p = src && w = weight then decr skip
      else time := Int.max !time (base.(p) + w))
    g.preds.(dst);
  if !time = base.(dst) then None
  else begin
    let touch node =
      List.iter (fun (s, _) -> dirty.(s) <- true) g.succs.(node)
    in
    t.(dst) <- !time;
    touch dst;
    for node = dst + 1 to n_nodes g - 1 do
      if dirty.(node) then begin
        dirty.(node) <- false;
        let time =
          List.fold_left
            (fun acc (p, w) -> Int.max acc (t.(p) + w))
            0 g.preds.(node)
        in
        if time <> t.(node) then begin
          t.(node) <- time;
          touch node
        end
      end
    done;
    let priced = f t in
    Array.blit base dst t dst (n_nodes g - dst);
    Some priced
  end

(** Longest path from each node to the end of the tree (used as the list
    scheduler's priority: schedule critical nodes first). *)
let height (g : t) : int array =
  let h = Array.make (n_nodes g) 0 in
  for node = n_nodes g - 1 downto 0 do
    h.(node) <- node_latency g node;
    List.iter
      (fun (s, w) -> h.(node) <- max h.(node) (w + h.(s)))
      g.succs.(node)
  done;
  h

(** Lookup the memory dependence arc constraining edge (src, dst), if
    that edge is a memory arc rather than register flow or exit chain. *)
let mem_arc (g : t) ~src ~dst = Hashtbl.find_opt g.mem_edges (src, dst)

(** Length of the unbounded-machine critical path: the largest completion
    time over all nodes when every node issues ASAP. *)
let span (g : t) : int =
  let issue = asap g in
  let s = ref 0 in
  for node = 0 to n_nodes g - 1 do
    s := max !s (issue.(node) + node_latency g node)
  done;
  !s

(** Latest issue time of every node such that, obeying every dependence
    edge, no completion exceeds [span] (resource limits ignored — the
    classic ALAP pass). *)
let alap (g : t) ~span : int array =
  let issue = Array.make (n_nodes g) 0 in
  for node = n_nodes g - 1 downto 0 do
    issue.(node) <- span - node_latency g node;
    List.iter
      (fun (s, w) -> issue.(node) <- min issue.(node) (issue.(s) - w))
      g.succs.(node)
  done;
  issue

(** Per-node scheduling freedom on the unbounded machine: [alap - asap]
    against this graph's own critical-path span.  Zero-slack nodes lie on
    a critical path. *)
let slack (g : t) : int array =
  let late = alap g ~span:(span g) in
  let early = asap g in
  Array.init (n_nodes g) (fun node -> late.(node) - early.(node))

(** Completion times of the nodes issued at [issue], directly consumable
    as a timing table entry: instruction completions by position, exit
    completions by exit index. *)
let completion (g : t) (issue : int array) : int array * int array =
  let insn_completion =
    Array.init g.n_insns (fun pos -> issue.(pos) + node_latency g pos)
  in
  let exit_completion =
    Array.init g.n_exits (fun k ->
        issue.(exit_node g k) + Opcode.branch_latency)
  in
  (insn_completion, exit_completion)

(** Completion times on the unbounded machine. *)
let asap_completion (g : t) : int array * int array = completion g (asap g)

(* ------------------------------------------------------------------ *)
(* Graphviz export *)

(** Render the dependence graph in DOT format: solid edges are register
    flow, bold red edges are memory dependence arcs (dashed when
    ambiguous), dotted edges are the exit priority chain.  Feed to
    [dot -Tsvg] to inspect what constrains a tree's schedule. *)
let pp_dot ppf (g : t) =
  let tree = g.tree in
  Fmt.pf ppf "digraph %S {@." tree.name;
  Fmt.pf ppf "  rankdir=TB; node [shape=box, fontname=monospace];@.";
  Array.iteri
    (fun pos (insn : Insn.t) ->
      Fmt.pf ppf "  n%d [label=\"#%d %s\"%s];@." pos insn.id
        (String.map (function '"' -> '\'' | c -> c)
           (Fmt.str "%a" Insn.pp insn))
        (if Insn.is_mem insn then ", style=filled, fillcolor=lightyellow"
         else ""))
    tree.insns;
  Array.iteri
    (fun k e ->
      Fmt.pf ppf "  x%d [label=\"exit %d: %s\", shape=oval];@." k k
        (String.map (function '"' -> '\'' | c -> c)
           (Fmt.str "%a" Tree.pp_exit e)))
    tree.exits;
  let node_name n = if n < g.n_insns then Fmt.str "n%d" n else Fmt.str "x%d" (n - g.n_insns) in
  Array.iteri
    (fun src succs ->
      List.iter
        (fun (dst, w) ->
          let attrs =
            if src < g.n_insns && dst < g.n_insns then
              match Hashtbl.find_opt g.mem_edges (src, dst) with
              | Some arc ->
                  Fmt.str
                    "color=red, penwidth=2%s, label=\"%a w=%d\""
                    (if Memdep.is_ambiguous arc then ", style=dashed" else "")
                    Memdep.pp_kind arc.kind w
              | None -> Fmt.str "label=\"%d\"" w
            else if src >= g.n_insns && dst >= g.n_insns then
              "style=dotted"
            else Fmt.str "label=\"%d\"" w
          in
          Fmt.pf ppf "  %s -> %s [%s];@." (node_name src) (node_name dst)
            attrs)
        succs)
    g.succs;
  Fmt.pf ppf "}@."
