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
    paper's "cycle-level infinite machine simulator" timing.

    The edges live in flat per-node slices (CSR), newest edge first;
    readers walk a slice through {!fold_preds}, {!fold_succs} and
    {!iter_succs}. *)

open Spd_ir

type t = {
  tree : Tree.t;
  mem_latency : int;
  n_insns : int;
  n_exits : int;
  node_lat : int array;
      (** per-node latency, filled once at build time so the hot
          scheduling and critical-path loops never re-derive it from the
          opcode *)
  pred_off : int array;
      (** [n_nodes + 1] offsets: node [v]'s predecessor slice is
          [pred_off.(v)] to [pred_off.(v + 1) - 1] of [pred_node] and
          [pred_weight] *)
  pred_node : int array;
  pred_weight : int array;
  succ_off : int array;  (** the successor slices, laid out likewise *)
  succ_node : int array;
  succ_weight : int array;
  arc_off : int array;
      (** [n_insns + 1] offsets into [arcs]: an instruction's active
          memory arcs head its successor slice, and its [k]-th arc is the
          arc of its [k]-th successor slot *)
  arcs : Memdep.t array;
}

let n_nodes g = g.n_insns + g.n_exits

let insn_node pos = pos
let exit_node g k = g.n_insns + k

(* ------------------------------------------------------------------ *)
(* Building *)

(* [a.(i)], or -1 past [a]'s end: a register no instruction of the tree
   defines (a tree parameter, available at cycle 0), an id not in it *)
let lookup a i = if i < Array.length a then a.(i) else -1

(* One build's state: the counts, then the slices they size.  Every
   edge is enumerated twice, counting ([filling = false]) and then
   filling each slice from its end. *)
type builder = {
  def_site : int array;  (** register -> defining position, or -1 *)
  lat : int array;
  p_off : int array;
  s_off : int array;
  a_off : int array;
  mutable filling : bool;
  mutable p_node : int array;
  mutable p_weight : int array;
  mutable s_node : int array;
  mutable s_weight : int array;
  mutable b_arcs : Memdep.t array;
}

let add_edge b src dst w =
  if b.filling then begin
    let i = b.p_off.(dst) - 1 in
    b.p_off.(dst) <- i;
    b.p_node.(i) <- src;
    b.p_weight.(i) <- w;
    let j = b.s_off.(src) - 1 in
    b.s_off.(src) <- j;
    b.s_node.(j) <- dst;
    b.s_weight.(j) <- w
  end
  else begin
    b.p_off.(dst) <- b.p_off.(dst) + 1;
    b.s_off.(src) <- b.s_off.(src) + 1
  end

(* an instruction's arcs are added after its flow edges, so they fill
   the front of its successor slice, newest first, as [b_arcs] does *)
let add_arc b src dst w arc =
  add_edge b src dst w;
  if b.filling then begin
    let k = b.a_off.(src) - 1 in
    b.a_off.(src) <- k;
    b.b_arcs.(k) <- arc
  end
  else b.a_off.(src) <- b.a_off.(src) + 1

(* register flow from [r]'s def site, if the tree defines [r] *)
let add_flow b consumer r =
  let p = lookup b.def_site r in
  if p >= 0 then add_edge b p consumer b.lat.(p)

let rec add_flows b consumer = function
  | [] -> ()
  | r :: rs ->
      add_flow b consumer r;
      add_flows b consumer rs

(* flow into [insn] at [pos], in {!Insn.uses} order: guard, sources *)
let add_insn_flows b pos (insn : Insn.t) =
  (match insn.guard with Some g -> add_flow b pos g.greg | None -> ());
  add_flows b pos insn.srcs

(* flow into exit node [node], in {!Tree.exit_uses} order *)
let add_exit_flows b node (e : Tree.exit) =
  (match e.xguard with Some g -> add_flow b node g.Insn.greg | None -> ());
  match e.kind with
  | Tree.Jump { args; _ } -> add_flows b node args
  | Tree.Call { call_args; cont_args; _ } ->
      add_flows b node call_args;
      add_flows b node cont_args
  | Tree.Return { value = Some v } -> add_flow b node v
  | Tree.Return { value = None } -> ()

let rec add_arcs b ~arc_active ~mem_latency (tree : Tree.t) pos_of_id = function
  | [] -> ()
  | (a : Memdep.t) :: rest ->
      if arc_active a then begin
        let si = lookup pos_of_id a.src and di = lookup pos_of_id a.dst in
        if si < 0 || di < 0 then
          invalid_arg
            (Fmt.str "Ddg.build: arc endpoint not in tree %S" tree.name);
        add_arc b (insn_node si) (insn_node di) (Memdep.weight ~mem_latency a) a
      end;
      add_arcs b ~arc_active ~mem_latency tree pos_of_id rest

(* every edge, in insertion order *)
let add_edges b ~arc_active ~mem_latency (tree : Tree.t) pos_of_id =
  let n_insns = Array.length tree.insns in
  for pos = 0 to n_insns - 1 do
    add_insn_flows b (insn_node pos) tree.insns.(pos)
  done;
  for k = 0 to Array.length tree.exits - 1 do
    add_exit_flows b (n_insns + k) tree.exits.(k)
  done;
  add_arcs b ~arc_active ~mem_latency tree pos_of_id tree.arcs;
  for k = 1 to Array.length tree.exits - 1 do
    add_edge b (n_insns + k - 1) (n_insns + k) 0
  done

(* [off] holds a count per slice; make [off.(i)] the end of slice [i]
   (the inclusive prefix sum) and [off.(n)] the total, which it
   returns.  Filling each slice from its end down leaves [off.(i)] at
   the slice's start. *)
let ends_of_counts off n =
  for i = 1 to n - 1 do
    off.(i) <- off.(i) + off.(i - 1)
  done;
  let total = if n = 0 then 0 else off.(n - 1) in
  off.(n) <- total;
  total

(** Build the dependence graph.  Only arcs for which [arc_active] holds
    constrain the graph; by default that is {!Spd_ir.Memdep.is_active}.

    Edges are added in a fixed order: register flow into each
    instruction and then each exit (uses in {!Insn.uses} and
    {!Tree.exit_uses} order), the active arcs in [tree.arcs] order, the
    exit chain.  Each slice holds its edges newest first, the order the
    historical list build ([test/scheduler_reference.ml]) consed them
    in, so every timing, schedule and tie-break derived from them is
    that build's.  The edges are enumerated twice, to count each slice
    and then to fill it from its end; def sites (trees are
    single-assignment) and arc endpoints resolve through arrays indexed
    by register number and instruction id, and nothing is allocated per
    edge. *)
let build ?(arc_active = Memdep.is_active) ~mem_latency (tree : Tree.t) : t =
  let insns = tree.insns in
  let n_insns = Array.length insns in
  let n_exits = Array.length tree.exits in
  let n = n_insns + n_exits in
  let node_lat = Array.make n Opcode.branch_latency in
  let max_def = ref (-1) and max_id = ref (-1) in
  for pos = 0 to n_insns - 1 do
    let insn = insns.(pos) in
    node_lat.(pos) <- Opcode.latency ~mem_latency insn.op;
    (match insn.dst with Some d -> max_def := Int.max !max_def d | None -> ());
    max_id := Int.max !max_id insn.id
  done;
  let def_site = Array.make (!max_def + 1) (-1) in
  let pos_of_id = Array.make (!max_id + 1) (-1) in
  for pos = 0 to n_insns - 1 do
    let insn = insns.(pos) in
    (match insn.dst with Some d -> def_site.(d) <- pos | None -> ());
    pos_of_id.(insn.id) <- pos
  done;
  let b =
    {
      def_site;
      lat = node_lat;
      p_off = Array.make (n + 1) 0;
      s_off = Array.make (n + 1) 0;
      a_off = Array.make (n_insns + 1) 0;
      filling = false;
      p_node = [||];
      p_weight = [||];
      s_node = [||];
      s_weight = [||];
      b_arcs = [||];
    }
  in
  add_edges b ~arc_active ~mem_latency tree pos_of_id;
  let n_edges = ends_of_counts b.p_off n in
  ignore (ends_of_counts b.s_off n);
  let n_arcs = ends_of_counts b.a_off n_insns in
  b.filling <- true;
  b.p_node <- Array.make n_edges 0;
  b.p_weight <- Array.make n_edges 0;
  b.s_node <- Array.make n_edges 0;
  b.s_weight <- Array.make n_edges 0;
  if n_arcs > 0 then
    b.b_arcs <- Array.make n_arcs (List.find arc_active tree.arcs);
  add_edges b ~arc_active ~mem_latency tree pos_of_id;
  {
    tree;
    mem_latency;
    n_insns;
    n_exits;
    node_lat;
    pred_off = b.p_off;
    pred_node = b.p_node;
    pred_weight = b.p_weight;
    succ_off = b.s_off;
    succ_node = b.s_node;
    succ_weight = b.s_weight;
    arc_off = b.a_off;
    arcs = b.b_arcs;
  }

(* ------------------------------------------------------------------ *)
(* Reading *)

let n_preds g node = g.pred_off.(node + 1) - g.pred_off.(node)

(** [fold_preds g node f init] folds [f pred weight] over [node]'s
    predecessor slice, newest edge first. *)
let fold_preds g node f init =
  let acc = ref init in
  for i = g.pred_off.(node) to g.pred_off.(node + 1) - 1 do
    acc := f g.pred_node.(i) g.pred_weight.(i) !acc
  done;
  !acc

(** [fold_succs g node f init]: {!fold_preds} over [node]'s successor
    slice. *)
let fold_succs g node f init =
  let acc = ref init in
  for i = g.succ_off.(node) to g.succ_off.(node + 1) - 1 do
    acc := f g.succ_node.(i) g.succ_weight.(i) !acc
  done;
  !acc

(** [iter_succs g node f] calls [f succ weight] on [node]'s successor
    slice, newest edge first. *)
let iter_succs g node f =
  for i = g.succ_off.(node) to g.succ_off.(node + 1) - 1 do
    f g.succ_node.(i) g.succ_weight.(i)
  done

(** Latency of a node: its opcode latency, or the branch latency for
    exits. *)
let node_latency g node = g.node_lat.(node)

(** Earliest issue time of every node on an unbounded machine.  Node order
    is topological by construction (definitions precede uses, arcs point
    forward, the exit chain is ordered). *)
let asap (g : t) : int array =
  let issue = Array.make (n_nodes g) 0 in
  let latest p w t = Int.max t (issue.(p) + w) in
  for node = 0 to n_nodes g - 1 do
    issue.(node) <- fold_preds g node latest 0
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
  let skip = ref count in
  let time =
    fold_preds g dst
      (fun p w time ->
        if !skip > 0 && p = src && w = weight then begin
          decr skip;
          time
        end
        else Int.max time (base.(p) + w))
      0
  in
  if time = base.(dst) then None
  else begin
    let mark s _ = dirty.(s) <- true in
    let latest p w time = Int.max time (t.(p) + w) in
    t.(dst) <- time;
    iter_succs g dst mark;
    for node = dst + 1 to n_nodes g - 1 do
      if dirty.(node) then begin
        dirty.(node) <- false;
        let time = fold_preds g node latest 0 in
        if time <> t.(node) then begin
          t.(node) <- time;
          iter_succs g node mark
        end
      end
    done;
    let priced = f t in
    Array.blit base dst t dst (n_nodes g - dst);
    Some priced
  end

(** Longest path from each node to the end of the tree (used as the list
    scheduler's priority: schedule critical nodes first), written into
    [into] when given. *)
let height ?into (g : t) : int array =
  let n = n_nodes g in
  let h = match into with Some h -> h | None -> Array.make n 0 in
  let longest s w acc = Int.max acc (w + h.(s)) in
  for node = n - 1 downto 0 do
    h.(node) <- fold_succs g node longest (node_latency g node)
  done;
  h

(** The memory dependence arc of the pair [(src, dst)], if an arc joins
    them: the last active arc the build added between them, also when a
    register-flow edge joins the same pair.  [src]'s arcs head its
    successor slice, newest first, so the first slot to [dst] among
    them is that arc. *)
let mem_arc (g : t) ~src ~dst =
  if src >= g.n_insns then None
  else
    let first = g.arc_off.(src) and slot = g.succ_off.(src) in
    let rec find k =
      if k = g.arc_off.(src + 1) then None
      else if g.succ_node.(slot + k - first) = dst then Some g.arcs.(k)
      else find (k + 1)
    in
    find first

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
  let earliest s w acc = Int.min acc (issue.(s) - w) in
  for node = n_nodes g - 1 downto 0 do
    issue.(node) <- fold_succs g node earliest (span - node_latency g node)
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
  for src = 0 to n_nodes g - 1 do
    iter_succs g src (fun dst w ->
          let attrs =
            if src < g.n_insns && dst < g.n_insns then
              match mem_arc g ~src ~dst with
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
  done;
  Fmt.pf ppf "}@."
