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

    {b Representation.}  The edges live in flat arrays (CSR): each node
    has a predecessor slice and a successor slice, each slot a node and
    a weight.  A slice holds its edges newest first, in the reverse of
    the order {!build} adds them; readers that break ties by edge order
    ({!Spd_machine.Critpath}, {!pp_dot}) read that order.  A graph is
    immutable once built, so graphs are shared freely across domains;
    the readers below allocate no per-edge data. *)

type t = private {
  tree : Spd_ir.Tree.t;
  mem_latency : int;
  n_insns : int;
  n_exits : int;
  node_lat : int array;
      (** per-node latency, computed once at build time *)
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
  arcs : Spd_ir.Memdep.t array;
}
val n_nodes : t -> int
val insn_node : 'a -> 'a
val exit_node : t -> int -> int

(** Build the dependence graph.  Only arcs for which [arc_active] holds
    constrain the graph; by default that is {!Spd_ir.Memdep.is_active}.
    Edges are added in a fixed order: register flow into each
    instruction, then into each exit (sources in {!Spd_ir.Insn.uses} and
    {!Spd_ir.Tree.exit_uses} order); the active arcs in [tree.arcs]
    order; the exit chain.  Raises [Invalid_argument] when an active
    arc names an instruction that is not in the tree. *)
val build :
  ?arc_active:(Spd_ir.Memdep.t -> bool) ->
  mem_latency:int -> Spd_ir.Tree.t -> t

(** Latency of a node: its opcode latency, or the branch latency for
    exits. *)
val node_latency : t -> int -> int

(** Number of edges into a node. *)
val n_preds : t -> int -> int

(** [fold_preds g node f init] folds [f pred weight] over [node]'s
    predecessor slice, newest edge first. *)
val fold_preds : t -> int -> (int -> int -> 'a -> 'a) -> 'a -> 'a

(** {!fold_preds} over [node]'s successor slice. *)
val fold_succs : t -> int -> (int -> int -> 'a -> 'a) -> 'a -> 'a

(** [iter_succs g node f] calls [f succ weight] on [node]'s successor
    slice, newest edge first. *)
val iter_succs : t -> int -> (int -> int -> unit) -> unit

(** Earliest issue time of every node on an unbounded machine.  Node order
    is topological by construction (definitions precede uses, arcs point
    forward, the exit chain is ordered). *)
val asap : t -> int array

(** A graph and its {!asap} timing, set up to be re-timed with edges
    masked.  The timing passed to {!retimer} is read, never written. *)
type retimer

val retimer : t -> int array -> retimer

(** [retime_without r ~dst ~src ~weight ~count f] re-times [r]'s graph
    with [count] of [dst]'s [(src, weight)] predecessor entries dropped,
    giving exactly the {!asap} of a graph built without those edges.
    Only [dst]'s forward cone is re-timed, in node order.  [None] when
    [dst]'s issue time does not move (then no node's does); otherwise
    [Some (f timing)], where [timing] is a scratch array valid only
    during [f]. *)
val retime_without :
  retimer ->
  dst:int -> src:int -> weight:int -> count:int -> (int array -> 'a) ->
  'a option

(** Longest path from each node to the end of the tree (used as the list
    scheduler's priority: schedule critical nodes first).  With [into]
    (at least {!n_nodes} slots) the heights are written there and it is
    returned. *)
val height : ?into:int array -> t -> int array

(** The memory dependence arc of the node pair [(src, dst)], if an arc
    joins them: the last active arc {!build} added between the two,
    also when a register-flow edge joins the same pair.  Tells a memory
    edge apart from register flow or the exit chain. *)
val mem_arc : t -> src:int -> dst:int -> Spd_ir.Memdep.t option

(** Length of the unbounded-machine critical path: the largest completion
    time over all nodes when every node issues ASAP. *)
val span : t -> int

(** Latest issue time of every node such that, obeying every dependence
    edge, no completion exceeds [span] (resource limits ignored — the
    classic ALAP pass). *)
val alap : t -> span:int -> int array

(** Per-node scheduling freedom on the unbounded machine: [alap - asap]
    against this graph's own critical-path span.  Zero-slack nodes lie on
    a critical path. *)
val slack : t -> int array

(** Completion times of the nodes issued at the given cycles (one per
    node), directly consumable as a timing table entry: instruction
    completions by position, exit completions by exit index. *)
val completion : t -> int array -> int array * int array

(** {!completion} of the {!asap} issue times: the unbounded machine's
    timing table entry. *)
val asap_completion : t -> int array * int array

(** Render the dependence graph in DOT format: register-flow edges with
    latency weights, memory dependence arcs in red (dashed when
    ambiguous), and the dotted exit priority chain.  Feed to
    [dot -Tsvg]. *)
val pp_dot : Format.formatter -> t -> unit
