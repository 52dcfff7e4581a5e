(** Build a full program timing table for a machine description. *)

module Ddg = Spd_analysis.Ddg

(** Timing of one tree on [descr].  Only arcs for which [arc_active]
    holds constrain it; by default that is {!Spd_ir.Memdep.is_active}. *)
val tree_timing :
  ?arc_active:(Spd_ir.Memdep.t -> bool) ->
  Descr.t -> Spd_ir.Tree.t -> Spd_sim.Timing.tree_timing

(** Timing of every tree of the program: one dependence graph and, on a
    finite machine, one list schedule per tree.  The one-shot path for a
    single width, and the reference {!timing} is held equal to. *)
val program : Descr.t -> Spd_ir.Prog.t -> Spd_sim.Timing.t

(** {1 Schedule plans}

    A plan times one program at every width of one memory latency.  Per
    tree it holds the dependence graph (which no width changes), the
    ASAP timing and the ASAP schedule's {!peak}.  At a width of at least
    the peak, every cycle's ready set is exactly the nodes whose ASAP
    cycle it is, and they all fit (nodes that a zero-weight exit-chain
    edge enables join as a later generation of the same cycle), so the
    list scheduler issues every node at its ASAP cycle: the plan returns
    the shared ASAP timing there and list-schedules its graph only where
    the width binds. *)

type plan

(** The largest number of nodes issuing in one cycle, given each node's
    issue cycle. *)
val peak : int array -> int

(** Build every tree's graph, ASAP timing and peak. *)
val plan : mem_latency:int -> Spd_ir.Prog.t -> plan

(** [timing plan width] equals {!program} at [width] and the plan's
    memory latency, tree by tree. *)
val timing : plan -> Descr.width -> Spd_sim.Timing.t
