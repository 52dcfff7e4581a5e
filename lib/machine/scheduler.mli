(** Resource-constrained list scheduler.

    Packs the nodes of a tree's dependence graph (instructions plus exit
    branches) into VLIW instruction words of at most [fus] operations per
    cycle, all functional units being universal and fully pipelined.
    Priority is the classic critical-path height: nodes with the longest
    remaining dependence chain issue first.  The ready set is a priority
    heap with deterministic tie-breaking (equal heights pop the lower
    node index), so schedules are bit-identical to the historical
    ready-list scan (the tests' reference scheduler) and across
    [--jobs] domain counts.

    [spd.scheduler.schedules] counts the calls of {!run} and
    [spd.scheduler.fu_occupancy] observes each one on a finite machine:
    they count list schedules, not timed trees.  A schedule plan
    ({!Timing_builder.timing}) takes a tree's ASAP timing without
    calling {!run} at every width where the width cannot bind, so a cold
    paper report counts 1,788 schedules for its 8,444 tree timings.

    A list schedule allocates only its result: its working arrays are
    scratch that the calling domain owns and reuses. *)

module Ddg = Spd_analysis.Ddg

type t = {
  issue : int array;  (** per node, the cycle it issues *)
  fu : int array;
      (** per node, the functional-unit slot (0-based) it occupies within
          its issue cycle; descriptive only, never alters a decision *)
  length : int;  (** schedule length: last issue cycle + 1 *)
}

(** Array-backed binary max-heap of (priority, node) pairs with a
    deterministic total order: higher priority first, equal priorities
    broken by the {e lower} node index.  Exposed for the property
    tests. *)
module Heap : sig
  type t

  (** [create cap] allocates a heap with initial capacity [cap] (grows
      as needed). *)
  val create : int -> t

  val is_empty : t -> bool
  val size : t -> int

  (** [push h ~prio node] adds [node], which must lie in [\[0, 2^21)]
      (else [Invalid_argument]). *)
  val push : t -> prio:int -> int -> unit

  (** Priority of the highest-priority node, without removing it.
      Raises [Invalid_argument] on an empty heap. *)
  val top_prio : t -> int

  (** Remove and return the highest-priority node; ties yield the lowest
      node index.  Raises [Invalid_argument] on an empty heap. *)
  val pop : t -> int
end

(** Register [spd.scheduler.schedules] and [spd.scheduler.fu_occupancy]
    ahead of their first use. *)
val register_metrics : unit -> unit

(** Schedule [g] on a machine with [fus] universal units.  [fus = None]
    means unlimited (the result then equals ASAP). *)
val run : ?fus:int -> Ddg.t -> t

(** Convert a schedule into the timing table entry the simulator charges
    traversals with. *)
val timing : Ddg.t -> t -> Spd_sim.Timing.tree_timing

(** Check that a schedule respects every dependence edge and the [fus]
    resource bound; used by the property tests. *)
val valid : ?fus:int -> Ddg.t -> t -> bool
