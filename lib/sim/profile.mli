(** Execution profiles collected by the interpreter.

    Two kinds of information, both used exactly as in the paper:

    - {b path probabilities}: how often each exit of each tree is taken,
      feeding the [Gain()] estimator of the SpD guidance heuristic;
    - {b alias counts}: for every memory dependence arc, how often the two
      references were both active and hit the same address.  Arcs with
      [alias = 0] are the "superfluous arcs" that define the PERFECT
      disambiguator. *)

type arc_stat = { mutable both_active : int; mutable aliased : int; }

type tree_stat = {
  mutable traversals : int;
  exit_taken : int array;
  arc_stats : (int * int, arc_stat) Hashtbl.t;
      (** keyed by (src insn id, dst insn id) *)
}

type t = (string * int, tree_stat) Hashtbl.t
(** keyed by (function name, tree id) *)

val create : unit -> t
val tree_stat : t -> func:string -> tree:Spd_ir.Tree.t -> tree_stat
val arc_stat : tree_stat -> src:int -> dst:int -> arc_stat
val find : t -> func:string -> tree_id:int -> tree_stat option

(** Probability that traversal of the tree takes exit [k]; uniform when the
    tree was never profiled. *)
val exit_probability : t -> func:string -> tree:Spd_ir.Tree.t -> int -> float

(** Observed alias probability of an arc, when the pair was ever active. *)
val alias_probability :
  t -> func:string -> tree_id:int -> src:int -> dst:int -> float option

(** True when profiling proved the arc superfluous: the two references
    never dynamically touched the same address. *)
val superfluous :
  t -> func:string -> tree_id:int -> src:int -> dst:int -> bool

(** Run-time dynamics of SpD-transformed regions.

    A watch registers the alias predicate register materialised by an
    SpD application, so the interpreter can attribute each traversal of
    the transformed tree to its alias or no-alias version and count
    guarded stores whose guard came out false (squashed operations). *)
module Spd : sig
  type region = {
    func : string;
    tree_id : int;
    predicate : Spd_ir.Reg.t;
    mutable alias_commits : int;
        (** traversals on which the predicate was true: the two
            references collided and the alias version committed *)
    mutable noalias_commits : int;
        (** traversals on which the speculative no-alias version won *)
  }

  type tree_watch = {
    mutable watched : region list;
    mutable traversals : int;
    mutable squashed : int;
        (** guarded stores of the tree whose guard came out false *)
  }

  type t

  val create : unit -> t

  (** Register a region of interest; the returned handle accumulates
      its commit counts as the interpreter runs. *)
  val watch :
    t -> func:string -> tree_id:int -> predicate:Spd_ir.Reg.t -> region

  val find : t -> func:string -> tree_id:int -> tree_watch option

  (** Every watched region, sorted by (function, tree id, predicate). *)
  val regions : t -> region list

  type totals = {
    n_regions : int;
    alias : int;
    noalias : int;
    squashed : int;
  }

  val totals : t -> totals
end
