(** Path histograms: cycles as a dot product.

    A traversal's cycle charge under a {!Timing} table depends only on
    the tree, the exit it took and which of its guarded stores
    committed.  An interpreter run that counts traversals per (tree,
    exit, committed guarded stores) therefore prices the program on
    every machine: {!price} folds the counts with a timing table and
    returns exactly the cycles [Interp.run ~timing] would charge, and
    {!breakdown} gives the same sum per tree.  Arcs play no part in the
    key, so programs that differ only in arc status share one
    histogram.

    Paths of trees whose commit outcome packs into a {!key} are counted
    under that key, in an array when the tree's keys span at most
    {!dense_keys} and in a table otherwise; the other trees (more than
    {!max_guarded_stores} guarded stores) under their exact commit set.
    Every representation folds to the same {!paths}. *)

(** Guarded stores representable in a packed {!key} (40): the paths of
    a tree with more are counted under their exact commit set. *)
val max_guarded_stores : int

(** Keys a tree's counts may span, [exits lsl guarded stores], and still
    be held in an array indexed by {!key} (1024). *)
val dense_keys : int

(** Pack a traversal outcome — the taken exit and the commit mask of
    the tree's guarded stores (bit [i] for the [i]th) — into an int.
    Injective for [n_guarded_stores <= max_guarded_stores]. *)
val key : taken:int -> gmask:int -> n_guarded_stores:int -> int

type tree
(** One tree's path counts. *)

type t
(** Path counts of every traversed tree of one run. *)

val create : unit -> t

(** The counts of one tree, created on first use.  [n_exits] is its
    number of exits, [store_pos] lists the positions of all its stores
    and [gstore_pos] those of its guarded stores, in tree order. *)
val tree :
  t ->
  func:string ->
  tree_id:int ->
  n_exits:int ->
  store_pos:int array ->
  gstore_pos:int array ->
  tree

(** Count one traversal that took exit [taken].  [gmask] is its commit
    mask (bit [i] for the [i]th guarded store), which packs it into a
    {!key}; [active] holds, per instruction position, whether the
    operation committed, and is read only for a tree with more than
    {!max_guarded_stores} guarded stores. *)
val add : tree -> taken:int -> gmask:int -> active:bool array -> unit

(** One counted tree's share of a run under a timing table. *)
type tree_cost = {
  func : string;
  tree_id : int;
  traversals : int;
  cycles : int;  (** the sum of count × charge over the tree's paths *)
}

(** Per counted tree, its traversals and their cycles under a timing
    table that covers every counted tree, sorted by (function, tree
    id).  Trees the run never traversed are absent. *)
val breakdown : t -> Timing.t -> tree_cost list

(** The cycles of the counted traversals under a timing table that
    covers every counted tree: the sum of {!breakdown}'s cycles. *)
val price : t -> Timing.t -> int

type path = {
  func : string;
  tree_id : int;
  taken : int;
  committed : int list;  (** positions of the guarded stores that committed *)
  count : int;
}

(** Every counted path, sorted: a canonical view whatever the key. *)
val paths : t -> path list
