(** Execution profiles collected by the interpreter.

    Two kinds of information, both used exactly as in the paper:

    - {b path probabilities}: how often each exit of each tree is taken,
      feeding the [Gain()] estimator of the SpD guidance heuristic;
    - {b alias counts}: for every memory dependence arc, how often the two
      references were both active and hit the same address.  Arcs with
      [alias = 0] are the "superfluous arcs" that define the PERFECT
      disambiguator. *)

type arc_stat = { mutable both_active : int; mutable aliased : int }

type tree_stat = {
  mutable traversals : int;
  exit_taken : int array;
  arc_stats : (int * int, arc_stat) Hashtbl.t;
      (** keyed by (src insn id, dst insn id) *)
}

type t = (string * int, tree_stat) Hashtbl.t
(** keyed by (function name, tree id) *)

let create () : t = Hashtbl.create 64

let tree_stat (p : t) ~func ~(tree : Spd_ir.Tree.t) : tree_stat =
  let key = (func, tree.id) in
  match Hashtbl.find_opt p key with
  | Some s -> s
  | None ->
      let s =
        {
          traversals = 0;
          exit_taken = Array.make (Array.length tree.exits) 0;
          arc_stats = Hashtbl.create 8;
        }
      in
      Hashtbl.add p key s;
      s

let arc_stat (s : tree_stat) ~src ~dst =
  let key = (src, dst) in
  match Hashtbl.find_opt s.arc_stats key with
  | Some a -> a
  | None ->
      let a = { both_active = 0; aliased = 0 } in
      Hashtbl.add s.arc_stats key a;
      a

let find (p : t) ~func ~tree_id = Hashtbl.find_opt p (func, tree_id)

(** Probability that traversal of the tree takes exit [k]; uniform when the
    tree was never profiled. *)
let exit_probability (p : t) ~func ~(tree : Spd_ir.Tree.t) k =
  match find p ~func ~tree_id:tree.id with
  | Some s when s.traversals > 0 ->
      float_of_int s.exit_taken.(k) /. float_of_int s.traversals
  | _ -> 1.0 /. float_of_int (Array.length tree.exits)

(** Observed alias probability of an arc, when the pair was ever active. *)
let alias_probability (p : t) ~func ~tree_id ~src ~dst =
  match find p ~func ~tree_id with
  | None -> None
  | Some s -> (
      match Hashtbl.find_opt s.arc_stats (src, dst) with
      | Some a when a.both_active > 0 ->
          Some (float_of_int a.aliased /. float_of_int a.both_active)
      | _ -> None)

(** True when profiling proved the arc superfluous: the two references
    never dynamically touched the same address. *)
let superfluous (p : t) ~func ~tree_id ~src ~dst =
  match find p ~func ~tree_id with
  | None -> false
  | Some s -> (
      match Hashtbl.find_opt s.arc_stats (src, dst) with
      | Some a -> a.aliased = 0
      | None -> s.traversals > 0)

(** Run-time dynamics of SpD-transformed regions.

    The SpD transformation materialises, for every transformed arc, an
    alias predicate register: true exactly when the two references
    collide at run time, in which case the region's {e alias version}
    commits; otherwise the speculative {e no-alias version} does.  A
    watch registers that predicate so the interpreter can attribute each
    traversal of the transformed tree to one version, and count guarded
    stores whose guard came out false (squashed operations). *)
module Spd = struct
  type region = {
    func : string;
    tree_id : int;
    predicate : Spd_ir.Reg.t;
    mutable alias_commits : int;
    mutable noalias_commits : int;
  }

  type tree_watch = {
    mutable watched : region list;  (** newest first; see {!regions} *)
    mutable traversals : int;
    mutable squashed : int;
  }

  type t = (string * int, tree_watch) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let watch (w : t) ~func ~tree_id ~predicate : region =
    let tw =
      match Hashtbl.find_opt w (func, tree_id) with
      | Some tw -> tw
      | None ->
          let tw = { watched = []; traversals = 0; squashed = 0 } in
          Hashtbl.add w (func, tree_id) tw;
          tw
    in
    let r =
      { func; tree_id; predicate; alias_commits = 0; noalias_commits = 0 }
    in
    tw.watched <- r :: tw.watched;
    r

  let find (w : t) ~func ~tree_id = Hashtbl.find_opt w (func, tree_id)

  (** Every watched region, sorted by (function, tree id, predicate) —
      a deterministic order independent of registration order. *)
  let regions (w : t) : region list =
    Hashtbl.fold (fun _ tw acc -> tw.watched @ acc) w []
    |> List.sort (fun a b ->
           compare
             (a.func, a.tree_id, a.predicate)
             (b.func, b.tree_id, b.predicate))

  type totals = {
    n_regions : int;
    alias : int;
    noalias : int;
    squashed : int;
  }

  let totals (w : t) : totals =
    let alias = ref 0 and noalias = ref 0 and squashed = ref 0 in
    let n = ref 0 in
    Hashtbl.iter
      (fun _ (tw : tree_watch) ->
        squashed := !squashed + tw.squashed;
        List.iter
          (fun r ->
            incr n;
            alias := !alias + r.alias_commits;
            noalias := !noalias + r.noalias_commits)
          tw.watched)
      w;
    { n_regions = !n; alias = !alias; noalias = !noalias; squashed = !squashed }
end
