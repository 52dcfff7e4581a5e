(** Path histograms: cycles as a dot product.

    A traversal's cycle charge under a {!Timing} table is

    [max (exit_completion.(k), max over committed stores s of
    insn_completion(s))]

    so it depends only on the tree, the exit [k] it took and which of
    its guarded stores committed (unguarded stores always commit).  An
    interpreter run that counts traversals per (tree, exit, committed
    guarded stores) therefore determines the run's cycles on {e every}
    machine: the cycles under a timing table are the sum over the
    histogram of count × charge, which {!price} computes without
    re-running the program; {!breakdown} splits that sum per tree, the
    per-region cycles of [spd explain].  The arcs of a tree play no
    part in the key, so programs that differ only in arc status share a
    histogram.

    Trees whose commit outcome packs into a {!key} are counted under
    that key.  The others — more than {!max_guarded_stores} guarded
    stores — are counted under their exact commit set, so pricing stays
    exact for every tree. *)

(* guarded stores representable in a packed key, leaving room for the
   taken-exit index in the upper bits of a 63-bit int *)
let max_guarded_stores = 40

let key ~taken ~gmask ~n_guarded_stores = (taken lsl n_guarded_stores) lor gmask

type tree = {
  stores : int array;  (** positions of the unguarded stores *)
  gstores : int array;
      (** positions of the guarded stores, in tree order: bit [i] of a
          packed commit mask stands for [gstores.(i)] *)
  packed : (int, int ref) Hashtbl.t;
      (** {!key} of (exit, commit mask) → traversals *)
  exact : (int * string, int ref) Hashtbl.t;
      (** (exit, commit set) → traversals, for trees without a packed
          key; the set has one ['1'] or ['0'] per guarded store *)
}

type t = (string * int, tree) Hashtbl.t
(** keyed by (function name, tree id) *)

let create () : t = Hashtbl.create 64

let tree (h : t) ~func ~tree_id ~store_pos ~gstore_pos : tree =
  match Hashtbl.find_opt h (func, tree_id) with
  | Some th -> th
  | None ->
      let th =
        {
          stores =
            Array.of_list
              (List.filter
                 (fun p -> not (Array.mem p gstore_pos))
                 (Array.to_list store_pos));
          gstores = gstore_pos;
          packed = Hashtbl.create 8;
          exact = Hashtbl.create 1;
        }
      in
      Hashtbl.add h (func, tree_id) th;
      th

let bump tbl k =
  match Hashtbl.find_opt tbl k with
  | Some n -> incr n
  | None -> Hashtbl.add tbl k (ref 1)

let add th key = bump th.packed key

let add_exact th ~taken ~(active : bool array) =
  bump th.exact
    (taken, String.init (Array.length th.gstores) (fun i ->
         if active.(th.gstores.(i)) then '1' else '0'))

(* Every counted path of a tree: its exit, whether the [i]th guarded
   store committed, and its traversal count. *)
let fold_paths th f acc =
  let n = Array.length th.gstores in
  let acc =
    Hashtbl.fold
      (fun key count acc ->
        f ~taken:(key lsr n) ~committed:(fun i -> key land (1 lsl i) <> 0)
          !count acc)
      th.packed acc
  in
  Hashtbl.fold
    (fun (taken, set) count acc ->
      f ~taken ~committed:(fun i -> set.[i] = '1') !count acc)
    th.exact acc

type tree_cost = {
  func : string;
  tree_id : int;
  traversals : int;
  cycles : int;
}

(* Every counted tree's cost under [timing], in table order. *)
let fold_costs (h : t) (timing : Timing.t) f acc =
  Hashtbl.fold
    (fun (func, tree_id) th acc ->
      let tt = Timing.find timing ~func ~tree_id in
      let at pos = tt.Timing.insn_completion.(pos) in
      let drained =
        Array.fold_left (fun m pos -> max m (at pos)) min_int th.stores
      in
      let traversals, cycles =
        fold_paths th
          (fun ~taken ~committed count (traversals, cycles) ->
            let c = ref (max drained tt.Timing.exit_completion.(taken)) in
            Array.iteri
              (fun i pos -> if committed i then c := max !c (at pos))
              th.gstores;
            (traversals + count, cycles + (count * !c)))
          (0, 0)
      in
      f { func; tree_id; traversals; cycles } acc)
    h acc

let breakdown h timing = List.sort compare (fold_costs h timing List.cons [])
let price h timing = fold_costs h timing (fun c total -> total + c.cycles) 0

type path = {
  func : string;
  tree_id : int;
  taken : int;
  committed : int list;  (** positions of the guarded stores that committed *)
  count : int;
}

let paths (h : t) : path list =
  Hashtbl.fold
    (fun (func, tree_id) th acc ->
      fold_paths th
        (fun ~taken ~committed count acc ->
          let committed =
            List.filteri (fun i _ -> committed i) (Array.to_list th.gstores)
          in
          { func; tree_id; taken; committed; count } :: acc)
        acc)
    h []
  |> List.sort compare
