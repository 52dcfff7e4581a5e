(** The SpD guidance heuristic, Figure 5-1 of the paper.

    For each tree: repeatedly apply SpD to the critical ambiguous arc with
    the largest predicted gain, until the tree has grown past
    [max_expansion] times its original size, no critical ambiguous arc
    remains, or the best gain falls below [min_gain]. *)

open Spd_ir

type params = {
  max_expansion : float;  (** the paper's [MaxExpansion] *)
  min_gain : float;  (** the paper's [MinGain], in expected cycles *)
  max_applications : int;  (** hard safety cap per tree *)
}

let default_params =
  { max_expansion = 4.0; min_gain = 0.75; max_applications = 64 }

(** One successful SpD application, for reporting (Table 6-3) and for
    run-time attribution (the [predicate] register selects, per
    traversal, between the region's alias and no-alias versions). *)
type application = {
  func : string;
  tree_id : int;
  kind : Memdep.kind;
  arc : int * int;
  predicate : Reg.t;  (** register holding the alias compare *)
  predicted_gain : float;
  cost : int;  (** operations added, per the paper's cost model *)
  alias_insns : int list;
      (** ids of the ops committing on the alias outcome *)
  noalias_insns : int list;
      (** ids of the original side effects, now no-alias-guarded *)
}

(** Per-application verification hook: called with the tree before the
    transform, the accepted application and the transformed tree —
    speculative transforms must be machine-checked, not assumed
    correct.  An exception raised by a checker propagates out of
    {!run}; callers decide the blast radius.  In the harness that is
    the experiment engine's protected cell runner: the affected grid
    cell alone records a [Failed] outcome (rendered n/a, CLI exit 2)
    while sibling cells are unaffected. *)
type checker =
  func:string -> before:Tree.t -> application -> Tree.t -> unit

(** The fate of one candidate ambiguous arc.  Every candidate the
    heuristic ever considered receives exactly one verdict: [Applied],
    or a rejection carrying the machine-readable reason the arc was
    left in place. *)
type verdict =
  | Applied
  | Rejected_not_critical
      (** removing the arc does not shorten the expected critical path *)
  | Rejected_not_applicable of Transform.not_applicable
  | Rejected_below_min_gain
  | Rejected_max_applications
  | Rejected_max_expansion

(** Stable machine-readable verdict string, used by the
    [spd-decisions/1] schema and the [spd.heuristic.*] counters. *)
let verdict_name = function
  | Applied -> "applied"
  | Rejected_not_critical -> "rejected:not-critical"
  | Rejected_not_applicable Transform.Arc_not_ambiguous ->
      "rejected:not-applicable:arc-not-ambiguous"
  | Rejected_not_applicable Transform.Intervening_reference ->
      "rejected:not-applicable:intervening-reference"
  | Rejected_not_applicable Transform.Address_unavailable ->
      "rejected:not-applicable:address-unavailable"
  | Rejected_below_min_gain -> "rejected:below-min-gain"
  | Rejected_max_applications -> "rejected:max-applications"
  | Rejected_max_expansion -> "rejected:max-expansion"

let pp_verdict ppf v = Fmt.string ppf (verdict_name v)

(** One ledger entry: a candidate ambiguous arc, the [Gain()] numbers
    it was judged on, the budgets in force, and the verdict.  Applied
    entries appear in application order with the tree state of their
    round; rejected entries are judged against the final tree, where
    the heuristic stopped (so also-rans of every round are observed
    exactly once, with their final gain). *)
type decision = {
  func : string;
  tree_id : int;
  kind : Memdep.kind;
  arc : int * int;
  ambiguity : Memdep.ambiguity option;
      (** which static test left the arc ambiguous *)
  before : float;  (** expected traversal time with the arc in place *)
  after : float;  (** expected traversal time without the arc *)
  gain : float;  (** [before -. after], compared against [min_gain] *)
  min_gain : float;
  tree_size : int;  (** tree size when the candidate was judged *)
  max_size : int;  (** the [max_expansion] budget, in instructions *)
  verdict : verdict;
  profiled : bool;  (** exit weights from a profile, not uniform *)
}

(* why the application loop stopped, for classifying the leftovers *)
type stop =
  | Exhausted  (** no applicable candidate at or above [min_gain] *)
  | Budget_applications
  | Budget_expansion
  | Apply_failed of Transform.not_applicable

let run_tree ?profile ?(checker : checker option) ~(params : params)
    ~mem_latency ~func (tree : Tree.t) :
    Tree.t * application list * decision list =
  let max_size =
    int_of_float (ceil (float_of_int (Tree.size tree) *. params.max_expansion))
  in
  let decide (c : Gain.candidate) ~tree_size verdict : decision =
    {
      func;
      tree_id = tree.id;
      kind = c.Gain.arc.kind;
      arc = (c.Gain.arc.src, c.Gain.arc.dst);
      ambiguity = c.Gain.arc.why;
      before = c.Gain.before;
      after = c.Gain.after;
      gain = c.Gain.gain;
      min_gain = params.min_gain;
      tree_size;
      max_size;
      verdict;
      profiled = profile <> None;
    }
  in
  (* [step] also returns the candidates of the tree it stopped on,
     reusing the last round's unless a budget stopped it first *)
  let rec step t log ledger n =
    let price () = Gain.candidates ?profile ~mem_latency ~func t in
    if n >= params.max_applications then
      (t, log, ledger, Budget_applications, price ())
    else if Tree.size t >= max_size then
      (t, log, ledger, Budget_expansion, price ())
    else
      let cands = price () in
      let viable =
        cands
        |> List.filter (fun (c : Gain.candidate) ->
               c.gain > 0.0 && Transform.can_apply t c.arc)
      in
      match
        List.sort
          (fun (c1 : Gain.candidate) (c2 : Gain.candidate) ->
            compare c2.gain c1.gain)
          viable
      with
      | [] -> (t, log, ledger, Exhausted, cands)
      | best :: _ ->
          let arc = best.Gain.arc in
          if best.Gain.gain < params.min_gain then
            (t, log, ledger, Exhausted, cands)
          else (
            match Transform.apply_traced t arc with
            | Error r ->
                (* can_apply filtered; defensive *)
                (t, log, ledger, Apply_failed r, cands)
            | Ok (t', predicate, prov) ->
                let app =
                  {
                    func;
                    tree_id = t.id;
                    kind = arc.kind;
                    arc = (arc.src, arc.dst);
                    predicate;
                    predicted_gain = best.Gain.gain;
                    cost = Transform.estimated_cost t arc;
                    alias_insns = prov.Transform.alias_ids;
                    noalias_insns = prov.Transform.noalias_ids;
                  }
                in
                (match checker with
                | Some check -> check ~func ~before:t app t'
                | None -> ());
                let d = decide best ~tree_size:(Tree.size t) Applied in
                step t' (app :: log) (d :: ledger) (n + 1))
  in
  let t, log, ledger, stop, final = step tree [] [] 0 in
  (* every ambiguous arc of the final tree is a rejected candidate;
     judge each one where the heuristic stopped *)
  let tree_size = Tree.size t in
  let rejected =
    List.map
      (fun (c : Gain.candidate) ->
        let verdict =
          if c.gain <= 0.0 then Rejected_not_critical
          else
            match Transform.check_applicable t c.arc with
            | Error r -> Rejected_not_applicable r
            | Ok () -> (
                if c.gain < params.min_gain then Rejected_below_min_gain
                else
                  match stop with
                  | Budget_applications -> Rejected_max_applications
                  | Budget_expansion -> Rejected_max_expansion
                  | Apply_failed r -> Rejected_not_applicable r
                  | Exhausted ->
                      (* unreachable: an applicable candidate at or
                         above [min_gain] would have been applied *)
                      Rejected_below_min_gain)
        in
        decide c ~tree_size verdict)
      final
  in
  (t, List.rev log, List.rev ledger @ rejected)

(** Apply the heuristic to every tree of the program. *)
let run ?profile ?checker ?(params = default_params) ~mem_latency
    (prog : Prog.t) : Prog.t * application list * decision list =
  let per_tree = ref [] in
  let prog' =
    Prog.map_trees
      (fun func tree ->
        let tree', log, ds =
          run_tree ?profile ?checker ~params ~mem_latency ~func tree
        in
        per_tree := (log, ds) :: !per_tree;
        tree')
      prog
  in
  let logs, ledgers = List.split (List.rev !per_tree) in
  (prog', List.concat logs, List.concat ledgers)

(** Applied ledger entries, in application order. *)
let applied_decisions (ledger : decision list) : decision list =
  List.filter (fun d -> d.verdict = Applied) ledger

(** Rejection-reason histogram of a ledger, sorted by reason name. *)
let rejection_histogram (ledger : decision list) : (string * int) list =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun d ->
      match d.verdict with
      | Applied -> ()
      | v ->
          let name = verdict_name v in
          Hashtbl.replace tbl name
            (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name)))
    ledger;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(** Tally applications by dependence kind: the row format of Table 6-3. *)
let count_by_kind (log : application list) : int * int * int =
  List.fold_left
    (fun (raw, war, waw) (a : application) ->
      match a.kind with
      | Memdep.Raw -> (raw + 1, war, waw)
      | Memdep.War -> (raw, war + 1, waw)
      | Memdep.Waw -> (raw, war, waw + 1))
    (0, 0, 0) log
