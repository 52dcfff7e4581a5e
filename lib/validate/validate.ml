(** Translation validation of single SpD applications.

    [check_trees] proves (or refutes, or gives up on) the claim that a
    transformed tree and the tree it was derived from have the same
    sequential observable behaviour: the taken exit, the live-out
    values it carries, and the final committed store state, on every
    path — in particular on both sides of the speculated alias
    predicate.  [check_application] wraps it for the
    {!Spd_core.Heuristic} checker hook and produces the ledger row the
    harness caches and serializes as [spd-validate/1].  [obligation]
    and [key] name what [check_trees] reads, so that an engine session
    explores each distinct obligation once. *)

open Spd_ir
module Heuristic = Spd_core.Heuristic

type stats = Symexec.stats = { paths : int; splits : int; terms : int }

type report = {
  func : string;
  tree_id : int;
  kind : Memdep.kind;
  arc : int * int;
  verdict : Verdict.t;
  stats : stats;
  exit_digest : string;
      (** digest of the original tree's per-path taken-exit behaviour *)
  store_digest : string;
      (** digest of the original tree's per-path committed-store classes *)
  time_ms : float;
      (** wall clock of the exploration that produced the verdict: a row
          served from an engine session's verdict memo or from the disk
          cache carries the time of the exploration it reuses.  Reported
          by the pretty renderer only — the JSON document must be a pure
          function of its inputs *)
}

let default_max_paths = 4096
let default_samples = 64

(** What {!check_trees} reads of one obligation: each tree's parameters,
    instructions, exits and address parameters (as a sorted list, so
    equal sets compare equal whatever their balance), plus the budgets.
    Neither [Symexec] nor [Concrete] reads a tree's [id], [name], [arcs]
    or [ranges], so they are left out.  Equal obligations have equal
    verdicts, stats and digests. *)
type obligation = {
  max_paths : int;
  samples : int;
  before_tree : Reg.t list * Insn.t array * Tree.exit array * Reg.t list;
  after_tree : Reg.t list * Insn.t array * Tree.exit array * Reg.t list;
}

let obligation ?(max_paths = default_max_paths) ?(samples = default_samples)
    ~(before : Tree.t) ~(after : Tree.t) () : obligation =
  let read (t : Tree.t) =
    (t.params, t.insns, t.exits, Reg.Set.elements t.addr_params)
  in
  { max_paths; samples; before_tree = read before; after_tree = read after }

(** The MD5 of an obligation's marshalled bytes, what a memo of reports
    is keyed by.  A memo hit should still compare the obligations, as a
    guard against a digest collision. *)
let key (o : obligation) : Digest.t =
  Digest.string (Marshal.to_string o [ Marshal.No_sharing ])

let check_trees ?(max_paths = default_max_paths) ?(samples = default_samples)
    ~(before : Tree.t) ~(after : Tree.t) () :
    Verdict.t * stats * Symexec.digests =
  let is_addr_param r =
    Reg.Set.mem r before.Tree.addr_params
    || Reg.Set.mem r after.Tree.addr_params
  in
  let outcome, stats, digests =
    Symexec.explore ~max_paths ~is_addr_param ~before ~after ()
  in
  let verdict =
    match outcome with
    | Symexec.Equivalent -> Verdict.Proved
    | Symexec.Overflow n -> Verdict.Unknown (Verdict.Split_overflow n)
    | Symexec.Unmodelled msg -> Verdict.Unknown (Verdict.Unsupported msg)
    | Symexec.Mismatch { assumptions; detail } -> (
        (* a refutation must concretize: hunt for a diverging valuation *)
        let rec search seed =
          if seed >= samples then None
          else
            match Concrete.divergence ~seed ~before ~after with
            | Some d -> Some (seed, d)
            | None -> search (seed + 1)
        in
        match search 0 with
        | Some (seed, d) ->
            Verdict.Refuted
              {
                seed;
                inputs = Concrete.inputs_of_seed ~seed ~before ~after;
                detail = d;
              }
        | None ->
            let where =
              if assumptions = [] then ""
              else " under " ^ String.concat " & " assumptions
            in
            Verdict.Unknown (Verdict.No_witness (detail ^ where)))
  in
  (verdict, stats, digests)

let check_application ?max_paths ?samples ~func ~(before : Tree.t)
    (app : Heuristic.application) (after : Tree.t) : report =
  let t0 = Spd_telemetry.Clock.now () in
  let verdict, stats, digests =
    check_trees ?max_paths ?samples ~before ~after ()
  in
  {
    func;
    tree_id = app.Heuristic.tree_id;
    kind = app.Heuristic.kind;
    arc = app.Heuristic.arc;
    verdict;
    stats;
    exit_digest = digests.Symexec.exit_digest;
    store_digest = digests.Symexec.store_digest;
    time_ms = (Spd_telemetry.Clock.now () -. t0) *. 1000.;
  }

(** Counts of (proved, refuted, unknown) verdicts in a ledger. *)
let tally (reports : report list) =
  List.fold_left
    (fun (p, r, u) rep ->
      match rep.verdict with
      | Verdict.Proved -> (p + 1, r, u)
      | Verdict.Refuted _ -> (p, r + 1, u)
      | Verdict.Unknown _ -> (p, r, u + 1))
    (0, 0, 0) reports

(** Re-run the seeded concrete valuation of a counterexample; exposed
    so tests can confirm that a [Refuted] verdict concretizes to a real
    divergence. *)
let concrete_divergence = Concrete.divergence
