(** Translation-validation introspection ([spd validate]).

    For one workload at one memory latency, reads the per-application
    translation-validation ledger through the engine's single request
    path ({!Engine.Query.Spd_verdicts}) and renders it as data: one row
    per SpD application with its verdict, the exploration statistics
    and the symbolic exit/store digests of the original tree; plus a
    program-wide summary with the verdict tally.

    The same document backs the [spd validate] CLI, the daemon's
    [validate] method and the [spd report spd-validate] rollup, so the
    three surfaces cannot drift apart: they all read the same memoized
    cell and serialize it with the same code.

    Determinism contract: the JSON document is a pure function of the
    workload and the configuration — wall-clock time is deliberately
    absent (the cached row carries it; only the pretty renderer shows
    it), so the serialized document is bit-identical across job counts
    and cold/warm caches, like [spd why]. *)

module Json = Spd_telemetry.Json
module V = Spd_validate.Validate
module Verdict = Spd_validate.Verdict
module Memdep = Spd_ir.Memdep
module W = Spd_workloads

let schema = "spd-validate/1"

type t = {
  workload : string;
  mem_latency : int;
  reports : V.report list;  (** the full ledger, in application order *)
}

(** Fetch the SPEC pipeline's validation ledger for [workload].  Raises
    [Invalid_argument] for an unknown workload name and
    {!Engine.Cell_failed} when the cell failed (in particular when a
    [Refuted] verdict failed the validated preparation). *)
let analyze ?(mem_latency = 2) session workload : t =
  ignore (W.Registry.by_name workload);
  let reports =
    Engine.get
      (Engine.Session.submit session
         (Engine.Query.v ~bench:workload ~latency:mem_latency
            Engine.Query.Spd_verdicts))
  in
  { workload; mem_latency; reports }

let selected ?fn ?tree (t : t) : V.report list =
  List.filter
    (fun (r : V.report) ->
      (match fn with Some f -> f = r.V.func | None -> true)
      && match tree with Some id -> id = r.V.tree_id | None -> true)
    t.reports

let kind_name = function
  | Memdep.Raw -> "raw"
  | Memdep.War -> "war"
  | Memdep.Waw -> "waw"

(* ------------------------------------------------------------------ *)
(* JSON *)

let counterexample_json (cx : Verdict.counterexample) : Json.t =
  Json.Obj
    [
      ("seed", Json.Int cx.Verdict.seed);
      ( "inputs",
        Json.Obj
          (List.map
             (fun (r, v) ->
               ( Fmt.str "%a" Spd_ir.Reg.pp r,
                 Json.String (Fmt.str "%a" Spd_ir.Value.pp v) ))
             cx.Verdict.inputs) );
      ("detail", Json.String cx.Verdict.detail);
    ]

let report_json (r : V.report) : Json.t =
  Json.Obj
    [
      ("src", Json.Int (fst r.V.arc));
      ("dst", Json.Int (snd r.V.arc));
      ("kind", Json.String (kind_name r.V.kind));
      ("verdict", Json.String (Verdict.name r.V.verdict));
      ( "reason",
        match r.V.verdict with
        | Verdict.Unknown reason ->
            Json.String (Verdict.reason_text reason)
        | Verdict.Proved | Verdict.Refuted _ -> Json.Null );
      ( "counterexample",
        match r.V.verdict with
        | Verdict.Refuted cx -> counterexample_json cx
        | Verdict.Proved | Verdict.Unknown _ -> Json.Null );
      ("paths", Json.Int r.V.stats.V.paths);
      ("splits", Json.Int r.V.stats.V.splits);
      ("terms", Json.Int r.V.stats.V.terms);
      ("exit_digest", Json.String r.V.exit_digest);
      ("store_digest", Json.String r.V.store_digest);
    ]

(** The per-workload [spd-validate/1] document: the verdict tally at
    the top, then one entry per SpD application grouped per tree.
    Filters narrow both forms consistently. *)
let to_json ?fn ?tree (t : t) : Json.t =
  let rs = selected ?fn ?tree t in
  let proved, refuted, unknown = V.tally rs in
  Json.Obj
    [
      ("schema", Json.String schema);
      ("workload", Json.String t.workload);
      ("mem_latency", Json.Int t.mem_latency);
      ("applications", Json.Int (List.length rs));
      ("proved", Json.Int proved);
      ("refuted", Json.Int refuted);
      ("unknown", Json.Int unknown);
      ( "verdicts",
        Json.List
          (List.map
             (fun (r : V.report) ->
               match report_json r with
               | Json.Obj fields ->
                   Json.Obj
                     (("func", Json.String r.V.func)
                     :: ("tree", Json.Int r.V.tree_id)
                     :: fields)
               | j -> j)
             rs) );
    ]

(* ------------------------------------------------------------------ *)
(* Tables *)

let verdict_text (r : V.report) =
  match r.V.verdict with
  | Verdict.Proved -> "proved"
  | Verdict.Refuted cx ->
      Printf.sprintf "refuted (seed %d)" cx.Verdict.seed
  | Verdict.Unknown reason ->
      Printf.sprintf "unknown: %s" (Verdict.reason_text reason)

let verdicts_table (t : t) (rs : V.report list) : Table.t =
  Table.v
    ~id:(Printf.sprintf "validate.verdicts.%s" t.workload)
    ~title:
      (Printf.sprintf "SpD translation validation %s (%d-cycle memory)"
         t.workload t.mem_latency)
    ~notes:
      [
        "one row per SpD application the heuristic performed;";
        "proved: original and transformed tree agree on every symbolic";
        "path (taken exit, live-out values, committed stores)";
      ]
    ~label_header:"arc"
    ~columns:[ "func"; "tree"; "kind"; "verdict"; "paths"; "splits"; "ms" ]
    (List.map
       (fun (r : V.report) ->
         Table.row
           (Printf.sprintf "#%d->#%d" (fst r.V.arc) (snd r.V.arc))
           [
             Table.Text r.V.func;
             Table.Int r.V.tree_id;
             Table.Text (kind_name r.V.kind);
             Table.Text (verdict_text r);
             Table.Int r.V.stats.V.paths;
             Table.Int r.V.stats.V.splits;
             Table.Num r.V.time_ms;
           ])
       rs)

let summary_table (t : t) (rs : V.report list) : Table.t =
  let proved, refuted, unknown = V.tally rs in
  Table.v
    ~id:(Printf.sprintf "validate.summary.%s" t.workload)
    ~title:
      (Printf.sprintf "Validation summary %s (%d-cycle memory)" t.workload
         t.mem_latency)
    ~label_header:"verdict" ~columns:[ "count" ]
    [
      Table.row "applications" [ Table.Int (List.length rs) ];
      Table.row "proved" [ Table.Int proved ];
      Table.row "refuted" [ Table.Int refuted ];
      Table.row "unknown" [ Table.Int unknown ];
    ]

(** Every table of a validate run: the per-application verdict table,
    then the summary (over the same selection). *)
let tables ?fn ?tree (t : t) : Table.t list =
  let rs = selected ?fn ?tree t in
  [ verdicts_table t rs; summary_table t rs ]

(* ------------------------------------------------------------------ *)
(* Grid certification ([spd report --validate]) *)

type certification = {
  cells : int;  (** grid cells certified (workloads × latencies) *)
  applications : int;
  proved : int;
  refuted : int;
  unknown : int;
  failed : (string * string) list;
      (** cells whose validated preparation failed: (cell key, error) —
          a [Refuted] verdict surfaces here, as [Validation_failed] *)
}

(** Certify every SpD application of the paper grid: for each built-in
    workload at each memory latency, fetch the validation ledger and
    tally the verdicts.  A refuted application fails its cell
    ({!Pipeline.Validation_failed}), so it appears in [failed] as well
    as making the certification unacceptable.  The grid runs latency by
    latency: a workload's cells at two latencies mostly share their
    obligations, so certifying them side by side would leave one domain
    waiting on the session's memo for the other's explorations. *)
let certify ?(latencies = [ 2; 6 ]) session : certification =
  let grid =
    List.concat_map
      (fun lat -> List.map (fun bench -> (bench, lat)) W.Registry.names)
      latencies
  in
  let outcomes =
    Engine.Session.parallel_map session
      (fun (bench, latency) ->
        ( Printf.sprintf "%s/%d/SPEC/verdicts" bench latency,
          Engine.Session.submit session
            (Engine.Query.v ~bench ~latency Engine.Query.Spd_verdicts) ))
      grid
  in
  List.fold_left
    (fun acc (key, outcome) ->
      match outcome with
      | Engine.Ok rs ->
          let p, r, u = V.tally rs in
          {
            acc with
            cells = acc.cells + 1;
            applications = acc.applications + List.length rs;
            proved = acc.proved + p;
            refuted = acc.refuted + r;
            unknown = acc.unknown + u;
          }
      | Engine.Failed f ->
          {
            acc with
            cells = acc.cells + 1;
            failed =
              acc.failed @ [ (key, Printexc.to_string f.Engine.exn) ];
          })
    {
      cells = 0;
      applications = 0;
      proved = 0;
      refuted = 0;
      unknown = 0;
      failed = [];
    }
    outcomes

(** [true] iff the certification is acceptable: no refutation, no
    failed cell.  [Unknown] verdicts are tolerated (counted and
    reported). *)
let acceptable (c : certification) = c.refuted = 0 && c.failed = []

let pp_certification ppf (c : certification) =
  Fmt.pf ppf
    "translation validation: %d cells, %d applications — %d proved, %d \
     refuted, %d unknown"
    c.cells c.applications c.proved c.refuted c.unknown;
  List.iter
    (fun (key, err) -> Fmt.pf ppf "@.  FAILED %s: %s" key err)
    c.failed
