(** The artefact registry behind [spd report] and the daemon's [report]
    method.

    An artefact is a named, self-contained piece of the evaluation — a
    paper table or figure, an extension experiment, the engine timings
    — exposed as a table-data builder so every output format renders
    the same values:

    - [Pretty]: the fixed-width terminal rendering ({!Table.pp});
    - [Json]: one schema-versioned document ([spd-report/1]) holding
      every table, the recorded cell failures and a metrics snapshot
      ([spd-metrics/1]);
    - [Csv]: long format, one [table,row,column,value] line per cell,
      with the metrics counters appended under the pseudo-table
      [metrics]. *)

module Json = Spd_telemetry.Json
module Metrics = Spd_telemetry.Metrics

let report_schema = "spd-report/1"

type format = Pretty | Json | Csv

let format_of_string = function
  | "pretty" -> Some Pretty
  | "json" -> Some Json
  | "csv" -> Some Csv
  | _ -> None

type t = {
  name : string;  (** CLI name, e.g. ["table6_3"] *)
  title : string;  (** one-line description for [--list] *)
  tables : Engine.Session.t -> Table.t list;
      (** warms the required grid cells, then builds the data *)
}

(* The registry.  [all] deliberately excludes [timings] (wall-clock,
   hence run-dependent) — matching the historical behaviour of the
   [all] pretty renderer. *)
let registry : t list =
  [
    { name = "table6_1"; title = "Operation latencies";
      tables = Report.table6_1_tables };
    { name = "table6_2"; title = "Benchmark descriptions";
      tables = Report.table6_2_tables };
    { name = "table6_3"; title = "Frequency of SpD application";
      tables = Report.table6_3_tables };
    { name = "table6_4"; title = "Disambiguators used in experiments";
      tables = Report.table6_4_tables };
    { name = "fig6_2"; title = "Speedup over NAIVE (5 FU)";
      tables = Report.fig6_2_tables };
    { name = "cycles"; title = "Raw simulated cycle counts (5 FU)";
      tables = Report.cycles_tables };
    { name = "fig6_3"; title = "SPEC over STATIC vs machine width";
      tables = Report.fig6_3_tables };
    { name = "fig6_4"; title = "Code size increase due to SpD";
      tables = Report.fig6_4_tables };
    { name = "spd-dynamics";
      title = "SpD run-time dynamics (alias/no-alias commits, squashes)";
      tables = Report.spd_dynamics_tables };
    { name = "spd-decisions";
      title = "SpD opportunity statistics (heuristic decision ledger rollup)";
      tables = Report.spd_decisions_tables };
    { name = "spd-validate";
      title = "SpD translation validation (verdict tally per grid cell)";
      tables = Report.spd_validate_tables };
    { name = "ext_dynamic"; title = "SpD vs hardware dynamic disambiguation";
      tables = Extensions.ext_dynamic_tables };
    { name = "ext_grafting"; title = "Tree grafting";
      tables = Extensions.ext_grafting_tables };
    { name = "ext_params"; title = "Guidance heuristic ablation";
      tables = Extensions.ext_params_tables };
    { name = "timings"; title = "Engine wall clock and counters";
      tables = Report.timings_tables };
  ]

let names () = List.map (fun a -> a.name) registry
let find name = List.find_opt (fun a -> a.name = name) registry

(** One registry line per artefact — [spd report --list]'s output. *)
let pp_list ppf () =
  let width =
    List.fold_left (fun w a -> max w (String.length a.name)) 0 registry
  in
  List.iter
    (fun a -> Fmt.pf ppf "%-*s  %s@." width a.name a.title)
    registry

(* the default artefact set: the paper's tables and figures, in the
   paper's order, as the historical [all] renderers printed them *)
let paper_set =
  [ "table6_1"; "table6_2"; "table6_4"; "table6_3"; "fig6_2"; "fig6_3";
    "fig6_4" ]

let extension_set = [ "ext_dynamic"; "ext_grafting"; "ext_params" ]

let of_names names =
  List.map
    (fun n ->
      match find n with
      | Some a -> a
      | None -> invalid_arg ("Artefact.of_names: unknown artefact " ^ n))
    names

(* ------------------------------------------------------------------ *)
(* Rendering *)

let failure_json (f : Engine.failure) =
  Json.Obj
    [
      ("key", Json.String f.key);
      ("error", Json.String (Printexc.to_string f.exn));
      ("attempts", Json.Int f.attempts);
      ("elapsed_seconds", Json.Float f.elapsed);
    ]

(** The whole report as one JSON document.  Building the artefact
    tables first (warming every grid cell) and snapshotting metrics and
    failures last, so both cover all the work done. *)
let to_json ~session (arts : t list) : Json.t =
  let artefacts =
    List.map
      (fun a ->
        let tables = a.tables session in
        Json.Obj
          [
            ("name", Json.String a.name);
            ("tables", Json.List (List.map Table.to_json tables));
          ])
      arts
  in
  Json.Obj
    [
      ("schema", Json.String report_schema);
      ("artefacts", Json.List artefacts);
      ( "failures",
        Json.List
          (List.map failure_json (Engine.Session.failures session)) );
      ("metrics", Metrics.snapshot_json (Metrics.snapshot ()));
    ]

let render_csv ~session ppf (arts : t list) =
  Fmt.pf ppf "%s@." Table.csv_header;
  List.iter
    (fun a ->
      List.iter
        (fun t -> List.iter (Fmt.pf ppf "%s@.") (Table.to_csv_lines t))
        (a.tables session))
    arts;
  (* metrics counters as a pseudo-table; histograms are summarised by
     their count and sum *)
  List.iter
    (fun (name, v) ->
      match v with
      | Metrics.Counter n -> Fmt.pf ppf "metrics,%s,value,%d@." name n
      | Metrics.Hist h ->
          Fmt.pf ppf "metrics,%s,count,%d@." name h.count;
          Fmt.pf ppf "metrics,%s,sum,%.17g@." name h.sum)
    (Metrics.snapshot ())

(** Render the given artefacts.  [Pretty] appends nothing extra (the
    CLI adds the failure appendix); [Json] emits one document, [Csv]
    one header plus data lines. *)
let render ~session (format : format) ppf (arts : t list) =
  match format with
  | Pretty ->
      List.iter (fun a -> List.iter (Table.pp ppf) (a.tables session)) arts
  | Json -> Fmt.pf ppf "%s@." (Json.to_string (to_json ~session arts))
  | Csv -> render_csv ~session ppf arts

(** Render one document: [Pretty] prints [tables ()], [Json] prints
    [json ()] on one line, [Csv] prints the header and every line of
    [tables ()]. *)
let render_doc (format : format) ppf ~tables ~json =
  match format with
  | Pretty -> List.iter (Table.pp ppf) (tables ())
  | Json -> Fmt.pf ppf "%s@." (Json.to_string (json ()))
  | Csv ->
      Fmt.pf ppf "%s@." Table.csv_header;
      List.iter
        (fun t -> List.iter (Fmt.pf ppf "%s@.") (Table.to_csv_lines t))
        (tables ())
