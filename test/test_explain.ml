(** Schedule introspection, critical-path attribution, table CSV and
    trace capture.

    The load-bearing invariants:

    - the per-region cycle attribution of [spd explain] sums {e exactly}
      to the cycles and traversals a timed interpreter run of the same
      program reports, and its total is the session's SPEC cycles
      cell, for every paper workload at both latencies and widths 1
      and 5;
    - a critical-path attribution is a disjoint tiling of
      [0, makespan), so its category totals sum to the makespan;
    - occupancy grids place every op exactly once, within the machine
      width;
    - [Table] CSV output round-trips per RFC 4180;
    - [Trace.capture] writes a parseable trace even when the traced
      function raises. *)

open Util
module Schedule = Spd_machine.Schedule
module Critpath = Spd_machine.Critpath
module Ddg = Spd_analysis.Ddg
module H = Spd_harness
module Engine = Spd_harness.Engine
module Explain = Spd_harness.Explain
module Table = Spd_harness.Table
module Json = Spd_telemetry.Json

let case name f = Alcotest.test_case name `Quick f

(* one session behind every analysis below: explain reads its memoized
   preparations and SPEC's shared run, so the tests share them too *)
let session = lazy (Engine.Session.create ~jobs:1 ())
let explained = Hashtbl.create 4

let explain ?(width = 5) ?(mem_latency = 2) name =
  let key = (name, width, mem_latency) in
  match Hashtbl.find_opt explained key with
  | Some t -> t
  | None ->
      let t =
        Explain.analyze ~width ~mem_latency (Lazy.force session) name
      in
      Hashtbl.add explained key t;
      t

(* ------------------------------------------------------------------ *)
(* Attribution sums *)

(* Explain prices SPEC's shared run per tree.  Its regions must sum to
   what the reference, a timed interpreter run of the same program,
   charges and counts, and its total must be the session's SPEC cycles
   cell: the number every report prints. *)
let test_region_cycles_sum_to_total () =
  let session = Lazy.force session in
  List.iter
    (fun name ->
      List.iter
        (fun mem_latency ->
          let spec =
            Engine.get
              (Engine.Session.prepared session ~bench:name
                 ~latency:mem_latency H.Pipeline.Spec)
          in
          List.iter
            (fun width ->
              let t = explain ~width ~mem_latency name in
              let where =
                Printf.sprintf "%s, %d FU, %d-cycle memory" name width
                  mem_latency
              in
              let timing =
                Spd_machine.Timing_builder.program
                  (Spd_machine.Descr.fus width ~mem_latency)
                  spec.H.Pipeline.prog
              in
              let timed = Spd_sim.Interp.run ~timing spec.H.Pipeline.prog in
              let sum f =
                List.fold_left (fun n v -> n + f v) 0 t.Explain.trees
              in
              check_int (where ^ ": region cycles sum to the timed run")
                timed.Spd_sim.Interp.cycles
                (sum (fun v -> v.Explain.cycles));
              check_int (where ^ ": region traversals sum to the timed run")
                timed.Spd_sim.Interp.traversals
                (sum (fun v -> v.Explain.traversals));
              check_int (where ^ ": total is the timed run's")
                timed.Spd_sim.Interp.cycles t.Explain.total_cycles;
              check_int (where ^ ": total is the SPEC cycles cell")
                (Engine.get
                   (Engine.Session.submit session
                      (Engine.Query.v ~bench:name ~latency:mem_latency
                         (Engine.Query.Cycles
                            {
                              kind = H.Pipeline.Spec;
                              width = Spd_machine.Descr.Fus width;
                            }))))
                t.Explain.total_cycles)
            [ 1; 5 ])
        [ 2; 6 ])
    Spd_workloads.Registry.names

let test_critpath_tiles_makespan () =
  List.iter
    (fun name ->
      let t = explain name in
      List.iter
        (fun v ->
          let cp = v.Explain.critpath in
          let where =
            Printf.sprintf "%s %s/%d" name v.Explain.func
              v.Explain.tree.Spd_ir.Tree.id
          in
          check_int (where ^ ": span matches schedule")
            v.Explain.schedule.Schedule.span cp.Critpath.span;
          let steps =
            List.sort
              (fun (a : Critpath.step) b -> compare a.lo b.lo)
              cp.Critpath.steps
          in
          (* disjoint, contiguous, tiling [0, span) *)
          let last =
            List.fold_left
              (fun edge (st : Critpath.step) ->
                check_int (where ^ ": steps are contiguous") edge st.lo;
                check_bool (where ^ ": step is non-empty") true (st.hi > st.lo);
                st.hi)
              0 steps
          in
          check_int (where ^ ": steps end at the makespan") cp.Critpath.span
            last;
          (* category totals are the same partition, summed *)
          let by_cat =
            List.fold_left
              (fun acc (_, n) -> acc + n)
              0 cp.Critpath.by_category
          in
          check_int (where ^ ": category totals sum to makespan")
            cp.Critpath.span by_cat;
          List.iter
            (fun c ->
              check_bool
                (where ^ ": every category is listed")
                true
                (List.mem_assoc c cp.Critpath.by_category))
            [
              Critpath.Ambiguous_mem; Critpath.Dataflow; Critpath.Resource;
              Critpath.Branch;
            ])
        t.Explain.trees)
    [ "matmul300"; "moment" ]

(* ------------------------------------------------------------------ *)
(* Occupancy grids *)

let test_occupancy_grid_consistent () =
  let t = explain "matmul300" in
  List.iter
    (fun v ->
      let s = v.Explain.schedule in
      let where =
        Printf.sprintf "%s/%d" v.Explain.func v.Explain.tree.Spd_ir.Tree.id
      in
      let grid = Schedule.occupancy s in
      check_int (where ^ ": one grid row per schedule cycle")
        s.Schedule.length (Array.length grid);
      let seen = Hashtbl.create 16 in
      Array.iteri
        (fun cycle slots ->
          check_int (where ^ ": machine width respected")
            (Schedule.n_fus s) (Array.length slots);
          Array.iteri
            (fun fu -> function
              | None -> ()
              | Some node ->
                  check_bool (where ^ ": node placed once") false
                    (Hashtbl.mem seen node);
                  Hashtbl.add seen node (cycle, fu);
                  let op = s.Schedule.ops.(node) in
                  check_int (where ^ ": grid row is the issue cycle")
                    op.Schedule.issue cycle;
                  check_int (where ^ ": grid column is the FU")
                    op.Schedule.fu fu)
            slots)
        grid;
      Array.iteri
        (fun node (op : Schedule.op) ->
          check_bool (where ^ ": every op appears in the grid") true
            (Hashtbl.mem seen node);
          check_bool (where ^ ": slack is non-negative") true
            (op.Schedule.slack >= 0);
          check_bool (where ^ ": FU slot within the machine") true
            (op.Schedule.fu >= 0 && op.Schedule.fu < Schedule.n_fus s))
        s.Schedule.ops)
    t.Explain.trees

(* ------------------------------------------------------------------ *)
(* ALAP / slack *)

let test_alap_slack_sanity () =
  let w = Spd_workloads.Registry.by_name "moment" in
  let prog = compile w.source in
  Spd_ir.Prog.iter_trees
    (fun _ tree ->
      let g = Ddg.build ~mem_latency:2 tree in
      let span = Ddg.span g in
      let asap = Ddg.asap g in
      let alap = Ddg.alap g ~span in
      let slack = Ddg.slack g in
      let n = Ddg.n_nodes g in
      let min_slack = ref max_int in
      for node = 0 to n - 1 do
        check_bool "alap never precedes asap" true (alap.(node) >= asap.(node));
        check_int "slack is alap - asap"
          (alap.(node) - asap.(node))
          slack.(node);
        check_bool "no completion exceeds the span" true
          (alap.(node) + Ddg.node_latency g node <= span);
        min_slack := min !min_slack slack.(node)
      done;
      if n > 0 then
        check_int "a critical (zero-slack) path exists" 0 !min_slack)
    prog

(* ------------------------------------------------------------------ *)
(* SpD provenance *)

let test_provenance_disjoint () =
  let t = explain "matmul300" in
  check_bool "matmul300 has SpD applications" true
    (t.Explain.applications <> []);
  List.iter
    (fun (a : Spd_core.Heuristic.application) ->
      check_bool "alias version ops recorded" true (a.alias_insns <> []);
      List.iter
        (fun id ->
          check_bool "alias and no-alias op sets are disjoint" false
            (List.mem id a.noalias_insns))
        a.alias_insns)
    t.Explain.applications

let test_grid_marks_spd_versions () =
  (* scale tree 1 is matmul300's transformed region: its grid must
     carry both version annotations *)
  let t = explain "matmul300" in
  match Explain.selected ~fn:"scale" ~tree:1 t with
  | [ v ] ->
      let tbl = Explain.grid_table t v in
      let cells =
        List.concat_map
          (fun (r : Table.row) ->
            List.filter_map
              (function Table.Text s -> Some s | _ -> None)
              r.Table.cells)
          tbl.Table.rows
      in
      let has mark =
        List.exists
          (fun s ->
            match String.index_opt s '[' with
            | Some i -> String.length s > i + 1 && s.[i + 1] = mark
            | None -> false)
          cells
      in
      check_bool "alias versions annotated" true (has 'a');
      check_bool "static span recorded" true (v.Explain.static_span <> None)
  | vs ->
      Alcotest.failf "expected exactly one scale/1 tree, got %d"
        (List.length vs)

(* ------------------------------------------------------------------ *)
(* Table CSV escaping: RFC 4180 round-trip *)

(* a small RFC 4180 reader: quoted fields may contain commas, newlines
   and doubled quotes *)
let parse_csv (s : string) : string list list =
  let records = ref [] and fields = ref [] and buf = Buffer.create 16 in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let flush_record () =
    flush_field ();
    records := List.rev !fields :: !records;
    fields := []
  in
  let n = String.length s in
  let rec plain i =
    if i >= n then (if !fields <> [] || Buffer.length buf > 0 then flush_record ())
    else
      match s.[i] with
      | ',' -> flush_field (); plain (i + 1)
      | '\n' -> flush_record (); plain (i + 1)
      | '"' when Buffer.length buf = 0 -> quoted (i + 1)
      | c -> Buffer.add_char buf c; plain (i + 1)
  and quoted i =
    if i >= n then failwith "unterminated quoted field"
    else
      match s.[i] with
      | '"' when i + 1 < n && s.[i + 1] = '"' ->
          Buffer.add_char buf '"';
          quoted (i + 2)
      | '"' -> plain (i + 1)
      | c -> Buffer.add_char buf c; quoted (i + 1)
  in
  plain 0;
  List.rev !records

let test_csv_round_trip () =
  let tricky =
    [ "comma, inside"; "quote \" inside"; "newline\ninside"; "plain";
      "both \"and\",\nworse" ]
  in
  let tbl =
    Table.v ~id:"csv,test" ~title:"unit" ~columns:[ "va,l"; "w" ]
      (List.map (fun s -> Table.row s [ Table.Text s; Table.Int 7 ]) tricky)
  in
  let doc = String.concat "\n" (Table.to_csv_lines tbl) in
  let records = parse_csv doc in
  check_int "one record per cell"
    (2 * List.length tricky)
    (List.length records);
  List.iteri
    (fun i record ->
      let label = List.nth tricky (i / 2) in
      match record with
      | [ table; row; column; value ] ->
          check_int "four fields per record" 4 (List.length record);
          Alcotest.(check string) "table id round-trips" "csv,test" table;
          Alcotest.(check string) "row label round-trips" label row;
          if i mod 2 = 0 then begin
            Alcotest.(check string) "column round-trips" "va,l" column;
            Alcotest.(check string) "text cell round-trips" label value
          end
          else Alcotest.(check string) "int cell round-trips" "7" value
      | r -> Alcotest.failf "record %d has %d fields" i (List.length r))
    records

let test_csv_na_cell () =
  (* a failed grid cell must render as n/a in the CSV — identically to
     the pretty grid — so a reader can tell it from an empty string *)
  let tbl =
    Table.v ~id:"na" ~title:"unit" ~columns:[ "v" ]
      [ Table.row "dead" [ Table.Na ]; Table.row "live" [ Table.Num 1.5 ] ]
  in
  match parse_csv (String.concat "\n" (Table.to_csv_lines tbl)) with
  | [ [ _; "dead"; "v"; na ]; [ _; "live"; "v"; live ] ] ->
      Alcotest.(check string) "Na encodes as n/a in CSV" "n/a" na;
      Alcotest.(check string)
        "CSV n/a matches the pretty rendering"
        (Table.cell_text Table.Na) na;
      Alcotest.(check string) "numbers keep full precision" "1.5" live
  | records -> Alcotest.failf "unexpected CSV shape (%d records)"
                 (List.length records)

(* ------------------------------------------------------------------ *)
(* Crash-safe tracing *)

let test_trace_capture_on_raise () =
  let path = Filename.temp_file "spd_trace" ".json" in
  (match
     Spd_telemetry.Trace.capture (Some path) (fun () ->
         Spd_telemetry.Trace.instant "before-crash";
         failwith "boom")
   with
  | () -> Alcotest.fail "exception must propagate"
  | exception Failure _ -> ());
  let ic = open_in_bin path in
  let doc =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove path;
  match Json.of_string doc with
  | Ok json ->
      check_bool "trace document has events" true
        (Option.bind (Json.member "traceEvents" json) Json.to_list <> None)
  | Error e -> Alcotest.failf "trace not parseable after crash: %s" e

(* ------------------------------------------------------------------ *)
(* A failed preparation is contained like a cell *)

(* Under a budget moment's reference run exhausts, explain fails with
   [Cell_failed] each time it is asked, and the session records the
   failure once, under the SPEC preparation's key. *)
let test_failed_preparation_contained () =
  Engine.Session.with_session (Engine.Session.create ~jobs:1 ~fuel:1000 ())
  @@ fun s ->
  for i = 1 to 2 do
    match Explain.analyze s "moment" with
    | _ -> Alcotest.failf "explain %d: expected Cell_failed" i
    | exception Engine.Cell_failed f ->
        check_string
          (Printf.sprintf "explain %d: failure key" i)
          "moment/2/SPEC/prepared" f.Engine.key
  done;
  check_bool "one failure recorded, under the preparation's key" true
    (List.map (fun (f : Engine.failure) -> f.Engine.key)
       (Engine.Session.failures s)
    = [ "moment/2/SPEC/prepared" ])

let tests =
  [
    case "region cycle attribution sums to the simulator total"
      test_region_cycles_sum_to_total;
    case "critical-path steps tile the makespan" test_critpath_tiles_makespan;
    case "occupancy grids are consistent" test_occupancy_grid_consistent;
    case "alap/slack sanity" test_alap_slack_sanity;
    case "SpD provenance version sets are disjoint" test_provenance_disjoint;
    case "grids annotate SpD versions" test_grid_marks_spd_versions;
    case "table: CSV round-trips per RFC 4180" test_csv_round_trip;
    case "table: CSV n/a encoding matches the grid" test_csv_na_cell;
    case "trace: capture survives a crash" test_trace_capture_on_raise;
    case "a failed preparation is contained" test_failed_preparation_contained;
  ]
