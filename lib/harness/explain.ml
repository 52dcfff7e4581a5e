(** Schedule introspection and cycle attribution ([spd explain]).

    For one workload, reads the STATIC and SPEC preparations and SPEC's
    shared run from the engine session, schedules every SPEC tree on
    the requested machine, and renders three kinds of artefact through
    the shared {!Table} machinery:

    - per tree, the cycle-by-FU {b occupancy grid}, with guarded SpD
      operations annotated by their alias-predicate version
      ([a<reg>] alias version, [n<reg>] no-alias version);
    - per tree, the {b critical-path attribution}: the makespan
      partitioned into ambiguous-memory / dataflow / resource / branch
      intervals ({!Spd_machine.Critpath});
    - one program-wide {b region table}: per (function, tree), the
      traversals and cycles priced from SPEC's run on the machine's
      timing table ({!Spd_sim.Histogram.breakdown}) — summing {e
      exactly} to the cycles every report prices — alongside the
      STATIC vs SPEC schedule spans (the paper's per-region
      critical-path delta).

    The [spd explain] CLI and the daemon's [explain] method read the
    same memoized preparations, so a daemon explains a workload at
    every width from one pair of interpreter runs, within the session's
    budgets.  All values are computed once and rendered as data, so the
    pretty, JSON ([spd-explain/1]) and CSV outputs cannot drift
    apart. *)

module Descr = Spd_machine.Descr
module Schedule = Spd_machine.Schedule
module Critpath = Spd_machine.Critpath
module Histogram = Spd_sim.Histogram
module Json = Spd_telemetry.Json

let schema = "spd-explain/1"

(** One scheduled-and-analyzed SPEC tree. *)
type tree_view = {
  func : string;
  tree : Spd_ir.Tree.t;
  schedule : Schedule.t;
  critpath : Critpath.t;
  static_span : int option;
      (** span of the same tree under STATIC, when the tree survived
          disambiguation with the same id (it always does: SpD rewrites
          trees in place) *)
  static_ambig : int option;
      (** makespan cycles the STATIC schedule attributes to ambiguous
          arcs — the cost SpD attacks; the SPEC tree no longer carries
          the transformed arcs *)
  traversals : int;
  cycles : int;  (** the priced cycles of this tree's traversals *)
}

type t = {
  workload : string;
  width : int;
  mem_latency : int;
  total_cycles : int;  (** the run's priced cycles *)
  total_traversals : int;
  applications : Spd_core.Heuristic.application list;
  trees : tree_view list;  (** every tree of the program, in order *)
}

(* ------------------------------------------------------------------ *)
(* Analysis *)

let trees_of prog =
  let acc = ref [] in
  Spd_ir.Prog.iter_trees (fun func tree -> acc := (func, tree) :: !acc) prog;
  List.rev !acc

(** Analyze [workload] on a [width]-unit machine, reading the STATIC and
    SPEC preparations and SPEC's run from [session].  Raises
    [Invalid_argument] for an unknown workload name and whatever a
    failed preparation raises. *)
let analyze ?(width = 5) ?(mem_latency = 2) session workload : t =
  let prepared =
    Engine.Session.prepared session ~bench:workload ~latency:mem_latency
  in
  let static = prepared Pipeline.Static and spec = prepared Pipeline.Spec in
  let run = Pipeline.run spec in
  let descr = Descr.fus width ~mem_latency in
  let costs =
    Histogram.breakdown run.Pipeline.histogram
      (Spd_machine.Timing_builder.program descr spec.Pipeline.prog)
  in
  let static_spans = Hashtbl.create 32 in
  List.iter
    (fun (func, tree) ->
      let s = Schedule.of_tree ~descr tree in
      let cp = Critpath.analyze s in
      Hashtbl.replace static_spans (func, tree.Spd_ir.Tree.id)
        ( s.Schedule.span,
          List.assoc Critpath.Ambiguous_mem cp.Critpath.by_category ))
    (trees_of static.Pipeline.prog);
  let trees =
    List.map
      (fun (func, (tree : Spd_ir.Tree.t)) ->
        let schedule = Schedule.of_tree ~descr tree in
        let critpath = Critpath.analyze schedule in
        let traversals, cycles =
          match
            List.find_opt
              (fun (c : Histogram.tree_cost) ->
                c.func = func && c.tree_id = tree.id)
              costs
          with
          | Some c -> (c.traversals, c.cycles)
          | None -> (0, 0)
        in
        let static_info = Hashtbl.find_opt static_spans (func, tree.id) in
        {
          func;
          tree;
          schedule;
          critpath;
          static_span = Option.map fst static_info;
          static_ambig = Option.map snd static_info;
          traversals;
          cycles;
        })
      (trees_of spec.Pipeline.prog)
  in
  {
    workload;
    width;
    mem_latency;
    total_cycles =
      List.fold_left (fun n (c : Histogram.tree_cost) -> n + c.cycles) 0 costs;
    total_traversals = run.Pipeline.traversals;
    applications = spec.Pipeline.applications;
    trees;
  }

let selected ?fn ?tree (t : t) : tree_view list =
  List.filter
    (fun v ->
      (match fn with Some f -> f = v.func | None -> true)
      && match tree with Some id -> id = v.tree.Spd_ir.Tree.id | None -> true)
    t.trees

(* ------------------------------------------------------------------ *)
(* Version annotation of SpD-guarded operations *)

(** Per insn id, the version marker to append in the grid: [a<reg>] for
    alias-version ops, [n<reg>] for no-alias-guarded originals, where
    [<reg>] is the application's alias-predicate register. *)
let version_markers (apps : Spd_core.Heuristic.application list) ~func
    ~tree_id : (int, string) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (a : Spd_core.Heuristic.application) ->
      if a.func = func && a.tree_id = tree_id then begin
        List.iter
          (fun id -> Hashtbl.replace tbl id (Printf.sprintf "a%d" a.predicate))
          a.alias_insns;
        List.iter
          (fun id -> Hashtbl.replace tbl id (Printf.sprintf "n%d" a.predicate))
          a.noalias_insns
      end)
    apps;
  tbl

(* ------------------------------------------------------------------ *)
(* Tables *)

let grid_table (t : t) (v : tree_view) : Table.t =
  let markers =
    version_markers t.applications ~func:v.func ~tree_id:v.tree.Spd_ir.Tree.id
  in
  let s = v.schedule in
  let cell node =
    let label = Schedule.node_label s node in
    match Schedule.insn_id s node with
    | Some id -> (
        match Hashtbl.find_opt markers id with
        | Some m -> Table.Text (label ^ " [" ^ m ^ "]")
        | None -> Table.Text label)
    | None -> Table.Text label
  in
  let grid = Schedule.occupancy s in
  let rows =
    Array.to_list
      (Array.mapi
         (fun cycle slots ->
           Table.row (string_of_int cycle)
             (Array.to_list
                (Array.map
                   (function Some node -> cell node | None -> Table.Text "·")
                   slots)))
         grid)
  in
  Table.v
    ~id:
      (Printf.sprintf "explain.grid.%s.%d" v.func v.tree.Spd_ir.Tree.id)
    ~title:
      (Printf.sprintf "Occupancy %s tree %d (%d FU, %d-cycle memory)"
         v.func v.tree.Spd_ir.Tree.id t.width t.mem_latency)
    ~notes:
      [
        Printf.sprintf "schedule length %d, makespan %d, %d ops"
          s.Schedule.length s.Schedule.span
          (Array.length s.Schedule.ops);
        "[aR]/[nR] mark SpD alias / no-alias versions guarded by \
         predicate register R";
      ]
    ~label_header:"cycle"
    ~columns:(List.init (Schedule.n_fus s) (fun i -> Printf.sprintf "fu%d" i))
    rows

let critpath_table (v : tree_view) : Table.t =
  let s = v.schedule in
  let cp = v.critpath in
  let rows =
    (* entry-first reads like the program: earliest interval first *)
    List.sort (fun (a : Critpath.step) b -> compare a.lo b.lo) cp.steps
    |> List.map (fun (st : Critpath.step) ->
           Table.row
             (Schedule.node_label s st.node)
             [
               Table.Int st.lo;
               Table.Int st.hi;
               Table.Int (st.hi - st.lo);
               Table.Text (Critpath.category_name st.category);
             ])
  in
  let footers =
    List.map
      (fun (c, n) ->
        Table.row
          ("total " ^ Critpath.category_name c)
          [ Table.Na; Table.Na; Table.Int n; Table.Na ])
      cp.by_category
    @ [
        Table.row "TOTAL (makespan)"
          [ Table.Int 0; Table.Int cp.span; Table.Int cp.span; Table.Na ];
      ]
  in
  Table.v
    ~id:
      (Printf.sprintf "explain.critpath.%s.%d" v.func v.tree.Spd_ir.Tree.id)
    ~title:
      (Printf.sprintf "Critical path %s tree %d" v.func v.tree.Spd_ir.Tree.id)
    ~notes:
      [
        "disjoint intervals tiling [0, makespan): per-category totals \
         sum exactly to the makespan";
      ]
    ~label_header:"op" ~columns:[ "from"; "to"; "cycles"; "category" ]
    ~footers rows

(** The program-wide per-region attribution.  The cycle column sums
    exactly to the simulator's reported total ([TOTAL] footer); the span
    columns give the before/after-SpD critical-path delta per region. *)
let regions_table (t : t) : Table.t =
  let rows =
    List.map
      (fun v ->
        let spec_span = v.schedule.Schedule.span in
        let delta =
          match v.static_span with
          | Some st -> Table.Int (st - spec_span)
          | None -> Table.Na
        in
        Table.row
          (Printf.sprintf "%s/%d" v.func v.tree.Spd_ir.Tree.id)
          [
            Table.Int v.traversals;
            Table.Int v.cycles;
            (match v.static_span with
            | Some st -> Table.Int st
            | None -> Table.Na);
            Table.Int spec_span;
            delta;
            (match v.static_ambig with
            | Some a -> Table.Int a
            | None -> Table.Na);
          ])
      t.trees
  in
  let footers =
    [
      Table.row "TOTAL"
        [
          Table.Int t.total_traversals;
          Table.Int t.total_cycles;
          Table.Na;
          Table.Na;
          Table.Na;
          Table.Na;
        ];
    ]
  in
  Table.v
    ~id:(Printf.sprintf "explain.regions.%s" t.workload)
    ~title:
      (Printf.sprintf
         "Per-region attribution %s (%d FU, %d-cycle memory)" t.workload
         t.width t.mem_latency)
    ~notes:
      [
        "cycles: simulated cycles charged to each region's traversals \
         (sums exactly to the simulator total);";
        "static/spec span: the tree's schedule makespan before/after \
         SpD; ambig: STATIC makespan cycles attributed to ambiguous \
         arcs (the cost SpD attacks)";
      ]
    ~label_header:"func/tree"
    ~columns:[ "traversals"; "cycles"; "static"; "spec"; "delta"; "ambig" ]
    ~footers rows

(** Every table of an explain run: per selected tree the occupancy grid
    and critical path, then the program-wide region attribution. *)
let tables ?fn ?tree (t : t) : Table.t list =
  List.concat_map
    (fun v -> [ grid_table t v; critpath_table v ])
    (selected ?fn ?tree t)
  @ [ regions_table t ]

(* ------------------------------------------------------------------ *)
(* JSON *)

let to_json ?fn ?tree (t : t) : Json.t =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("workload", Json.String t.workload);
      ("width", Json.Int t.width);
      ("mem_latency", Json.Int t.mem_latency);
      ("cycles", Json.Int t.total_cycles);
      ("traversals", Json.Int t.total_traversals);
      ("applications", Json.Int (List.length t.applications));
      ( "tables",
        Json.List (List.map Table.to_json (tables ?fn ?tree t)) );
    ]
