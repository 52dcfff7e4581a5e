(** Harness tests: pipeline ordering guarantees, the differential
    random-program property (the repository's strongest correctness
    check), experiment memoization and report rendering. *)

open Util
module Ir = Spd_ir
module H = Spd_harness
module Pipeline = H.Pipeline

let case name f = Alcotest.test_case name `Quick f
let qcase = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* On an infinite machine, removing dependence arcs can only help, so
   PERFECT <= STATIC <= NAIVE holds exactly. *)

let test_pipeline_ordering_infinite () =
  List.iter
    (fun bench ->
      let w = Spd_workloads.Registry.by_name bench in
      let lowered = compile w.source in
      List.iter
        (fun mem_latency ->
          let c kind =
            Pipeline.cycles
              (Pipeline.prepare ~config:(Pipeline.Config.v ~mem_latency ()) kind lowered)
              ~width:Spd_machine.Descr.Infinite
          in
          let cn = c Pipeline.Naive in
          let cst = c Pipeline.Static in
          let cp = c Pipeline.Perfect in
          check_bool
            (Printf.sprintf "%s lat%d: STATIC (%d) <= NAIVE (%d)" bench
               mem_latency cst cn)
            true (cst <= cn);
          check_bool
            (Printf.sprintf "%s lat%d: PERFECT (%d) <= STATIC (%d)" bench
               mem_latency cp cst)
            true (cp <= cst))
        [ 2; 6 ])
    [ "adi"; "fft"; "moment"; "tree" ]

(* SPEC on an infinite machine is never slower than STATIC: SpD only
   removes arcs and adds off-critical-path compensation code. *)
let test_spec_no_slower_infinite () =
  List.iter
    (fun bench ->
      let w = Spd_workloads.Registry.by_name bench in
      let lowered = compile w.source in
      let c kind =
        Pipeline.cycles
          (Pipeline.prepare ~config:(Pipeline.Config.v ~mem_latency:6 ()) kind lowered)
          ~width:Spd_machine.Descr.Infinite
      in
      let cst = c Pipeline.Static and csp = c Pipeline.Spec in
      check_bool
        (Printf.sprintf "%s: SPEC (%d) <= STATIC (%d) on infinite machine"
           bench csp cst)
        true (csp <= cst))
    [ "adi"; "bcuint"; "fft"; "moment"; "smooft"; "solvde" ]

(* ------------------------------------------------------------------ *)
(* Differential testing on random programs: every pipeline must preserve
   behaviour ([prepare] raises Behaviour_mismatch otherwise). *)

let prop_pipelines_preserve_behaviour =
  QCheck.Test.make ~name:"pipelines preserve behaviour on random programs"
    ~count:40 Gen_prog.arbitrary_source (fun src ->
      let lowered = compile src in
      List.iter
        (fun kind -> ignore (Pipeline.prepare ~config:(Pipeline.Config.v ~mem_latency:2 ()) kind lowered))
        Pipeline.all;
      ignore (Pipeline.prepare ~config:(Pipeline.Config.v ~mem_latency:6 ()) Pipeline.Spec lowered);
      true)

(* And SpD actually fires on the generated helper (store-then-load on
   pointer parameters) for most programs. *)
let prop_spd_finds_the_helper =
  QCheck.Test.make ~name:"SpD fires on the generated helper" ~count:10
    Gen_prog.arbitrary_source (fun src ->
      let spec = Pipeline.prepare ~config:(Pipeline.Config.v ~mem_latency:6 ()) Pipeline.Spec (compile src) in
      List.exists
        (fun (a : Spd_core.Heuristic.application) -> a.func = "helper")
        spec.applications)

(* ------------------------------------------------------------------ *)
(* The structural check: NAIVE, STATIC and PERFECT are checked by
   comparing code with arcs ignored, and priced from NAIVE's run.  Both
   rest on the interpreter never reading an arc. *)

let execution prog =
  let histogram = Spd_sim.Histogram.create () in
  let profile = Spd_sim.Profile.create () in
  let r = Spd_sim.Interp.run ~histogram ~profile prog in
  let exits =
    Hashtbl.fold
      (fun key (ts : Spd_sim.Profile.tree_stat) acc ->
        (key, ts.traversals, Array.to_list ts.exit_taken) :: acc)
      profile []
    |> List.sort compare
  in
  ((r.ret, r.output), Spd_sim.Histogram.paths histogram, exits)

let map_arcs f =
  Ir.Prog.map_trees (fun _ (t : Ir.Tree.t) -> { t with arcs = f t.arcs })

let prop_arcs_invisible =
  QCheck.Test.make
    ~name:"observation, histogram and exit counts ignore arcs" ~count:30
    Gen_prog.arbitrary_source (fun src ->
      let naive = Pipeline.naive (compile src) in
      let e = execution naive in
      List.for_all
        (fun prog -> compare (execution prog) e = 0)
        [
          map_arcs (fun _ -> []) naive;
          map_arcs
            (List.map (fun (a : Ir.Memdep.t) ->
                 { a with status = Ir.Memdep.Removed Ir.Memdep.By_perfect }))
            naive;
          (* reordered as well as relabeled *)
          map_arcs
            (List.rev_map (fun (a : Ir.Memdep.t) ->
                 { a with status = Ir.Memdep.Must }))
            naive;
          Spd_disambig.Static_disambig.run naive;
        ])

(* [check] for a prepared pipeline whose program was replaced *)
let check_altered kind ~bench alter =
  let lowered = compile (Spd_workloads.Registry.by_name bench).source in
  let config = Pipeline.Config.v ~mem_latency:2 () in
  let naive = Pipeline.naive ~config lowered in
  let reference () = Pipeline.reference ~config naive in
  let p = Pipeline.prepare ~config kind lowered in
  check_bool
    (Pipeline.name kind ^ " unaltered passes")
    true
    (match Pipeline.check ~naive ~reference p with
    | _ -> true
    | exception Pipeline.Behaviour_mismatch _ -> false);
  match Pipeline.check ~naive ~reference { p with prog = alter p.prog } with
  | _ ->
      Alcotest.failf "%s: the altered program passed the check"
        (Pipeline.name kind)
  | exception Pipeline.Behaviour_mismatch _ -> ()

(* rewrite the first instruction [f] changes, in any tree *)
let alter_first f prog =
  let done_ = ref false in
  Ir.Prog.map_trees
    (fun _ (t : Ir.Tree.t) ->
      {
        t with
        insns =
          Array.map
            (fun i ->
              if !done_ then i
              else
                match f i with
                | Some i' -> done_ := true; i'
                | None -> i)
            t.insns;
      })
    prog

let bump_const (i : Ir.Insn.t) =
  match i.op with
  | Ir.Opcode.Const (Ir.Value.Int n) ->
      Some { i with op = Ir.Opcode.Const (Ir.Value.Int (n + 1)) }
  | _ -> None

let test_perturbed_static_perfect () =
  check_altered Pipeline.Static ~bench:"moment" (alter_first bump_const);
  check_altered Pipeline.Perfect ~bench:"moment" (alter_first bump_const)

let test_flipped_spec_guard () =
  check_altered Pipeline.Spec ~bench:"perm"
    (alter_first (fun (i : Ir.Insn.t) ->
         match i.guard with
         | Some g when Ir.Insn.is_store i ->
             Some { i with guard = Some { g with positive = not g.positive } }
         | _ -> None))

(* ------------------------------------------------------------------ *)
(* Experiment memoization *)

module Engine = H.Engine
module Query = H.Engine.Query

let with_session = Engine.Session.with_session

let test_experiment_memoizes () =
  with_session (Engine.Session.create ~jobs:1 ()) @@ fun s ->
  let cycles () =
    ask s ~bench:"moment" ~latency:2
      (Query.Cycles { kind = Pipeline.Spec; width = Spd_machine.Descr.Fus 4 })
  in
  let t0 = Unix.gettimeofday () in
  let a = cycles () in
  let t1 = Unix.gettimeofday () in
  let b = cycles () in
  let t2 = Unix.gettimeofday () in
  check_int "same result" a b;
  (* the second call is a table lookup; allow generous slack *)
  check_bool "second call much faster" true
    (t2 -. t1 < Float.max 0.05 ((t1 -. t0) /. 2.0))

let test_speedup_metric () =
  check_close "paper speedup metric" 0.25
    (Pipeline.speedup ~base:125 ~this:100);
  check_close "slowdown negative" (-0.2) (Pipeline.speedup ~base:100 ~this:125)

(* ------------------------------------------------------------------ *)
(* Reports render and mention every benchmark *)

let render f =
  let buf = Buffer.create 4096 in
  let ppf = Fmt.with_buffer buf in
  f ppf ();
  Fmt.flush ppf ();
  Buffer.contents buf

(* an artefact's tables, rendered as [spd report] prints them *)
let pretty tables = render (fun ppf () -> List.iter (H.Table.pp ppf) tables)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_reports_render () =
  with_session (H.Engine.Session.create ~jobs:1 ()) @@ fun s ->
  let t62 = pretty (H.Report.table6_2_tables s) in
  List.iter
    (fun (w : Spd_workloads.Workload.t) ->
      check_bool (w.name ^ " listed") true (contains t62 w.name))
    Spd_workloads.Registry.all;
  let t64 = pretty (H.Report.table6_4_tables s) in
  List.iter
    (fun k -> check_bool (k ^ " described") true (contains t64 k))
    [ "NAIVE"; "STATIC"; "SPEC"; "PERFECT" ];
  let t61 = pretty (H.Report.table6_1_tables s) in
  check_bool "branch latency shown" true (contains t61 "Branches")

(* ------------------------------------------------------------------ *)
(* Engine determinism: a session with jobs=4 must emit bit-identical
   Table 6-3 / Fig 6-2 / Fig 6-3 numbers to jobs=1, and a warm on-disk
   cache must reproduce them with zero pipeline recomputations. *)

(* the three deterministic grid artefacts, rendered through one
   explicit session *)
let grid_render s =
  pretty (H.Report.table6_3_tables s)
  ^ pretty (H.Report.fig6_2_tables s)
  ^ pretty (H.Report.fig6_3_tables s)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Sys.rmdir dir
  end

(* the names in [dir] ending in [suffix] *)
let files_with suffix dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f suffix)

let test_engine_determinism () =
  let seq = with_session (Engine.Session.create ~jobs:1 ()) grid_render in
  let par = with_session (Engine.Session.create ~jobs:4 ()) grid_render in
  check_bool "jobs=4 output bit-identical to jobs=1" true (String.equal seq par)

(* The machine-readable rendering must be as deterministic as the
   pretty one: the same artefact's whole report document, built through
   a 1-job and a 4-job session, serialises to bit-identical JSON. *)
let artefact_json s name =
  Spd_telemetry.Json.to_string
    (H.Artefact.to_json ~session:s (H.Artefact.of_names [ name ]))

let test_artefact_json_jobs_invariant () =
  let j1 =
    with_session (Engine.Session.create ~jobs:1 ()) (fun s ->
        artefact_json s "table6_3")
  in
  let j4 =
    with_session (Engine.Session.create ~jobs:4 ()) (fun s ->
        artefact_json s "table6_3")
  in
  check_bool "table6_3 JSON bit-identical across jobs" true
    (String.equal j1 j4)

(* Engine counters (minus wall clock and [jobs]) are themselves
   deterministic: memoization computes each cell exactly once, however
   many domains race for it. *)
let stats_line s =
  Fmt.str "%a" Engine.Stats.pp (Engine.Session.stats s)

let test_stats_pp_stable_across_jobs () =
  let run jobs =
    let s = Engine.Session.create ~jobs () in
    let line =
      with_session s (fun s -> ignore (grid_render s); stats_line s)
    in
    line
  in
  let l1 = run 1 and l4 = run 4 in
  check_bool "Stats.pp sorted key=value" true
    (String.length l1 > 0 && l1.[0] <> ' ');
  check_bool "Stats.pp identical across jobs" true (String.equal l1 l4)

(* SpD run-time dynamics: the interpreter attributes commits to the
   transformed regions.  The profiled arcs SpD picks (low alias
   probability by construction) commit overwhelmingly on the no-alias
   version, and alias-version stores squash. *)
let test_spd_dynamics_counts () =
  with_session (Engine.Session.create ~jobs:2 ()) @@ fun s ->
  let d = ask s ~bench:"perm" ~latency:2 Query.Spd_dynamics in
  check_bool "perm has transformed regions" true (d.Pipeline.regions <> []);
  check_bool "no-alias commits observed" true
    (List.exists
       (fun (r : Pipeline.region_dynamics) -> r.noalias_commits > 0)
       d.Pipeline.regions);
  let adi = ask s ~bench:"adi" ~latency:2 Query.Spd_dynamics in
  check_bool "adi squashes alias-version stores" true
    (adi.Pipeline.squashed > 0);
  (* every traversal of a region commits exactly one of its versions *)
  List.iter
    (fun (r : Pipeline.region_dynamics) ->
      check_bool "commit counts non-negative" true
        (r.alias_commits >= 0 && r.noalias_commits >= 0))
    d.Pipeline.regions

let test_engine_disk_cache () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "spd_cache_test_%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let s1 = Engine.Session.create ~jobs:2 ~disk_cache:true ~cache_dir:dir () in
  let cold = with_session s1 grid_render in
  let st1 = Engine.Session.stats s1 in
  check_bool "cold run prepares pipelines" true
    (st1.Engine.Stats.preparations > 0);
  let s2 = Engine.Session.create ~jobs:2 ~disk_cache:true ~cache_dir:dir () in
  let warm = with_session s2 grid_render in
  let st2 = Engine.Session.stats s2 in
  check_int "warm run: zero pipeline recomputations" 0
    st2.Engine.Stats.preparations;
  check_int "warm run: zero simulations" 0 st2.Engine.Stats.simulations;
  check_bool "warm run served from disk" true (st2.Engine.Stats.disk_hits > 0);
  check_bool "warm output bit-identical to cold" true
    (String.equal cold warm)

(* Run identity: the SPEC run a session shares — between latencies
   whose SpD choices agree, and with NAIVE's reference run where SpD
   applies nothing — is exactly the run of each preparation it serves:
   same return value, output, traversals and dynamics, and the same
   cycles at every width when it prices an independently prepared SPEC
   program. *)
let test_shared_run_identity () =
  with_session (Engine.Session.create ~jobs:2 ()) @@ fun s ->
  let widths =
    Spd_machine.Descr.Infinite
    :: List.init 8 (fun i -> Spd_machine.Descr.Fus (i + 1))
  in
  List.iter
    (fun (w : Spd_workloads.Workload.t) ->
      List.iter
        (fun latency ->
          let what = Printf.sprintf "%s@%d" w.name latency in
          let shared =
            Pipeline.run
              (Engine.get
                 (Engine.Session.prepared s ~bench:w.name ~latency
                    Pipeline.Spec))
          in
          let p =
            Pipeline.prepare
              ~config:(Pipeline.Config.v ~check:false ~mem_latency:latency ())
              Pipeline.Spec (compile w.source)
          in
          let fresh = Pipeline.run p in
          let plan = Pipeline.plan p in
          check_bool (what ^ ": return value and output") true
            (compare (shared.ret, shared.output) (fresh.ret, fresh.output) = 0);
          check_int (what ^ ": traversals") fresh.traversals shared.traversals;
          check_bool (what ^ ": dynamics") true
            (compare shared.dynamics fresh.dynamics = 0);
          List.iter
            (fun width ->
              check_int
                (Fmt.str "%s: cycles at %a" what Spd_machine.Descr.pp_width
                   width)
                (Pipeline.price plan fresh ~width)
                (Pipeline.price plan shared ~width))
            widths)
        [ 2; 6 ])
    Spd_workloads.Registry.all

(* One interpreter run per distinct program: a cold paper grid runs
   NAIVE once per benchmark (11, the [profile] stage) and SPEC once per
   distinct SPEC program (13, the [simulate] stage), and writes its 289
   records as one pack; a warm one runs nothing and reads every
   record. *)
let test_paper_grid_runs () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "spd_grid_runs_test_%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let counts () =
    let snap = Spd_telemetry.Metrics.snapshot () in
    let stage name =
      match
        List.assoc_opt ("spd.engine.stage_seconds." ^ name) snap
      with
      | Some (Spd_telemetry.Metrics.Hist h) -> h.count
      | _ -> 0
    in
    ( (match List.assoc_opt "spd.sim.runs" snap with
      | Some (Spd_telemetry.Metrics.Counter n) -> n
      | _ -> 0),
      stage "simulate",
      stage "profile" )
  in
  let report () =
    let s = Engine.Session.create ~jobs:2 ~disk_cache:true ~cache_dir:dir () in
    let runs0, simulate0, profile0 = counts () in
    with_session s (fun s ->
        ignore
          (H.Artefact.to_json ~session:s
             (H.Artefact.of_names H.Artefact.paper_set)));
    let runs1, simulate1, profile1 = counts () in
    ( Engine.Session.stats s,
      runs1 - runs0,
      simulate1 - simulate0,
      profile1 - profile0 )
  in
  let files suffix = List.length (files_with suffix dir) in
  let cold, cold_runs, cold_simulate, cold_profile = report () in
  check_int "cold: simulations" 13 cold.Engine.Stats.simulations;
  check_int "cold: simulate stage runs = simulations"
    cold.Engine.Stats.simulations cold_simulate;
  check_int "cold: profile stage runs = reference runs" 11 cold_profile;
  check_int "cold: interpreter runs" 24 cold_runs;
  check_int "cold: disk misses" 289 cold.Engine.Stats.disk_misses;
  check_int "cold: one pack" 1 (files ".pack");
  check_int "cold: no temporary file" 0 (files ".tmp");
  let warm, warm_runs, _, _ = report () in
  check_int "warm: simulations" 0 warm.Engine.Stats.simulations;
  check_int "warm: interpreter runs" 0 warm_runs;
  check_int "warm: disk hits" 289 warm.Engine.Stats.disk_hits;
  check_int "warm: still one pack" 1 (files ".pack")

(* ------------------------------------------------------------------ *)
(* The extension experiments through the engine *)

module Json = Spd_telemetry.Json

let member name doc =
  match Json.member name doc with
  | Some v -> v
  | None -> Alcotest.failf "JSON object lacks %S" name

let items doc = Option.value ~default:[] (Json.to_list doc)
let text doc = Option.value ~default:"" (Json.to_string_opt doc)

(* [(artefact, [(row label, cells)])] of a report document, every
   table's rows in order *)
let artefact_rows doc =
  List.map
    (fun a ->
      ( text (member "name" a),
        List.concat_map
          (fun t ->
            List.map
              (fun r -> (text (member "label" r), items (member "cells" r)))
              (items (member "rows" t)))
          (items (member "tables" a)) ))
    (items (member "artefacts" doc))

let failure_keys doc =
  List.map (fun f -> text (member "key" f)) (items (member "failures" doc))

let extensions_json s =
  H.Artefact.to_json ~session:s (H.Artefact.of_names H.Artefact.extension_set)

(* A cell that fails renders as null and is named in the document's
   failures; the rest of the document still renders.  Under a fuel
   budget every ungrafted STATIC cell fails.  Under a fault on adi's
   STATIC cells, ext_dynamic and ext_grafting lose adi's row only, and
   every ext_params row, since adi is in every NRC mean. *)
let test_extension_containment () =
  let starts_with prefix key = String.starts_with ~prefix key in
  let starved =
    with_session (Engine.Session.create ~jobs:2 ~fuel:1000 ()) extensions_json
  in
  let failures = failure_keys starved in
  List.iter
    (fun (name, rows) ->
      List.iter
        (fun (label, cells) ->
          if List.mem Json.Null cells then
            check_bool
              (Printf.sprintf "%s: %s's failure named" name label)
              true
              (List.exists (starts_with (label ^ "/6/")) failures
              || name = "ext_params");
          if name <> "ext_grafting" then
            check_bool
              (Printf.sprintf "%s: %s null under the fuel budget" name label)
              true
              (List.for_all (( = ) Json.Null) cells))
        rows)
    (artefact_rows starved);
  check_bool "fuel: adi's STATIC cell named" true
    (List.mem "adi/6/STATIC/cycles/fus5" failures);
  let committed =
    match
      Json.of_string
        (In_channel.with_open_bin "../BENCH_REPORT.json" In_channel.input_all)
    with
    | Ok doc -> artefact_rows doc
    | Error e -> Alcotest.failf "BENCH_REPORT.json: %s" e
  in
  let faults =
    match H.Faults.parse "cell-raise:adi/6/STATIC" with
    | Ok f -> f
    | Error e -> Alcotest.fail e
  in
  let faulted =
    with_session (Engine.Session.create ~jobs:2 ~faults ()) extensions_json
  in
  List.iter
    (fun (name, rows) ->
      let want = List.assoc name committed in
      check_int (name ^ ": rows") (List.length want) (List.length rows);
      List.iter2
        (fun (label, cells) (_, committed_cells) ->
          let what = Printf.sprintf "%s: %s" name label in
          if name = "ext_params" then
            check_bool (what ^ " null") true
              (List.for_all (( = ) Json.Null) cells)
          else
            check_bool (what ^ " as committed unless adi")
              (label <> "adi")
              (Json.to_string (Json.List cells)
              = Json.to_string (Json.List committed_cells)))
        rows want)
    (artefact_rows faulted);
  List.iter
    (fun key ->
      check_bool ("fault: " ^ key ^ " named") true
        (List.mem key (failure_keys faulted)))
    [
      "adi/6/STATIC/cycles/fus5"; "adi/6/STATIC+graft/cycles/fus5";
      "adi/6/STATIC/summary";
    ]

(* The extensions share front ends, reference runs, SPEC runs and
   STATIC cells with the paper grid: the whole report is 170
   preparations and 32 simulations, whatever the pool size. *)
let test_extension_sharing () =
  List.iter
    (fun jobs ->
      let st =
        with_session (Engine.Session.create ~jobs ()) (fun s ->
            ignore
              (H.Artefact.to_json ~session:s
                 (H.Artefact.of_names
                    (H.Artefact.paper_set @ H.Artefact.extension_set)));
            Engine.Session.stats s)
      in
      let what = Printf.sprintf "jobs %d: " jobs in
      check_int (what ^ "preparations") 170 st.Engine.Stats.preparations;
      check_int (what ^ "simulations") 32 st.Engine.Stats.simulations;
      check_int (what ^ "failures") 0 st.Engine.Stats.cell_failures)
    [ 1; 4 ]

(* A variant is spelled where it departs from the paper's program, in
   the request key before its budget and in the failure key after the
   kind; the paper's program, spelled however, keeps its plain key. *)
let test_variant_keys () =
  let module Heur = Spd_core.Heuristic in
  let q ?graft ?spd_params ?fuel kind =
    Query.v ?graft ?spd_params ?fuel ~bench:"adi" ~latency:6
      (Query.Cycles { kind; width = Spd_machine.Descr.Fus 5 })
  in
  let params = { Heur.default_params with max_expansion = 1.25 } in
  check_string "plain" "adi/6/cycles/SPEC/fus5" (Query.key (q Pipeline.Spec));
  check_string "grafted" "adi/6/cycles/SPEC/fus5+graft"
    (Query.key (q ~graft:true Pipeline.Spec));
  check_string "parameters" "adi/6/cycles/SPEC/fus5+max_expansion=1.25"
    (Query.key (q ~spd_params:params Pipeline.Spec));
  check_string "both, then the budget"
    "adi/6/cycles/SPEC/fus5+graft+max_expansion=1.25+fuel=9"
    (Query.key (q ~graft:true ~spd_params:params ~fuel:9 Pipeline.Spec));
  check_string "default parameters are the paper's" "adi/6/cycles/SPEC/fus5"
    (Query.key
       (q ~graft:false ~spd_params:Heur.default_params Pipeline.Spec));
  check_bool "default parameters: no variant" true
    ((q ~spd_params:Heur.default_params Pipeline.Spec).Query.variant = None);
  (* the failure keys, from cells a one-traversal budget starves *)
  with_session (Engine.Session.create ~jobs:1 ~fuel:1 ()) @@ fun s ->
  List.iter
    (fun q -> ignore (Engine.Session.submit s q))
    [
      q ~graft:true Pipeline.Spec; q ~spd_params:params Pipeline.Spec;
      q ~spd_params:params Pipeline.Static;
    ];
  check_bool "failure keys spell the variant after the kind" true
    (List.map (fun (f : Engine.failure) -> f.Engine.key)
       (Engine.Session.failures s)
    = [
        "adi/6/SPEC+graft/cycles/fus5";
        "adi/6/SPEC+max_expansion=1.25/cycles/fus5";
        "adi/6/STATIC/cycles/fus5";
      ])

(* A variant cell answers what the pipeline computes for the same
   configuration on its own: grafted cells of every pipeline, and a SPEC
   cell under other heuristic parameters. *)
let test_variant_direct_reference () =
  let module Heur = Spd_core.Heuristic in
  let width = Spd_machine.Descr.Fus 5 in
  with_session (Engine.Session.create ~jobs:2 ()) @@ fun s ->
  let direct ~config bench kind =
    Pipeline.cycles
      (Pipeline.prepare ~config kind
         (compile (Spd_workloads.Registry.by_name bench).source))
      ~width
  in
  List.iter
    (fun bench ->
      List.iter
        (fun kind ->
          check_int
            (Printf.sprintf "%s grafted %s" bench (Pipeline.name kind))
            (direct
               ~config:(Pipeline.Config.v ~graft:true ~mem_latency:6 ())
               bench kind)
            (Engine.get
               (Engine.Session.submit s
                  (Query.v ~graft:true ~bench ~latency:6
                     (Query.Cycles { kind; width })))))
        Pipeline.all)
    [ "adi"; "fft"; "moment" ];
  let spd_params = { Heur.default_params with min_gain = 0.25 } in
  check_int "adi SPEC, MinGain 0.25"
    (direct
       ~config:(Pipeline.Config.v ~spd_params ~mem_latency:6 ())
       "adi" Pipeline.Spec)
    (Engine.get
       (Engine.Session.submit s
          (Query.v ~spd_params ~bench:"adi" ~latency:6
             (Query.Cycles { kind = Pipeline.Spec; width }))))

(* One preparation per SPEC cell and one exploration per distinct
   validation obligation.  In one fresh session without a disk cache,
   the paper set prepares 88 programs and explores nothing; the
   spd-validate artefact after it explores the steps those SPEC
   preparations recorded, preparing nothing more, and proves the paper
   grid's 62 SpD applications with 28 explorations, at one domain and
   at two.  The [validate] stage observes each exploration once. *)
let test_certify_explores_once () =
  let validate_stage () =
    match
      List.assoc_opt "spd.engine.stage_seconds.validate"
        (Spd_telemetry.Metrics.snapshot ())
    with
    | Some (Spd_telemetry.Metrics.Hist h) -> h.count
    | _ -> 0
  in
  List.iter
    (fun jobs ->
      let what = Printf.sprintf "jobs %d" jobs in
      let before = validate_stage () in
      let reports, st =
        with_session (Engine.Session.create ~jobs ()) (fun s ->
            List.iter
              (fun (a : H.Artefact.t) -> ignore (a.tables s))
              (H.Artefact.of_names H.Artefact.paper_set);
            let paper = Engine.Session.stats s in
            check_int (what ^ ": paper set preparations") 88
              paper.Engine.Stats.preparations;
            check_int (what ^ ": paper set explorations") 0
              paper.Engine.Stats.explorations;
            check_int (what ^ ": paper set validate stage count") 0
              (validate_stage () - before);
            ignore (H.Report.spd_validate_tables s);
            ( List.concat_map
                (fun bench ->
                  List.concat_map
                    (fun latency -> ask s ~bench ~latency Query.Spd_verdicts)
                    H.Report.latencies)
                (H.Report.benches ()),
              Engine.Session.stats s ))
      in
      let proved, _, _ = Spd_validate.Validate.tally reports in
      check_int (what ^ ": applications") 62 (List.length reports);
      check_int (what ^ ": proved") 62 proved;
      check_int (what ^ ": preparations") 88 st.Engine.Stats.preparations;
      check_int (what ^ ": explorations") 28 st.Engine.Stats.explorations;
      check_int (what ^ ": validate stage count") 28
        (validate_stage () - before))
    [ 1; 2 ]

let test_parallel_map_order () =
  let s = Engine.Session.create ~jobs:4 () in
  Fun.protect ~finally:(fun () -> Engine.Session.close s) @@ fun () ->
  let xs = List.init 100 Fun.id in
  let ys = Engine.Session.parallel_map s (fun x -> x * x) xs in
  check_bool "parallel_map preserves order" true
    (ys = List.map (fun x -> x * x) xs);
  (* exceptions surface after the batch settles *)
  check_bool "parallel_map re-raises" true
    (match
       Engine.Session.parallel_map s
         (fun x -> if x = 17 then failwith "boom" else x)
         xs
     with
    | _ -> false
    | exception Failure _ -> true)

(* ------------------------------------------------------------------ *)
(* The Query API: one typed request path *)

let cycles_q ?fuel ?deadline () =
  Query.v ?fuel ?deadline ~bench:"moment" ~latency:2
    (Query.Cycles { kind = Pipeline.Spec; width = Spd_machine.Descr.Fus 4 })

let test_query_submit () =
  with_session (Engine.Session.create ~jobs:1 ()) @@ fun s ->
  (* submit answers what the pipeline computes for the same cell *)
  let via_query = Engine.get (Engine.Session.submit s (cycles_q ())) in
  let direct =
    Pipeline.cycles
      (Engine.get
         (Engine.Session.prepared s ~bench:"moment" ~latency:2 Pipeline.Spec))
      ~width:(Spd_machine.Descr.Fus 4)
  in
  check_int "submit = direct pipeline" direct via_query;
  (* keys are stable, human-readable coordinates *)
  check_bool "key spells the cell" true
    (Query.key (cycles_q ()) = "moment/2/cycles/SPEC/fus4");
  check_bool "budgets are part of the key" true
    (Query.key (cycles_q ~fuel:7 ()) = "moment/2/cycles/SPEC/fus4+fuel=7");
  (* the smart constructor refuses nonsense budgets *)
  check_bool "fuel must be positive" true
    (match Query.v ~fuel:0 ~bench:"moment" ~latency:2 Query.Spd_counts with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* The acceptance property of the daemon API: a burst of identical
   concurrent requests funnels onto ONE cell computation.  Eight
   domains submit the same query 100 times in total; the engine's
   counters must record exactly one preparation and one simulation. *)
let test_submit_dedup_concurrent () =
  with_session (Engine.Session.create ~jobs:2 ~disk_cache:false ())
  @@ fun s ->
  let per_domain = 100 / 8 and extra = 100 mod 8 in
  let domains =
    List.init 8 (fun i ->
        let n = per_domain + if i < extra then 1 else 0 in
        Domain.spawn (fun () ->
            List.init n (fun _ -> Engine.Session.submit s (cycles_q ()))))
  in
  let answers = List.concat_map Domain.join domains in
  check_int "100 requests answered" 100 (List.length answers);
  let first = Engine.get (List.hd answers) in
  List.iter
    (fun o -> check_int "all answers equal" first (Engine.get o))
    answers;
  let st = Engine.Session.stats s in
  check_int "exactly one preparation" 1 st.Engine.Stats.preparations;
  check_int "exactly one simulation" 1 st.Engine.Stats.simulations

(* Per-request budgets are tenant quotas: a fuel-starved request fails
   alone, and the same coordinates without a budget still succeed. *)
let test_query_quota_isolation () =
  with_session (Engine.Session.create ~jobs:1 ~disk_cache:false ())
  @@ fun s ->
  (match Engine.Session.submit s (cycles_q ~fuel:1 ()) with
  | Engine.Failed _ -> ()
  | Engine.Ok _ -> Alcotest.fail "fuel=1 should exhaust the simulator");
  (match Engine.Session.submit s (cycles_q ()) with
  | Engine.Ok _ -> ()
  | Engine.Failed f ->
      Alcotest.failf "unbudgeted neighbour failed: %s"
        (Printexc.to_string f.Engine.exn));
  (* the starved request is recorded under its own budgeted key *)
  check_bool "failure recorded under the budgeted key" true
    (List.exists
       (fun (f : Engine.failure) ->
         f.Engine.key = "moment/2/SPEC/cycles/fus4+fuel=1")
       (Engine.Session.failures s))

(* ------------------------------------------------------------------ *)
(* The decision ledger through the engine (spd why) *)

(* the spd-decisions/1 document exactly as `spd why --format json`
   prints it *)
let why_json ?fn ?tree s workload =
  Spd_telemetry.Json.to_string
    (H.Why.to_json ?fn ?tree (H.Why.analyze ~mem_latency:2 s workload))

(* The why document is deterministic: byte-identical across job counts
   and across a cold and a warm on-disk cache. *)
let test_why_json_deterministic () =
  let j1 =
    with_session (Engine.Session.create ~jobs:1 ()) (fun s ->
        why_json s "perm")
  in
  let j4 =
    with_session (Engine.Session.create ~jobs:4 ()) (fun s ->
        why_json s "perm")
  in
  check_bool "why JSON bit-identical across jobs" true (String.equal j1 j4);
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "spd_why_cache_test_%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cold =
    with_session
      (Engine.Session.create ~jobs:2 ~disk_cache:true ~cache_dir:dir ())
      (fun s -> why_json s "perm")
  in
  let s2 = Engine.Session.create ~jobs:2 ~disk_cache:true ~cache_dir:dir () in
  let warm = with_session s2 (fun s -> why_json s "perm") in
  check_int "warm why: zero pipeline recomputations" 0
    (Engine.Session.stats s2).Engine.Stats.preparations;
  check_bool "warm why byte-identical to cold" true (String.equal cold warm);
  check_bool "why = uncached CLI baseline" true (String.equal j1 cold)

(* The ledger cell, the spd-counts cell and the report rollup agree:
   three surfaces, one underlying ledger. *)
let test_why_agrees_with_counts () =
  with_session (Engine.Session.create ~jobs:2 ()) @@ fun s ->
  List.iter
    (fun latency ->
      List.iter
        (fun bench ->
          let ds = ask s ~bench ~latency Query.Spd_decisions in
          let applied = Spd_core.Heuristic.applied_decisions ds in
          let row =
            List.fold_left
              (fun (r, w, o) (d : Spd_core.Heuristic.decision) ->
                match d.kind with
                | Spd_ir.Memdep.Raw -> (r + 1, w, o)
                | Spd_ir.Memdep.War -> (r, w + 1, o)
                | Spd_ir.Memdep.Waw -> (r, w, o + 1))
              (0, 0, 0) applied
          in
          check_bool
            (Printf.sprintf "%s/lat%d: ledger row = spd-counts row" bench
               latency)
            true
            (row = ask s ~bench ~latency Query.Spd_counts))
        (H.Report.benches ()))
    [ 2; 6 ];
  (* the aggregate artefact is registered and builds from the same
     cells *)
  check_bool "spd-decisions artefact registered" true
    (H.Artefact.find "spd-decisions" <> None);
  check_bool "spd-decisions tables non-empty" true
    (H.Report.spd_decisions_tables s <> [])

(* the flag parsers shared by bin/spd and the daemon *)
let test_cliflags () =
  let module C = H.Cliflags in
  check_bool "pos_int ok" true (C.pos_int ~flag:"--fuel" "42" = Ok 42);
  (match C.pos_int ~flag:"--fuel" "0" with
  | Error msg ->
      check_bool "pos_int names the flag" true (contains msg "--fuel")
  | Ok _ -> Alcotest.fail "0 is not a positive integer");
  check_bool "pos_float ok" true
    (C.pos_float ~flag:"--deadline" "1.5" = Ok 1.5);
  check_bool "pos_float rejects nan" true
    (Result.is_error (C.pos_float ~flag:"--deadline" "nan"))

let tests =
  [
    case "PERFECT <= STATIC <= NAIVE (infinite machine)"
      test_pipeline_ordering_infinite;
    case "SPEC <= STATIC (infinite machine)" test_spec_no_slower_infinite;
    qcase prop_pipelines_preserve_behaviour;
    qcase prop_spd_finds_the_helper;
    qcase prop_arcs_invisible;
    case "check: perturbed STATIC and PERFECT code mismatch"
      test_perturbed_static_perfect;
    case "check: SPEC with a flipped guard mismatches" test_flipped_spec_guard;
    case "experiment memoization" test_experiment_memoizes;
    case "query submit: one request path" test_query_submit;
    case "query submit: concurrent burst deduplicates" test_submit_dedup_concurrent;
    case "query quotas isolate tenants" test_query_quota_isolation;
    case "cliflags: shared flag parsers" test_cliflags;
    case "speedup metric" test_speedup_metric;
    case "reports render" test_reports_render;
    case "parallel_map: order and exceptions" test_parallel_map_order;
    case "engine determinism across jobs" test_engine_determinism;
    case "artefact JSON invariant across jobs" test_artefact_json_jobs_invariant;
    case "Stats.pp stable across jobs" test_stats_pp_stable_across_jobs;
    case "spd-dynamics counters" test_spd_dynamics_counts;
    case "engine on-disk cache" test_engine_disk_cache;
    case "shared SPEC run = fresh run (identity oracle)"
      test_shared_run_identity;
    case "paper grid: one run per distinct program" test_paper_grid_runs;
    case "paper grid: one exploration per distinct obligation"
      test_certify_explores_once;
    case "extensions: failures contained per cell" test_extension_containment;
    case "extensions share the paper grid's work" test_extension_sharing;
    case "variant keys spell graft and parameters" test_variant_keys;
    case "variant cells = direct pipeline" test_variant_direct_reference;
    case "why JSON deterministic (jobs, cache)" test_why_json_deterministic;
    case "why ledger = spd-counts row" test_why_agrees_with_counts;
  ]
