(** The [spd] command-line tool.

    {v
    spd compile FILE [--pipeline P] [--mem-latency N]   dump the decision-tree IR
    spd run     FILE [--pipeline P] [--width W] ...     compile, simulate, time
    spd bench   NAME [--mem-latency N]                  one built-in benchmark, all pipelines
    spd explain WORKLOAD [--fn F] [--tree T]            occupancy grids + critical paths
    spd why     WORKLOAD [--fn F] [--tree T]            the heuristic's decision ledger
                [--format pretty|json|csv]
    spd validate WORKLOAD [--fn F] [--tree T]           translation-validate the SpD transform
                [--format pretty|json|csv]
    spd cache   stats [--dir _spd_cache] [--json]       on-disk result cache statistics
    spd report  [ARTEFACT] [--jobs N] [--no-cache]      regenerate the paper's tables/figures
                [--trace FILE] [--format pretty|json|csv]
    spd serve   [--socket PATH | --tcp HOST:PORT]       experiment daemon (framed JSON-RPC)
                [--log FILE] [--trace FILE] [--slow-ms MS]
    spd call    METHOD [PARAMS] [--socket PATH]         one request against a running daemon
                [--format json|prometheus]
    spd top     [--socket PATH | --tcp HOST:PORT]       live daemon dashboard (polls health+metrics)
    spd list                                            list built-in benchmarks
    v}

    [FILE] is a mini-C source file; [P] is one of naive, static, spec,
    perfect (default spec). *)

open Cmdliner
module Pipeline = Spd_harness.Pipeline

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let pipeline_conv =
  let parse = function
    | "naive" -> Ok Pipeline.Naive
    | "static" -> Ok Pipeline.Static
    | "spec" -> Ok Pipeline.Spec
    | "perfect" -> Ok Pipeline.Perfect
    | s -> Error (`Msg (Printf.sprintf "unknown pipeline %S" s))
  in
  Arg.conv (parse, Pipeline.pp)

let pipeline_arg =
  Arg.(
    value
    & opt pipeline_conv Pipeline.Spec
    & info [ "p"; "pipeline" ] ~docv:"PIPELINE"
        ~doc:"Disambiguation pipeline: naive, static, spec or perfect.")

(* budget, pool and width flags shared by the subcommands; parsing
   lives in Cliflags so every subcommand rejects the same spellings with
   the same wording *)

let pos_int_conv flag =
  Arg.conv
    ( (fun s ->
        Result.map_error
          (fun e -> `Msg e)
          (Spd_harness.Cliflags.pos_int ~flag s)),
      Fmt.int )

let pos_float_conv flag =
  Arg.conv
    ( (fun s ->
        Result.map_error
          (fun e -> `Msg e)
          (Spd_harness.Cliflags.pos_float ~flag s)),
      Fmt.float )

let mem_latency_arg =
  Arg.(
    value
    & opt (pos_int_conv "--mem-latency") 2
    & info [ "m"; "mem-latency" ] ~docv:"CYCLES"
        ~doc:"Memory latency in cycles (the paper uses 2 and 6).")

let width_arg =
  Arg.(
    value
    & opt (some (pos_int_conv "--width")) None
    & info [ "w"; "width" ] ~docv:"FUS"
        ~doc:
          "Number of universal functional units (default: infinite \
           machine).")

(* [--width] of the subcommands that default to the paper's 5 FUs *)
let fus_arg =
  Arg.(
    value
    & opt (pos_int_conv "--width") 5
    & info [ "w"; "width" ] ~docv:"FUS"
        ~doc:"Number of universal functional units (default 5).")

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Mini-C source file.")

(* front-end and simulator errors exit 1 with the daemon's wording *)
let handle_errors f =
  try f ()
  with e -> (
    let bt = Printexc.get_raw_backtrace () in
    match Spd_harness.Cliflags.error_message e with
    | Some msg ->
        Fmt.epr "%s@." msg;
        exit 1
    | None -> Printexc.raise_with_backtrace e bt)

let prepare_src ~mem_latency pipeline src =
  Pipeline.prepare
    ~config:(Pipeline.Config.v ~mem_latency ())
    pipeline
    (Spd_lang.Lower.compile src)

(* shared flags *)

let format_conv =
  let module Artefact = Spd_harness.Artefact in
  let parse s =
    match Artefact.format_of_string s with
    | Some f -> Ok f
    | None ->
        Error (`Msg (Printf.sprintf "expected pretty, json or csv, got %S" s))
  in
  Arg.conv
    ( parse,
      fun ppf f ->
        Fmt.string ppf
          (match f with
          | Artefact.Pretty -> "pretty"
          | Artefact.Json -> "json"
          | Artefact.Csv -> "csv") )

let format_arg ~doc =
  Arg.(
    value
    & opt format_conv Spd_harness.Artefact.Pretty
    & info [ "format" ] ~docv:"FORMAT" ~doc)

let faults_conv =
  let parse s =
    match Spd_harness.Faults.parse s with
    | Ok f -> Ok f
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Spd_harness.Faults.pp)

let faults_arg =
  Arg.(
    value
    & opt (some faults_conv) None
    & info [ "inject-fault" ] ~docv:"SPEC"
        ~doc:
          "Deterministic fault injection: comma-separated \
           $(b,cache-corrupt:N) (corrupt the Nth cache read), \
           $(b,cell-raise:KEY[@TIMES]) (raise in cells whose key \
           starts with KEY, e.g. adi/2/SPEC), $(b,fuel:N) (tight \
           simulator budget), $(b,worker-raise:N) (crash the daemon \
           worker on the first N connections — for exercising \
           supervision) and $(b,checker-raise:N) (raise from the first N \
           SpD transform-checker calls — for exercising per-cell \
           containment).")

let jobs_arg =
  Arg.(
    value
    & opt (some (pos_int_conv "--jobs")) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Size of the experiment engine's domain pool (default: the \
           number of cores).  $(b,--jobs 1) is fully sequential and \
           emits bit-identical numbers.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Disable the content-addressed on-disk result cache \
           ($(b,_spd_cache/)).")

let retries_arg =
  Arg.(
    value
    & opt (some (pos_int_conv "--retries")) None
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Attempts per grid cell before a failure is recorded and the \
           cell renders as n/a (default 1).")

let fuel_arg =
  Arg.(
    value
    & opt (some (pos_int_conv "--fuel")) None
    & info [ "fuel" ] ~docv:"N"
        ~doc:"Simulator traversal budget per run (default 60M).")

let deadline_arg =
  Arg.(
    value
    & opt (some (pos_float_conv "--deadline")) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:"Per-cell wall-clock budget in seconds.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON of the run (spans per grid \
           cell with pipeline-stage child spans), loadable in Perfetto \
           / chrome://tracing.  Written even when the run aborts.")

(* ------------------------------------------------------------------ *)

let compile_cmd =
  let run file pipeline mem_latency =
    handle_errors (fun () ->
        let p = prepare_src ~mem_latency pipeline (read_file file) in
        Fmt.pr "%a@." Spd_ir.Prog.pp p.prog;
        if p.applications <> [] then begin
          Fmt.pr "@.SpD applications:@.";
          List.iter
            (fun (a : Spd_core.Heuristic.application) ->
              Fmt.pr "  %s tree %d: %a arc #%d->#%d gain %.2f cost %d@."
                a.func a.tree_id Spd_ir.Memdep.pp_kind a.kind (fst a.arc)
                (snd a.arc) a.predicted_gain a.cost)
            p.applications
        end)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a mini-C file and dump the IR.")
    Term.(const run $ file_arg $ pipeline_arg $ mem_latency_arg)

let run_cmd =
  let run file pipeline mem_latency width =
    handle_errors (fun () ->
        let p = prepare_src ~mem_latency pipeline (read_file file) in
        let descr =
          {
            Spd_machine.Descr.width =
              (match width with
              | None -> Spd_machine.Descr.Infinite
              | Some n -> Spd_machine.Descr.Fus n);
            mem_latency;
          }
        in
        let r = Pipeline.run p in
        List.iter (fun v -> Fmt.pr "%a@." Spd_ir.Value.pp v) r.output;
        Fmt.pr "return      %a@." Spd_ir.Value.pp r.ret;
        Fmt.pr "machine     %a (%a)@." Spd_machine.Descr.pp descr Pipeline.pp
          pipeline;
        Fmt.pr "traversals  %d@." r.traversals;
        Fmt.pr "cycles      %d@." (Pipeline.price p r ~width:descr.width))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Compile, disambiguate, schedule and simulate a mini-C file.")
    Term.(const run $ file_arg $ pipeline_arg $ mem_latency_arg $ width_arg)

let workload_names = Spd_harness.Cliflags.workload_names

(* refuse an unknown workload with the daemon's wording *)
let require_workload name =
  match Spd_harness.Cliflags.check_workload name with
  | Ok () -> ()
  | Error msg ->
      Fmt.epr "%s@." msg;
      exit 1

let bench_run_cmd =
  let run name mem_latency width =
    require_workload name;
    handle_errors (fun () ->
        let w = Spd_workloads.Registry.by_name name in
        let width =
          match width with
          | None -> Spd_machine.Descr.Fus 5
          | Some n -> Spd_machine.Descr.Fus n
        in
        Fmt.pr "%-10s %-30s@." w.name w.description;
        Fmt.pr "%-8s %10s %10s@." "pipeline" "cycles" "speedup";
        let lowered = Spd_lang.Lower.compile w.source in
        let base = ref 0 in
        List.iter
          (fun kind ->
            let p =
              Pipeline.prepare
                ~config:(Pipeline.Config.v ~mem_latency ())
                kind lowered
            in
            let cycles = Pipeline.cycles p ~width in
            if kind = Pipeline.Naive then base := cycles;
            Fmt.pr "%-8s %10d %9.1f%%@." (Pipeline.name kind) cycles
              (100.0 *. Pipeline.speedup ~base:!base ~this:cycles))
          Pipeline.all)
  in
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME" ~doc:"Benchmark name (see $(b,spd list)).")
  in
  Term.(const run $ name_arg $ mem_latency_arg $ width_arg)

let bench_micro_cmd =
  let module Microbench = Spd_harness.Microbench in
  let run names mem_latency width min_time baseline max_drop format =
    handle_errors (fun () ->
        List.iter require_workload names;
        let workloads = match names with [] -> None | ns -> Some ns in
        let t = Microbench.run ~mem_latency ~width ~min_time ?workloads () in
        Spd_harness.Artefact.render_doc format Fmt.stdout
          ~tables:(fun () -> Microbench.to_tables t)
          ~json:(fun () -> Microbench.to_json t);
        match baseline with
        | None -> ()
        | Some file -> (
            match Spd_telemetry.Json.of_string (read_file file) with
            | Error msg ->
                Fmt.epr "bench micro: baseline %s is not valid JSON: %s@."
                  file msg;
                exit 1
            | Ok doc ->
                let dropped = ref false in
                List.iter
                  (fun (s : Microbench.sample) ->
                    match
                      Microbench.simulate_per_sec doc ~workload:s.workload
                    with
                    | None -> ()
                    | Some base ->
                        let cur = s.simulate.Microbench.per_sec in
                        let drop_pct =
                          if base > 0.0 then (base -. cur) /. base *. 100.0
                          else 0.0
                        in
                        Fmt.epr
                          "perf: %-10s simulate %13.0f trav/s, baseline \
                           %13.0f (%+.1f%%)@."
                          s.workload cur base (-.drop_pct);
                        if drop_pct > max_drop then begin
                          dropped := true;
                          Fmt.epr
                            "perf: %s simulate throughput dropped %.1f%% \
                             (budget %.0f%%)@."
                            s.workload drop_pct max_drop
                        end)
                  t.Microbench.samples;
                if !dropped then exit 2))
  in
  let names_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"WORKLOAD"
          ~doc:
            "Workloads to benchmark (default: the paper's Table 6-2 set \
             plus the extras, e.g. $(b,matmul300)).")
  in
  let min_time_arg =
    Arg.(
      value
      & opt float 0.3
      & info [ "min-time" ] ~docv:"SECONDS"
          ~doc:
            "Minimum wall clock accumulated per measured stage (default \
             0.3).")
  in
  let baseline_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Committed spd-micro/1 snapshot to compare simulate \
             throughput against (see $(b,make perf-smoke)); exits 2 \
             when a measured workload drops more than $(b,--max-drop) \
             percent below it.")
  in
  let max_drop_arg =
    Arg.(
      value
      & opt float 25.0
      & info [ "max-drop" ] ~docv:"PCT"
          ~doc:
            "Tolerated simulate-throughput drop vs $(b,--baseline), in \
             percent (default 25).")
  in
  Cmd.v
    (Cmd.info "micro"
       ~doc:
         "Measure compile/schedule/simulate throughput per workload and \
          emit an spd-micro/1 document; optionally gate against a \
          committed baseline snapshot.")
    Term.(
      const run $ names_arg $ mem_latency_arg $ fus_arg $ min_time_arg
      $ baseline_arg $ max_drop_arg
      $ format_arg
          ~doc:
            "Output format: $(b,pretty) (default), $(b,json) (one \
             spd-micro/1 document) or $(b,csv).")

(* the subcommands of [spd bench]; the main entry point rewrites
   [spd bench NAME] for any other word to [spd bench run NAME] *)
let bench_subcommands = [ "run"; "micro" ]

let bench_cmd =
  Cmd.group ~default:bench_run_cmd
    (Cmd.info "bench"
       ~doc:
         "Run one built-in benchmark under all four pipelines; \
          $(b,micro) measures hot-path throughput.")
    [
      Cmd.v
        (Cmd.info "run"
           ~doc:"Run one built-in benchmark under all four pipelines.")
        bench_run_cmd;
      bench_micro_cmd;
    ]

let report_cmd =
  let module Artefact = Spd_harness.Artefact in
  let module Trace = Spd_telemetry.Trace in
  let run list_only validate name jobs no_cache timings retries fuel
      deadline widths faults trace format =
    if list_only then Artefact.pp_list Fmt.stdout ()
    else if validate then begin
      (* grid certification: translation-validate every SpD application
         of the paper grid instead of rendering artefacts *)
      let module Validation = Spd_harness.Validation in
      let failed =
        Trace.capture trace (fun () ->
            Spd_harness.Engine.Session.with_session
              (Spd_harness.Engine.Session.create ?jobs
                 ~disk_cache:(not no_cache) ?retries ?fuel ?deadline
                 ?faults:(Option.map Fun.id faults) ())
              (fun session ->
                let c = Validation.certify session in
                Fmt.pr "%a@." Validation.pp_certification c;
                if timings then
                  List.iter
                    (Spd_harness.Table.pp Fmt.stdout)
                    (Spd_harness.Report.timings_tables session);
                not (Validation.acceptable c)))
      in
      if failed then exit 2
    end
    else begin
      (match widths with
      | None -> ()
      | Some ws -> Spd_harness.Report.set_widths ws);
      let failed =
        (* [capture] writes the trace file even when a cell raises *)
        Trace.capture trace (fun () ->
            Spd_harness.Engine.Session.with_session
              (Spd_harness.Engine.Session.create ?jobs
                 ~disk_cache:(not no_cache) ?retries ?fuel ?deadline
                 ?faults:(Option.map Fun.id faults) ())
              (fun session ->
                let render names =
                  Artefact.render ~session format Fmt.stdout
                    (Artefact.of_names names)
                in
                (match name with
                | None -> render Artefact.paper_set
                | Some "all" ->
                    render (Artefact.paper_set @ Artefact.extension_set)
                | Some n -> (
                    match Artefact.find n with
                    | Some _ -> render [ n ]
                    | None ->
                        Fmt.epr "unknown artefact %s (one of: all, %s)@." n
                          (String.concat ", " (Artefact.names ()));
                        exit 1));
                (match format with
                | Artefact.Pretty ->
                    if timings && name <> Some "timings" then
                      List.iter
                        (Spd_harness.Table.pp Fmt.stdout)
                        (Spd_harness.Report.timings_tables session);
                    Spd_harness.Report.failure_appendix session Fmt.stdout ()
                | _ -> ());
                Spd_harness.Engine.Session.failures session <> []))
      in
      if failed then exit 2
    end
  in
  let list_arg =
    Arg.(
      value & flag
      & info [ "list" ]
          ~doc:"List the artefact registry with one-line descriptions.")
  in
  let name_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"ARTEFACT"
          ~doc:
            "Table or figure to regenerate (default: the paper's tables \
             and figures; $(b,all) adds the extension experiments).")
  in
  let timings_arg =
    Arg.(
      value & flag
      & info [ "timings" ]
          ~doc:"Append the engine's per-stage wall-clock report.")
  in
  let validate_arg =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Certify the paper grid instead of rendering artefacts: \
             translation-validate every SpD application (each built-in \
             workload at 2- and 6-cycle memory) and print the verdict \
             tally.  Exits 2 on any $(b,refuted) verdict or failed \
             cell; $(b,unknown) verdicts are tolerated and counted.")
  in
  let widths_conv =
    Arg.conv
      ( (fun s ->
          Result.map_error
            (fun e -> `Msg e)
            (Spd_harness.Cliflags.widths s)),
        Fmt.(list ~sep:comma int) )
  in
  let widths_arg =
    Arg.(
      value
      & opt (some widths_conv) None
      & info [ "widths" ] ~docv:"A,B,.."
          ~doc:"Machine widths swept by Figure 6-3 (default 1..8).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Regenerate the paper's evaluation tables and figures.")
    Term.(
      const run $ list_arg $ validate_arg $ name_arg $ jobs_arg
      $ no_cache_arg $ timings_arg $ retries_arg $ fuel_arg
      $ deadline_arg $ widths_arg $ faults_arg $ trace_arg
      $ format_arg
          ~doc:
            "Output format: $(b,pretty) (default), $(b,json) (one \
             spd-report/1 document with every table, the failures and a \
             metrics snapshot) or $(b,csv) (long format).")

(* [spd explain], [spd why] and [spd validate]: one workload's analysis,
   read through an engine session and narrowed by [--fn]/[--tree].
   [session] makes the session from the subcommand's own flags,
   [analyze] runs the analysis on it; [entry] names what the filters
   select, for the refusal of a filter that matches nothing. *)
let introspection_cmd ~name ~doc ~schema ~entry ~session ~analyze ~selected
    ~tables ~to_json =
  let module Engine = Spd_harness.Engine in
  let run workload fn tree session analyze format =
    match workload with
    | None ->
        Fmt.epr "spd %s: missing WORKLOAD (one of: %s)@." name
          (String.concat ", " (workload_names ()));
        exit 1
    | Some workload ->
        require_workload workload;
        handle_errors (fun () ->
            Engine.Session.with_session (session ()) (fun session ->
                match analyze session workload with
                | exception Engine.Cell_failed f ->
                    Fmt.epr "%a@." Engine.pp_failure f;
                    exit 2
                | t ->
                    if (fn <> None || tree <> None) && selected ?fn ?tree t = []
                    then begin
                      Fmt.epr "no %s matches the --fn/--tree filters@." entry;
                      exit 1
                    end;
                    Spd_harness.Artefact.render_doc format Fmt.stdout
                      ~tables:(fun () -> tables ?fn ?tree t)
                      ~json:(fun () -> to_json ?fn ?tree t)))
  in
  let workload_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD"
          ~doc:"Workload name (the built-in benchmarks plus extras such \
                as $(b,matmul300)).")
  in
  let fn_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "f"; "fn" ] ~docv:"NAME" ~doc:"Restrict to a function.")
  in
  let tree_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "t"; "tree" ] ~docv:"ID" ~doc:"Restrict to a tree id.")
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ workload_arg $ fn_arg $ tree_arg $ session $ analyze
      $ format_arg
          ~doc:
            (Printf.sprintf
               "Output format: $(b,pretty) (default), $(b,json) (one %s \
                document) or $(b,csv)."
               schema))

(* the session of [spd why] and [spd validate]: their ledgers are
   disk-cacheable cells *)
let cached_session =
  Term.(
    const (fun jobs no_cache () ->
        Spd_harness.Engine.Session.create ?jobs ~disk_cache:(not no_cache) ())
    $ jobs_arg $ no_cache_arg)

let explain_cmd =
  let module Explain = Spd_harness.Explain in
  introspection_cmd ~name:"explain"
    ~doc:
      "Explain a workload's schedules: cycle-by-FU occupancy grids with \
       SpD version annotations, critical-path cycle attribution per tree, \
       and a per-region table whose cycles sum exactly to the simulated \
       total."
    ~schema:Explain.schema ~entry:"tree"
    ~session:Term.(const (fun () -> Spd_harness.Engine.Session.create ()))
    ~analyze:
      Term.(
        const (fun width mem_latency -> Explain.analyze ~width ~mem_latency)
        $ fus_arg $ mem_latency_arg)
    ~selected:Explain.selected ~tables:Explain.tables ~to_json:Explain.to_json

let why_cmd =
  let module Why = Spd_harness.Why in
  introspection_cmd ~name:"why"
    ~doc:
      "Explain the SpD guidance heuristic's decisions for a workload: per \
       tree, every candidate ambiguous arc with its predicted gain, the \
       static test that left it ambiguous, the budgets in force and the \
       applied/rejected verdict, plus the rejection-reason histogram."
    ~schema:Why.schema ~entry:"ledger entry" ~session:cached_session
    ~analyze:
      Term.(
        const (fun mem_latency -> Why.analyze ~mem_latency) $ mem_latency_arg)
    ~selected:Why.selected ~tables:Why.tables ~to_json:Why.to_json

let validate_cmd =
  let module Validation = Spd_harness.Validation in
  introspection_cmd ~name:"validate"
    ~doc:
      "Translation-validate a workload's SpD transform: for every applied \
       speculation, symbolically prove the original and transformed trees \
       equivalent (taken exit, live-out values, committed stores) on both \
       sides of the speculated alias predicate.  Each application is \
       $(b,proved), $(b,refuted) (with a concrete counterexample — the cell \
       then fails and the exit status is 2) or $(b,unknown) (the proof hit \
       a modelling limit; counted, never fatal)."
    ~schema:Validation.schema ~entry:"validation entry" ~session:cached_session
    ~analyze:
      Term.(
        const (fun mem_latency -> Validation.analyze ~mem_latency)
        $ mem_latency_arg)
    ~selected:Validation.selected ~tables:Validation.tables
    ~to_json:Validation.to_json

let cache_cmd =
  let module Json = Spd_telemetry.Json in
  let module Metrics = Spd_telemetry.Metrics in
  let stats_run dir json =
    (* register the engine counters so the snapshot carries the
       spd.engine.cache.* names even before any cell fires them *)
    Spd_harness.Engine.register_metrics ();
    let entries, bytes = Spd_harness.Engine.cache_usage dir in
    let counter name =
      match List.assoc_opt name (Metrics.snapshot ()) with
      | Some (Metrics.Counter n) -> n
      | _ -> 0
    in
    if json then
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("schema", Json.String "spd-cache/1");
                ("dir", Json.String dir);
                ("entries", Json.Int entries);
                ("bytes", Json.Int bytes);
                ( "version",
                  Json.String Spd_harness.Engine.cache_version );
                ("hits", Json.Int (counter "spd.engine.cache.hits"));
                ("misses", Json.Int (counter "spd.engine.cache.misses"));
                ( "evictions",
                  Json.Int (counter "spd.engine.cache.evictions") );
              ]))
    else begin
      Fmt.pr "dir        %s@." dir;
      Fmt.pr "entries    %d@." entries;
      Fmt.pr "bytes      %d@." bytes;
      Fmt.pr "version    %s@." Spd_harness.Engine.cache_version;
      Fmt.pr "hits       %d@." (counter "spd.engine.cache.hits");
      Fmt.pr "misses     %d@." (counter "spd.engine.cache.misses");
      Fmt.pr "evictions  %d@." (counter "spd.engine.cache.evictions")
    end
  in
  let dir_arg =
    Arg.(
      value
      & opt string "_spd_cache"
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Cache directory (default $(b,_spd_cache)).")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit one spd-cache/1 JSON object.")
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:
         "Inspect the content-addressed on-disk result cache \
          ($(b,_spd_cache/)).")
    [
      Cmd.v
        (Cmd.info "stats"
           ~doc:
             "Records across the cache's packs, the packs' total bytes, \
              the cache format version and the process's live \
              $(b,spd.engine.cache.hits)/$(b,misses)/$(b,evictions) \
              counters (also part of the Prometheus exposition).")
        Term.(const stats_run $ dir_arg $ json_arg);
    ]

let graph_cmd =
  let run file pipeline mem_latency func tree_id =
    handle_errors (fun () ->
        let p = prepare_src ~mem_latency pipeline (read_file file) in
        (* default: the tree with the most active memory arcs *)
        let best = ref None in
        Spd_ir.Prog.iter_trees
          (fun f (t : Spd_ir.Tree.t) ->
            let matches =
              (match func with Some n -> n = f | None -> true)
              && match tree_id with Some i -> i = t.id | None -> true
            in
            if matches then
              let n = List.length (Spd_ir.Tree.active_arcs t) in
              match !best with
              | Some (m, _) when m >= n -> ()
              | _ -> best := Some (n, t))
          p.prog;
        match !best with
        | None -> Fmt.epr "no matching tree@."; exit 1
        | Some (_, t) ->
            let g = Spd_analysis.Ddg.build ~mem_latency t in
            Fmt.pr "%a@." Spd_analysis.Ddg.pp_dot g)
  in
  let func_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "f"; "function" ] ~docv:"NAME" ~doc:"Restrict to a function.")
  in
  let tree_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "t"; "tree" ] ~docv:"ID" ~doc:"Select a tree id.")
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:
         "Emit the dependence graph of a tree in Graphviz DOT format           (default: the tree with the most memory arcs).")
    Term.(
      const run $ file_arg $ pipeline_arg $ mem_latency_arg $ func_arg
      $ tree_arg)

(* ------------------------------------------------------------------ *)
(* The daemon and its one-shot client *)

let default_socket = "_spd_serve.sock"

let resolve_addr ~socket ~tcp =
  match tcp with
  | None -> Spd_serve.Protocol.Unix_path socket
  | Some spec -> (
      match Spd_serve.Protocol.addr_of_string ("tcp:" ^ spec) with
      | Ok a -> a
      | Error msg ->
          Fmt.epr "spd: %s@." msg;
          exit 1)

let socket_arg =
  Arg.(
    value
    & opt string default_socket
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          (Printf.sprintf "Unix-domain socket path (default %s)."
             default_socket))

let tcp_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:"Listen on / connect to TCP instead of the Unix socket.")

let serve_cmd =
  let module Log = Spd_telemetry.Log in
  let module Trace = Spd_telemetry.Trace in
  let run socket tcp workers conn_timeout drain_deadline max_pending jobs
      no_cache retries fuel deadline faults log log_level slow_ms trace =
    let addr = resolve_addr ~socket ~tcp in
    (* --log without --log-level defaults to info: a file sink wants the
       request log, not just the warnings the stderr default shows *)
    (match (log_level, log) with
    | Some lvl, _ -> Log.set_level lvl
    | None, Some _ -> Log.set_level Log.Info
    | None, None -> ());
    let session =
      Spd_harness.Engine.Session.create ?jobs ~disk_cache:(not no_cache)
        ?retries ?fuel ?deadline ?faults:(Option.map Fun.id faults) ()
    in
    let serve () =
      let server =
        try
          Spd_serve.Server.start ~workers ~conn_timeout ~drain_deadline
            ~max_pending
            ?faults:(Option.map Fun.id faults)
            ?run_fuel:fuel ?run_deadline:deadline ?slow_ms ~session addr
        with Failure msg ->
          Spd_harness.Engine.Session.close session;
          Fmt.epr "%s@." msg;
          exit 1
      in
      (* SIGINT/SIGTERM start the same graceful drain as the shutdown
         method: [stop] is idempotent and signal-safe *)
      let stop _signum = Spd_serve.Server.stop server in
      (try ignore (Sys.signal Sys.sigint (Sys.Signal_handle stop))
       with Invalid_argument _ | Sys_error _ -> ());
      (try ignore (Sys.signal Sys.sigterm (Sys.Signal_handle stop))
       with Invalid_argument _ | Sys_error _ -> ());
      Fmt.pr "spd serve: listening on %a, %d worker domains@."
        Spd_serve.Protocol.pp_addr addr (max 1 workers);
      Fmt.pr "spd serve: stop with SIGINT/SIGTERM or the shutdown method@.";
      Spd_serve.Server.wait server;
      Fmt.pr "spd serve: stopped after %d requests@."
        (Spd_serve.Server.served server);
      Spd_harness.Engine.Session.close session
    in
    (* [capture] writes the trace even when serving aborts; [with_file]
       closes (and flushes) the log sink the same way *)
    try Log.with_file log (fun () -> Trace.capture trace serve)
    with Failure msg ->
      Fmt.epr "spd serve: %s@." msg;
      exit 1
  in
  let workers_arg =
    Arg.(
      value
      & opt (pos_int_conv "--workers") 4
      & info [ "workers" ] ~docv:"N"
          ~doc:"Serve domains (default 4).")
  in
  let conn_timeout_arg =
    Arg.(
      value
      & opt (pos_float_conv "--conn-timeout") 30.0
      & info [ "conn-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-connection frame deadline: a peer that takes longer \
             than this to deliver one complete request (or to accept \
             one response) is evicted (default 30).")
  in
  let drain_deadline_arg =
    Arg.(
      value
      & opt (pos_float_conv "--drain-deadline") 10.0
      & info [ "drain-deadline" ] ~docv:"SECONDS"
          ~doc:
            "On shutdown, let in-flight requests finish for up to this \
             long before stopping hard (default 10).")
  in
  let max_pending_arg =
    Arg.(
      value
      & opt (pos_int_conv "--max-pending") 64
      & info [ "max-pending" ] ~docv:"N"
          ~doc:
            "Admission control: connections queued beyond the worker \
             count before new ones are refused with a $(b,server busy) \
             error (default 64).")
  in
  let log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE"
          ~doc:
            "Append structured $(b,spd-log/1) JSON-lines records to \
             FILE (default: stderr at level warn).  Implies \
             $(b,--log-level info) unless a level is given \
             explicitly.")
  in
  let log_level_conv =
    Arg.conv
      ( (fun s ->
          Result.map_error
            (fun e -> `Msg e)
            (Spd_telemetry.Log.level_of_string s)),
        fun ppf l -> Fmt.string ppf (Spd_telemetry.Log.level_to_string l) )
  in
  let log_level_arg =
    Arg.(
      value
      & opt (some log_level_conv) None
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:
            "Log threshold: $(b,error), $(b,warn), $(b,info) or \
             $(b,debug).")
  in
  let slow_ms_arg =
    Arg.(
      value
      & opt (some (pos_float_conv "--slow-ms")) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Log an $(b,rpc.slow) record, with a per-stage wall-clock \
             breakdown, for every request at least this many \
             milliseconds long.")
  in
  let serve_trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON of the daemon's lifetime: \
             one $(b,rpc:METHOD) span per request (tagged with its \
             $(b,rid)) with the engine's cell and stage spans nested \
             inside.  Written even when serving aborts.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the experiment daemon: framed JSON-RPC over a socket, one \
          shared engine session, so concurrent identical requests \
          deduplicate onto one computation.  $(b,--fuel) and \
          $(b,--deadline) bound every tenant's per-request quotas; \
          $(b,--conn-timeout), $(b,--max-pending) and \
          $(b,--drain-deadline) bound what misbehaving clients and \
          shutdowns can cost; $(b,--log), $(b,--trace) and \
          $(b,--slow-ms) make it observable.")
    Term.(
      const run $ socket_arg $ tcp_arg $ workers_arg $ conn_timeout_arg
      $ drain_deadline_arg $ max_pending_arg $ jobs_arg $ no_cache_arg
      $ retries_arg $ fuel_arg $ deadline_arg $ faults_arg $ log_arg
      $ log_level_arg $ slow_ms_arg $ serve_trace_arg)

let call_cmd =
  let run meth params socket tcp retries format =
    let addr = resolve_addr ~socket ~tcp in
    (* --format prometheus is sugar for the metrics_prom method plus
       printing its "text" member raw, ready for a scraper *)
    let meth =
      match format with
      | `Json -> meth
      | `Prometheus -> (
          match meth with
          | "metrics" | "metrics_prom" -> "metrics_prom"
          | _ ->
              Fmt.epr
                "spd call: --format prometheus only applies to the \
                 metrics method@.";
              exit 1)
    in
    let params_json =
      match params with
      | None -> Spd_telemetry.Json.Obj []
      | Some s -> (
          match Spd_telemetry.Json.of_string s with
          | Ok j -> j
          | Error e ->
              Fmt.epr "spd call: PARAMS is not valid JSON: %s@." e;
              exit 1)
    in
    match
      Spd_serve.Protocol.call_with_retries ~retries addr meth params_json
    with
    | Error e ->
        Fmt.epr "spd call: %s@." e;
        exit 1
    | Ok result ->
        (match format with
        | `Prometheus -> (
            match
              Option.bind
                (Spd_telemetry.Json.member "text" result)
                Spd_telemetry.Json.to_string_opt
            with
            | Some text -> print_string text
            | None ->
                Fmt.epr "spd call: malformed metrics_prom response@.";
                exit 1)
        | `Json ->
            print_string (Spd_telemetry.Json.to_string result);
            print_newline ());
        (* readiness-probe contract: health against a draining daemon
           answers, but the exit code says "not ready" *)
        if
          meth = "health"
          && Spd_telemetry.Json.member "draining" result
             = Some (Spd_telemetry.Json.Bool true)
        then exit 3
  in
  let meth_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"METHOD"
          ~doc:
            "Daemon method: ping, health, query, report, explain, why, \
             validate, micro, run, metrics, metrics_prom, stats or \
             shutdown.")
  in
  let params_arg =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"PARAMS"
          ~doc:"Request parameters as one JSON object (default {}).")
  in
  let retries_arg =
    Arg.(
      value
      & opt (pos_int_conv "--retries") 1
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Attempts before giving up (default 1).  Transport failures \
             and $(b,server busy)/$(b,shutting down) errors are retried \
             with exponential backoff, honoring the daemon's \
             $(b,retry_after_ms) hint — enough to ride through a \
             restart.")
  in
  let call_format_arg =
    Arg.(
      value
      & opt (enum [ ("json", `Json); ("prometheus", `Prometheus) ]) `Json
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "$(b,json) (default) prints the result document; \
             $(b,prometheus) (metrics method only) prints the text \
             exposition format, ready for a scraper.")
  in
  Cmd.v
    (Cmd.info "call"
       ~doc:
         "Send one JSON-RPC request to a running $(b,spd serve) daemon \
          and print the JSON result on stdout.  $(b,spd call health) \
          exits 3 when the daemon answers but is draining.")
    Term.(
      const run $ meth_arg $ params_arg $ socket_arg $ tcp_arg
      $ retries_arg $ call_format_arg)

let top_cmd =
  let module Top = Spd_serve.Top in
  let run socket tcp interval count =
    let addr = resolve_addr ~socket ~tcp in
    match Spd_serve.Protocol.connect addr with
    | Error e ->
        Fmt.epr "spd top: %s@." e;
        exit 1
    | Ok c ->
        let tty = Unix.isatty Unix.stdout in
        let stop = ref false in
        (try
           ignore
             (Sys.signal Sys.sigint
                (Sys.Signal_handle (fun _ -> stop := true)))
         with Invalid_argument _ | Sys_error _ -> ());
        let prev = ref None in
        let frames = ref 0 in
        let rc = ref 0 in
        (try
           while (not !stop) && (count = 0 || !frames < count) do
             (match Top.fetch c with
             | Error e ->
                 Fmt.epr "spd top: %s@." e;
                 rc := 1;
                 raise Exit
             | Ok s ->
                 if tty then print_string "\027[H\027[2J";
                 print_string (Top.render ?prev:!prev s);
                 flush stdout;
                 prev := Some s);
             incr frames;
             if (count = 0 || !frames < count) && not !stop then
               Unix.sleepf interval
           done
         with Exit -> ());
        Spd_serve.Protocol.close c;
        if !rc <> 0 then exit !rc
  in
  let interval_arg =
    Arg.(
      value
      & opt (pos_float_conv "--interval") 2.0
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Seconds between refreshes (default 2).")
  in
  let count_arg =
    Arg.(
      value
      & opt int 0
      & info [ "count" ] ~docv:"N"
          ~doc:
            "Stop after N frames (default 0: refresh until \
             interrupted).  $(b,--count 1) prints one snapshot and \
             exits — cron-friendly.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live dashboard over a running $(b,spd serve) daemon: polls \
          $(b,health) and $(b,metrics), differences consecutive \
          samples, and shows RPS, in-flight requests, worker state, \
          cache hit rate and per-method p50/p95/p99 latency, \
          refreshing in place on a terminal.")
    Term.(
      const run $ socket_arg $ tcp_arg $ interval_arg $ count_arg)

let list_cmd =
  let run () =
    List.iter
      (fun (w : Spd_workloads.Workload.t) ->
        Fmt.pr "%-10s %-9s %s@." w.name
          (Spd_workloads.Workload.suite_name w.suite)
          w.description)
      Spd_workloads.Registry.all
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the built-in benchmarks.")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "spd" ~version:"1.0.0"
      ~doc:
        "Speculative disambiguation for a guarded VLIW: compiler, \
         scheduler, simulator and the ISCA'94 experiments."
  in
  (* keep the historical [spd bench NAME] spelling working alongside
     the bench subcommands *)
  let argv =
    let a = Sys.argv in
    if
      Array.length a >= 3
      && a.(1) = "bench"
      && (not (List.mem a.(2) bench_subcommands))
      && String.length a.(2) > 0
      && a.(2).[0] <> '-'
    then
      Array.concat
        [ [| a.(0); "bench"; "run" |]; Array.sub a 2 (Array.length a - 2) ]
    else a
  in
  exit
    (Cmd.eval ~argv
       (Cmd.group info
          [
            compile_cmd; run_cmd; bench_cmd; explain_cmd; why_cmd;
            validate_cmd; report_cmd; serve_cmd; call_cmd; top_cmd;
            cache_cmd; graph_cmd; list_cmd;
          ]))
