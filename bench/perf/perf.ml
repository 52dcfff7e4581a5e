(** The benchmark's command line: one run, every workload, [compare]
    and [smoke].

    {v
    perf.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--record FILE]
    perf.exe [--seed N] [--seconds S] [--trace 0|1] [--record FILE]
    perf.exe compare OLD.jsonl NEW.jsonl
    perf.exe smoke
    v}

    One run sets a workload up three times (the median is [setup_s]),
    then measures it for [--seconds] with tracing off and prints the
    end-to-end metrics, or with [--trace 1] measures half the window
    untraced, then a fixed number of operations traced, and prints the
    per-layer metrics, writing [_perf/W.trace.json] and
    [_perf/W.layers.json].  Standard error gets the window's
    diagnostics (operation count, throughput, median and tail
    latency), which [--record] also keeps.  The last line of standard
    output is one JSON object with the keys [correct], [attempted],
    [failed] and [metrics].  Without [--workload], every workload runs
    in its own child process.  Run from the repository root, after
    building [bin/spd.exe]. *)

module Json = Spd_telemetry.Json
module Trace = Spd_telemetry.Trace
module Clock = Spd_telemetry.Clock
open Workload

let workloads =
  [ Paper.cold; Paper.warm; Compile.workload; Serve.query_w; Serve.report_w;
    Serve.validate_w; Serve.contended ]
let setups = 3

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
      failwith
        (Printf.sprintf "unknown workload %S (one of: %s)" name
           (String.concat ", " (List.map (fun w -> w.name) workloads)))

(* ------------------------------------------------------------------ *)
(* Metrics *)

let ms xs q = 1000. *. Stat.percentile q xs

(* The seconds of the samples of the workload's own operation, load
   left out. *)
let op_secs (w : Workload.t) samples =
  List.filter_map (fun s -> if s.kind = w.op then Some s.secs else None) samples

(* The judged latency is the fastest operation of the window.  Other
   tenants share the machine and only ever add time: between identical
   runs the median operation moved 7-30%, the p99 10-31% and the
   throughput 6-25%, but the fastest operation only 5-10%.  The median,
   a tail percentile and the throughput are [diagnostics]. *)
let end_to_end ~setup_secs ~secs =
  [
    ("setup_s", "s", Stat.median setup_secs);
    ("op_min_ms", "ms", 1000. *. Stat.minimum secs);
  ]

(* The operations' count, throughput, median and the highest of p99.9,
   p99 and p90 with at least ten samples beyond it. *)
let diagnostics ~secs ~wall =
  let n = float_of_int (List.length secs) in
  let tail = List.find_opt (fun q -> n *. (1. -. q) >= 10.) [ 0.999; 0.99; 0.9 ] in
  [ ("ops", n); ("ops_per_s", n /. wall); ("op_p50_ms", ms secs 0.5) ]
  @ Option.fold ~none:[]
      ~some:(fun q -> [ ("op_tail_q", q); ("op_tail_ms", ms secs q) ])
      tail

(* The per-layer metrics of the traced half.  Times and counts are per
   operation, so runs of different lengths compare.  [selfs] are the
   layer self times of the trace with lowering moved out of the engine
   cells (the engine times it without a span); for a daemon-backed
   workload the layers below the client come from the daemon's stage
   histograms instead. *)
let per_layer ~(w : Workload.t) ~jobs ~untraced ~traced ~delta ~selfs ~busy =
  let n = float_of_int (List.length traced) in
  let d k = Option.value ~default:0. (List.assoc_opt k delta) in
  let self l = Option.value ~default:0. (List.assoc_opt l selfs) in
  let hist stage = d ("spd.engine.stage_seconds." ^ stage ^ ".sum") in
  let stage layer stage = if w.remote then hist stage else self layer in
  let per_op x = x /. n in
  let ratio a b = if b > 0. then a /. b else 0. in
  let secs = List.map (fun s -> s.secs) traced in
  let traced_s = List.fold_left ( +. ) 0. secs in
  let of_kind k =
    List.filter_map (fun s -> if s.kind = k then Some s.secs else None) traced
  in
  let remote x = if w.remote then x else 0. in
  let s name v = (name, "s", per_op v) in
  let c name v = (name, "count", per_op v) in
  let r name v = (name, "ratio", v) in
  [
    s "lang.lower.self_s" (stage "lang.lower" "lower");
    c "lang.lower.ops" (d "lang.lower.ops");
    s "analysis.forwarding.self_s" (self "analysis.forwarding");
    s "analysis.memarcs.self_s" (self "analysis.memarcs");
    c "analysis.memarcs.arcs" (d "analysis.memarcs.arcs");
    s "analysis.unroll.self_s" (self "analysis.unroll");
    c "analysis.unroll.ops_added" (d "analysis.unroll.ops_added");
    s "disambig.static.self_s" (self "disambig.static");
    c "disambig.static.proven_no" (d "disambig.static.proven_no");
    c "disambig.static.unknown" (d "disambig.static.unknown");
    s "spd.heuristic.self_s" (stage "spd.heuristic" "spd");
    c "spd.heuristic.candidates" (d "spd.heuristic.candidates");
    c "spd.heuristic.applied" (d "spd.heuristic.applied");
    r "spd.heuristic.accept_ratio"
      (ratio (d "spd.heuristic.applied") (d "spd.heuristic.candidates"));
    s "validate.self_s" (self "validate");
    c "validate.applications" (d "validate.applications");
    c "validate.paths" (d "validate.paths");
    c "validate.splits" (d "validate.splits");
    r "validate.proved_ratio"
      (ratio (d "validate.proved") (d "validate.applications"));
    s "machine.schedule.self_s" (stage "machine.schedule" "schedule");
    c "machine.schedule.nodes" (d "machine.schedule.nodes");
    c "machine.schedule.schedules" (d "spd.scheduler.schedules");
    s "sim.simulate.self_s" (stage "sim.simulate" "simulate");
    s "sim.profile.self_s" (stage "sim.profile" "profile");
    c "sim.runs" (d "spd.sim.runs");
    c "sim.traversals" (d "spd.sim.traversals");
    r "sim.replay_hit_ratio"
      (ratio (d "spd.sim.replay_hits")
         (d "spd.sim.replay_hits" +. d "spd.sim.replay_misses"));
    s "harness.cell.self_s" (self "harness.cell");
    c "harness.check.runs"
      (d "spd.sim.runs"
      -. d "spd.engine.stage_seconds.profile.count"
      -. d "spd.engine.stage_seconds.simulate.count");
    s "harness.engine.self_s" (self "harness.engine");
    c "harness.engine.preparations" (d "spd.engine.preparations");
    c "harness.engine.simulations" (d "spd.engine.simulations");
    c "harness.engine.disk_hits" (d "spd.engine.cache.hits");
    c "harness.engine.disk_misses" (d "spd.engine.cache.misses");
    r "harness.pool.busy_ratio"
      (if w.remote then 0. else ratio busy (float_of_int jobs *. traced_s));
    s "harness.render.self_s" (self "harness.render");
    c "harness.render.bytes" (d "harness.render.bytes");
  ]
  @ List.concat_map
      (fun k ->
        [
          ("serve." ^ k ^ ".p50_ms", "ms", remote (ms (of_kind k) 0.5));
          ("serve." ^ k ^ ".p99_ms", "ms", remote (ms (of_kind k) 0.99));
        ])
      [ "query"; "report"; "validate"; "run" ]
  @ [
      ("serve.rpc.p50_ms", "ms", remote (ms secs 0.5));
      ("serve.rpc.p99_ms", "ms", remote (ms secs 0.99));
      s "serve.server_s" (d "spd.serve.request_seconds.sum");
      s "serve.transport_s"
        (remote (traced_s -. d "spd.serve.request_seconds.sum"));
      ( "serve.errors",
        "count",
        remote (float_of_int (List.length (List.filter (fun s -> not s.ok) traced))) );
      ("serve.admission_rejected", "count", d "spd.serve.admission.rejected");
      ( "trace_overhead_ratio",
        "ratio",
        ratio (Stat.minimum (op_secs w traced)) (Stat.minimum (op_secs w untraced))
        -. 1. );
    ]

(* ------------------------------------------------------------------ *)
(* One run *)

let delta before after =
  List.map
    (fun (k, v) -> (k, v -. Option.value ~default:0. (List.assoc_opt k before)))
    after

let write_layers ~(w : Workload.t) ~ops ~selfs ~busy ~metrics =
  let num x = Json.Float x in
  Util.write_file
    (Util.in_work_dir (w.name ^ ".layers.json"))
    (Json.to_string
       (Json.Obj
          [
            ("schema", Json.String "spd-bench-layers/1");
            ("workload", Json.String w.name);
            ("ops", Json.Int ops);
            ("busy_s", num busy);
            ("self_s", Json.Obj (List.map (fun (l, v) -> (l, num v)) selfs));
            ( "metrics",
              Json.Obj (List.map (fun (n, _, v) -> (n, num v)) metrics) );
          ])
    ^ "\n")

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun (name, unit_, v) ->
         (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit_) ]))
       metrics)

(* Lowering runs inside engine cells, timed by the engine without a
   span: move its time from the cells to its own layer. *)
let with_lowering ~(w : Workload.t) ~delta selfs =
  let lower =
    if w.remote then 0.
    else
      Option.value ~default:0.
        (List.assoc_opt "spd.engine.stage_seconds.lower.sum" delta)
  in
  let get l = Option.value ~default:0. (List.assoc_opt l selfs) in
  if lower = 0. then selfs
  else
    ("lang.lower", get "lang.lower" +. lower)
    :: ("harness.cell", get "harness.cell" -. lower)
    :: List.filter (fun (l, _) -> l <> "lang.lower" && l <> "harness.cell") selfs
    |> List.sort compare

(* Operations until [seconds] have passed or [max_ops] have run, and
   the wall clock they took. *)
let measure (inst : instance) ~seconds ~max_ops =
  Util.timed (fun () -> inst.loop ~until:(Clock.now () +. seconds) ~max_ops)

let run_one ~(spec : Spec.t) ~(w : Workload.t) ~seed ~seconds ~trace ~record =
  Util.ensure_work_dir ();
  let rounds_before = Calib.rounds ~budget:0.05 in
  (* Set-up ends with one operation, unmeasured, so the first measured
     one does not pay for heap growth and first-touch costs. *)
  let warmed_up i () =
    let inst = w.setup ~seed ~trace:(trace && i = setups) in
    if not (List.for_all (fun s -> s.ok) (inst.loop ~until:neg_infinity ~max_ops:1)) then
      failwith (w.name ^ ": the warm-up operation failed");
    inst
  in
  let rec set_up i secs =
    let inst, t = Util.timed (warmed_up i) in
    if i = setups then (inst, t :: secs)
    else begin
      inst.close ();
      set_up (i + 1) (t :: secs)
    end
  in
  let inst, setup_secs = set_up 1 [] in
  Fun.protect ~finally:inst.close (fun () ->
      Gc.full_major ();
      let untraced, wall =
        measure inst
          ~seconds:(if trace then seconds /. 2. else seconds)
          ~max_ops:max_int
      in
      (* Peak memory is printed, not judged: with the garbage collector
         freeing the simulator's large arrays at varying times it moves
         10–18% between identical runs, too much for a bound. *)
      let peak_rss_mb =
        float_of_int
          (Util.peak_rss_kb 0
          + Option.fold ~none:0 ~some:Util.peak_rss_kb inst.daemon_pid)
        /. 1024.
      in
      let layers =
        if not trace then None
        else begin
          let before = inst.counters () in
          Trace.start ();
          let traced, _ = measure inst ~seconds:infinity ~max_ops:w.traced_ops in
          Trace.stop ();
          let delta = delta before (inst.counters ()) in
          let events = Trace.events () in
          Trace.write (Util.in_work_dir (w.name ^ ".trace.json"));
          let selfs, busy = Layers.self_times events in
          Some (traced, delta, with_lowering ~w ~delta selfs, busy)
        end
      in
      let loop_round_ms =
        1000. *. Stat.median (rounds_before @ Calib.rounds ~budget:0.05)
      in
      let secs = op_secs w untraced in
      let diagnostics = diagnostics ~secs ~wall in
      let metrics, traced =
        match layers with
        | None -> (end_to_end ~setup_secs ~secs, [])
        | Some (traced, delta, selfs, busy) ->
            let metrics =
              per_layer ~w ~jobs:inst.jobs ~untraced ~traced ~delta ~selfs ~busy
            in
            write_layers ~w ~ops:(List.length traced) ~selfs ~busy ~metrics;
            (metrics, traced)
      in
      Printf.eprintf "%s: %s; calibration loop round %.3f ms, peak RSS %.1f MB\n%!"
        w.name
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%s %.6g" k v) diagnostics))
        loop_round_ms peak_rss_mb;
      let samples = untraced @ traced in
      let checks, failures = inst.verify () in
      List.iter (fun f -> Printf.eprintf "%s: check failed: %s\n%!" w.name f) failures;
      let bad = List.length (List.filter (fun s -> not s.ok) samples) in
      let attempted = List.length samples + checks in
      let failed = bad + List.length failures in
      Spec.check_names
        ~what:(if trace then "per-layer" else "end-to-end")
        (if trace then spec.per_layer else spec.end_to_end)
        (List.map (fun (n, u, _) -> (n, u)) metrics);
      List.iter
        (fun (name, unit_, v) -> Printf.printf "%-32s %16.6f %s\n" name v unit_)
        metrics;
      let result =
        [
          ("correct", Json.Bool (failed = 0));
          ("attempted", Json.Int attempted);
          ("failed", Json.Int failed);
          ("metrics", metrics_json metrics);
        ]
      in
      Option.iter
        (fun path ->
          Out_channel.with_open_gen
            [ Open_wronly; Open_creat; Open_append; Open_binary ]
            0o644 path (fun oc ->
              Out_channel.output_string oc
                (Json.to_string
                   (Json.Obj
                      (("schema", Json.String "spd-bench/1")
                      :: ("workload", Json.String w.name)
                      :: ("seed", Json.Int seed)
                      :: ("seconds", Json.Float seconds)
                      :: ("trace", Json.Bool trace)
                      :: ("loop_round_ms", Json.Float loop_round_ms)
                      :: ("peak_rss_mb", Json.Float peak_rss_mb)
                      :: ( "diagnostics",
                           Json.Obj
                             (List.map (fun (k, v) -> (k, Json.Float v)) diagnostics) )
                      :: result))
                ^ "\n")))
        record;
      print_endline (Json.to_string (Json.Obj result));
      failed = 0)

(* ------------------------------------------------------------------ *)
(* Every workload, each in its own process *)

let self_argv args = Array.of_list (Sys.executable_name :: args)

let run_child ?stdout ?stderr args =
  match Util.reap (Util.spawn ?stdout ?stderr (self_argv args)) with
  | Unix.WEXITED 0 -> true
  | _ -> false

let flag_args ~seed ~seconds ~trace ~record =
  [ "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds;
    "--trace"; (if trace then "1" else "0") ]
  @ Option.fold ~none:[] ~some:(fun p -> [ "--record"; p ]) record

(* ------------------------------------------------------------------ *)
(* Smoke: every workload briefly in both modes, the layer tiling, and
   the comparison verdicts on synthetic runs. *)

let smoke (spec : Spec.t) =
  Util.ensure_work_dir ();
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iter
    (fun name ->
      List.iter
        (fun trace ->
          let out = Util.in_work_dir "smoke.out" and err = Util.in_work_dir "smoke.err" in
          let open_out path =
            Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
          in
          let fd = open_out out and efd = open_out err in
          let ok =
            run_child ~stdout:fd ~stderr:efd
              ("--workload" :: name
              :: flag_args ~seed:1 ~seconds:1. ~trace ~record:None)
          in
          Unix.close fd;
          Unix.close efd;
          if not ok then prerr_string (Util.read_file err);
          let lines =
            List.filter (fun l -> l <> "") (String.split_on_char '\n' (Util.read_file out))
          in
          let want = if trace then spec.per_layer else spec.end_to_end in
          (match (ok, List.rev lines) with
          | true, last :: _ -> (
              match Json.of_string last with
              | Ok (Json.Obj kvs)
                when List.map fst kvs = [ "correct"; "attempted"; "failed"; "metrics" ]
                     && List.assoc "correct" kvs = Json.Bool true -> ()
              | _ -> fail "%s trace=%b: bad result line: %s" name trace last)
          | _ -> fail "%s trace=%b: run failed" name trace);
          (* every metric also printed on its own line, with its unit *)
          List.iter
            (fun (m : Spec.metric) ->
              if
                not
                  (List.exists
                     (fun l ->
                       match String.split_on_char ' ' l |> List.filter (( <> ) "") with
                       | [ n; _; u ] -> n = m.name && u = m.unit_
                       | _ -> false)
                     lines)
              then fail "%s: %s not printed with unit %s" name m.name m.unit_)
            want;
          if trace then begin
            let j = Util.parse_json_file (Util.in_work_dir (name ^ ".layers.json")) in
            let num k = Option.value ~default:0. (Option.bind (Json.member k j) Json.to_number) in
            let selfs =
              match Json.member "self_s" j with
              | Some (Json.Obj kvs) ->
                  List.fold_left
                    (fun acc (_, v) -> acc +. Option.value ~default:0. (Json.to_number v))
                    0. kvs
              | _ -> 0.
            in
            let busy = num "busy_s" in
            if busy <= 0. || Float.abs (selfs -. busy) > 0.05 *. busy then
              fail "%s: layer self times %.4f s do not tile busy time %.4f s" name
                selfs busy
          end)
        [ false; true ])
    spec.workloads;
  let judge a b =
    Compare_runs.judge ~lower_is_better:true ~bound:0.1 a b
  in
  let base = [ 100.; 101.; 99.; 100.; 100. ] in
  let scale k = List.map (fun x -> x *. k) base in
  List.iter
    (fun (what, got, want) ->
      if got <> want then
        fail "compare %s: got %s, want %s" what
          (Compare_runs.verdict_name got)
          (Compare_runs.verdict_name want))
    [
      ("identical", judge base base, Compare_runs.Same);
      ("30% slower", judge base (scale 1.3), Compare_runs.Worse);
      ("30% faster", judge base (scale 0.7), Compare_runs.Better);
      ("noisy", judge base [ 60.; 140.; 100.; 80.; 120. ], Compare_runs.Unresolved);
    ];
  (* [compare] passes only when it compared every workload *)
  let record ?(trace = false) workload : Compare_runs.record =
    {
      workload;
      trace;
      metrics = List.map (fun (m : Spec.metric) -> (m.name, 1.)) spec.end_to_end;
    }
  in
  let every ?trace () = List.map (record ?trace) spec.workloads in
  List.iter
    (fun (what, old, new_, want) ->
      if Compare_runs.passes spec (Compare_runs.rows spec ~old ~new_) <> want then
        fail "compare %s: passes is %b" what (not want))
    [
      ("every workload on both sides", every (), every (), true);
      ("empty new side", every (), [], false);
      ("only traced runs", every (), every ~trace:true (), false);
      ("one workload missing", every (), List.tl (every ()), false);
    ];
  List.iter (Printf.eprintf "smoke: %s\n") (List.rev !failures);
  if !failures = [] then print_endline "smoke: ok";
  !failures = []

(* ------------------------------------------------------------------ *)

let usage =
  "usage: perf.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
   [--record FILE]\n\
  \       perf.exe compare OLD.jsonl NEW.jsonl\n\
  \       perf.exe smoke"

let main () =
  let spec = Spec.load () in
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; old_path; new_path ] -> Compare_runs.run spec old_path new_path
  | [ "smoke" ] -> smoke spec
  | args ->
      let workload = ref None and seed = ref 1 and seconds = ref 20.
      and trace = ref false and record = ref None in
      let bad a = failwith (Printf.sprintf "bad argument %S\n%s" a usage) in
      let rec parse = function
        | [] -> ()
        | "--workload" :: v :: tl -> workload := Some v; parse tl
        | "--seed" :: v :: tl -> (
            match int_of_string_opt v with
            | Some n -> seed := n; parse tl
            | None -> bad v)
        | "--seconds" :: v :: tl -> (
            match float_of_string_opt v with
            | Some s when s > 0. -> seconds := s; parse tl
            | _ -> bad v)
        | "--trace" :: ("0" | "1" as v) :: tl -> trace := v = "1"; parse tl
        | "--record" :: v :: tl -> record := Some v; parse tl
        | a :: _ -> bad a
      in
      parse args;
      let seed = !seed and seconds = !seconds and trace = !trace
      and record = !record in
      (match !workload with
      | Some name ->
          run_one ~spec ~w:(find_workload name) ~seed ~seconds ~trace ~record
      | None ->
          List.for_all Fun.id
            (List.map
               (fun name ->
                 run_child ("--workload" :: name :: flag_args ~seed ~seconds ~trace ~record))
               spec.workloads))

let () =
  (* a stopped run still stops the daemon it started (see [Util.spawn]) *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigint; Sys.sigterm ];
  match main () with
  | true -> exit 0
  | false -> exit 1
  | exception Failure msg ->
      prerr_endline ("perf: " ^ msg);
      exit 2
  | exception e ->
      prerr_endline ("perf: " ^ Printexc.to_string e);
      exit 2
