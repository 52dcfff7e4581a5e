(** First use of every metric handle from four domains at once.

    Metric handles register their metric on first use.  This runs in a
    process of its own, so nothing has registered them before: four
    domains released together first compute the same grid cells of one
    engine session (the interpreter, scheduler, pipeline and engine
    handles in their natural first use), then call every module's
    [register_metrics] together (the critical-path and daemon handles
    too).  No domain may raise, and every metric must be registered
    once, with the counts the work implies. *)

module M = Spd_telemetry.Metrics
module Engine = Spd_harness.Engine
module Pipeline = Spd_harness.Pipeline

let domains = 4

(* run [f] on [domains] domains released at the same instant *)
let together f =
  let ready = Atomic.make 0 in
  List.init domains (fun i ->
      Domain.spawn (fun () ->
          Atomic.incr ready;
          while Atomic.get ready < domains do
            Domain.cpu_relax ()
          done;
          f i))
  |> List.map Domain.join

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let () =
  let session = Engine.Session.create ~jobs:1 () in
  let cycles =
    together (fun i ->
        let kind = List.nth Pipeline.all i in
        match
          Engine.Session.submit session
            (Engine.Query.v ~bench:"moment" ~latency:2
               (Engine.Query.Cycles { kind; width = Spd_machine.Descr.Fus 4 }))
        with
        | Engine.Ok n -> n
        | Engine.Failed f ->
            fail "%s" (Format.asprintf "%a" Engine.pp_failure f))
  in
  Engine.Session.close session;
  if List.exists (fun n -> n <= 0) cycles then fail "non-positive cycle count";
  ignore
    (together (fun _ ->
         Spd_sim.Interp.register_metrics ();
         Spd_machine.Scheduler.register_metrics ();
         Spd_machine.Critpath.register_metrics ();
         Pipeline.register_metrics ();
         Engine.register_metrics ();
         Spd_serve.Server.register_metrics ()));
  let snapshot = M.snapshot () in
  let counter name =
    match List.assoc_opt name snapshot with
    | Some (M.Counter n) -> n
    | _ -> fail "counter %s is not registered" name
  in
  let expect name n =
    if counter name <> n then fail "%s = %d, want %d" name (counter name) n
  in
  expect "spd.engine.queries" domains;
  (* one NAIVE reference run prices NAIVE, STATIC and PERFECT; SPEC is
     run once *)
  expect "spd.sim.runs" 2;
  expect "spd.engine.simulations" 1;
  List.iter
    (fun name -> ignore (counter name))
    [
      "spd.scheduler.schedules"; "spd.heuristic.candidates";
      "spd.validate.proved"; "spd.critpath.cycles.ambiguous-mem";
      "spd.serve.requests"; "spd.engine.cache.hits";
    ];
  print_endline "metrics_race: ok"
