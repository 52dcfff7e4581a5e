(** Hot-path throughput microbenchmarks ([spd bench micro]).

    Measures, per workload, the throughput of the three pipeline hot
    paths the system's performance lives on, plus the end-to-end wall
    clock of a full compile→schedule→simulate run:

    - {b compile}: source → lowered trees → scalar cleanup → dependence
      arcs → static disambiguation (operations per second);
    - {b schedule}: DDG construction + resource-constrained list
      scheduling of every tree of the SPEC program (DDG nodes per
      second);
    - {b simulate}: timed interpretation of the SPEC program
      (traversals per second);
    - {b e2e}: one whole pipeline run, source to simulated cycles
      (runs per second).

    Each stage is repeated until [min_time] seconds of wall clock have
    accumulated, so throughputs are stable without a fixed iteration
    count.  The result renders as the shared table data and serializes
    as one [spd-micro/1] JSON document; [make perf-smoke] compares its
    simulate throughput against the committed
    {e bench/history/micro-baseline.json}.

    Alongside the throughputs the document records each workload's
    simulated cycle and traversal counts under the [cycles.micro]
    table, so a hot-path rewrite that changes a schedule shows in the
    same document that reports its speedup. *)

module Json = Spd_telemetry.Json
module Interp = Spd_sim.Interp

let schema = "spd-micro/1"

type stage_sample = {
  units : string;  (** what [units_per_iter] counts: ops, nodes, ... *)
  units_per_iter : int;
  iters : int;
  secs : float;  (** total wall clock over [iters] iterations *)
  per_sec : float;  (** [iters * units_per_iter / secs] *)
}

type sample = {
  workload : string;
  compile : stage_sample;
  schedule : stage_sample;
  simulate : stage_sample;
  e2e : stage_sample;
  cycles : int;  (** simulated cycles of the SPEC program *)
  traversals : int;  (** tree traversals of one simulated run *)
}

type t = {
  mem_latency : int;
  width : int;
  min_time : float;
  samples : sample list;
}

(* ------------------------------------------------------------------ *)
(* Measurement *)

(** Repeat [f] until at least [min_time] seconds have accumulated
    (always at least once), and fold the elapsed time into a
    {!stage_sample}. *)
let measure ~min_time ~units ~units_per_iter (f : unit -> unit) :
    stage_sample =
  let iters = ref 0 in
  let elapsed = ref 0.0 in
  while !iters = 0 || !elapsed < min_time do
    let t0 = Spd_telemetry.Clock.now () in
    f ();
    elapsed := !elapsed +. (Spd_telemetry.Clock.now () -. t0);
    incr iters
  done;
  let secs = !elapsed in
  {
    units;
    units_per_iter;
    iters = !iters;
    secs;
    per_sec =
      (if secs > 0.0 then
         float_of_int (!iters * units_per_iter) /. secs
       else infinity);
  }

(** Benchmark one workload.  The compile stage runs the STATIC pipeline
    (lowering, cleanup, arc annotation, static disambiguation — no
    profiling runs, so the stage isolates the compiler); schedule and
    simulate run against the SPEC program, which is what the paper's
    experiments schedule and simulate. *)
let run_workload ?(mem_latency = 2) ?(width = 5) ?(min_time = 0.3)
    (w : Spd_workloads.Workload.t) : sample =
  let config = Pipeline.Config.v ~check:false ~mem_latency () in
  let descr =
    { Spd_machine.Descr.width = Spd_machine.Descr.Fus width; mem_latency }
  in
  let compile_once () =
    Pipeline.prepare ~config Pipeline.Static
      (Spd_lang.Lower.compile w.source)
  in
  let spec =
    Pipeline.prepare ~config Pipeline.Spec (Spd_lang.Lower.compile w.source)
  in
  let n_ops = Spd_ir.Prog.code_size spec.prog in
  let timing = Spd_machine.Timing_builder.program descr spec.prog in
  let probe = Interp.run ~timing spec.prog in
  let compile =
    measure ~min_time ~units:"ops"
      ~units_per_iter:(Spd_ir.Prog.code_size (compile_once ()).prog)
      (fun () -> ignore (compile_once ()))
  in
  let schedule =
    measure ~min_time ~units:"nodes" ~units_per_iter:n_ops (fun () ->
        ignore (Spd_machine.Timing_builder.program descr spec.prog))
  in
  let simulate =
    measure ~min_time ~units:"traversals" ~units_per_iter:probe.traversals
      (fun () -> ignore (Interp.run ~timing spec.prog))
  in
  let e2e =
    measure ~min_time ~units:"runs" ~units_per_iter:1 (fun () ->
        let p =
          Pipeline.prepare ~config Pipeline.Spec
            (Spd_lang.Lower.compile w.source)
        in
        let timing = Spd_machine.Timing_builder.program descr p.prog in
        ignore (Interp.run ~timing p.prog))
  in
  {
    workload = w.name;
    compile;
    schedule;
    simulate;
    e2e;
    cycles = probe.cycles;
    traversals = probe.traversals;
  }

(** Benchmark [workloads] (default: the paper's Table 6-2 set plus the
    [matmul300] demo). *)
let run ?(mem_latency = 2) ?(width = 5) ?(min_time = 0.3) ?workloads () : t
    =
  let workloads =
    match workloads with
    | Some ws -> List.map Spd_workloads.Registry.by_name ws
    | None -> Spd_workloads.Registry.all @ Spd_workloads.Registry.extras
  in
  {
    mem_latency;
    width;
    min_time;
    samples =
      List.map (run_workload ~mem_latency ~width ~min_time) workloads;
  }

(* ------------------------------------------------------------------ *)
(* Rendering *)

let to_tables (t : t) : Table.t list =
  [
    Table.v ~id:"micro.throughput"
      ~title:
        (Printf.sprintf
           "Hot-path throughput (%d FU, %d-cycle memory; higher is \
            better)"
           t.width t.mem_latency)
      ~notes:
        [
          Printf.sprintf
            "each stage repeated until >= %.3gs of wall clock" t.min_time;
        ]
      ~label_header:"workload"
      ~columns:
        [ "compile ops/s"; "schedule nodes/s"; "simulate trav/s";
          "e2e runs/s" ]
      (List.map
         (fun s ->
           Table.row s.workload
             [
               Table.Num s.compile.per_sec;
               Table.Num s.schedule.per_sec;
               Table.Num s.simulate.per_sec;
               Table.Num s.e2e.per_sec;
             ])
         t.samples);
    Table.v ~id:"cycles.micro"
      ~title:"Simulated cycles per workload (determinism anchor)"
      ~notes:
        [
          "any movement here means the rewrite changed a schedule, not \
           just its speed";
        ]
      ~label_header:"workload" ~columns:[ "cycles"; "traversals" ]
      (List.map
         (fun s ->
           Table.row s.workload [ Table.Int s.cycles; Table.Int s.traversals ])
         t.samples);
  ]

let stage_json (s : stage_sample) =
  Json.Obj
    [
      ("units", Json.String s.units);
      ("units_per_iter", Json.Int s.units_per_iter);
      ("iters", Json.Int s.iters);
      ("secs", Json.Float s.secs);
      ("per_sec", Json.Float s.per_sec);
    ]

let sample_json (s : sample) =
  Json.Obj
    [
      ("name", Json.String s.workload);
      ("compile", stage_json s.compile);
      ("schedule", stage_json s.schedule);
      ("simulate", stage_json s.simulate);
      ("e2e", stage_json s.e2e);
      ("cycles", Json.Int s.cycles);
      ("traversals", Json.Int s.traversals);
    ]

let to_json (t : t) : Json.t =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("mem_latency", Json.Int t.mem_latency);
      ("width", Json.Int t.width);
      ("min_time", Json.Float t.min_time);
      ("tables", Json.List (List.map Table.to_json (to_tables t)));
      ("workloads", Json.List (List.map sample_json t.samples));
    ]

(* ------------------------------------------------------------------ *)
(* Baseline comparison (make perf-smoke) *)

(** Simulate-stage throughput of [workload] in a parsed [spd-micro/1]
    document, for comparing a fresh run against a committed baseline
    snapshot. *)
let simulate_per_sec (doc : Json.t) ~workload : float option =
  match Option.bind (Json.member "schema" doc) Json.to_string_opt with
  | Some s when s = schema ->
      Option.bind (Json.member "workloads" doc) Json.to_list
      |> Option.value ~default:[]
      |> List.find_opt (fun w ->
             Option.bind (Json.member "name" w) Json.to_string_opt
             = Some workload)
      |> fun w ->
      Option.bind w (fun w ->
          Option.bind (Json.member "simulate" w) (fun sim ->
              Option.bind (Json.member "per_sec" sim) Json.to_number))
  | _ -> None
