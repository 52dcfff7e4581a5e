(** Hot-path throughput microbenchmarks ([spd bench micro]).

    Per workload: compile, schedule and simulate throughput plus the
    end-to-end wall clock of a full pipeline run, each stage repeated
    until a minimum wall-clock budget has accumulated.  Results render
    through the shared {!Table} data ([micro*] throughput tables and
    the [cycles.micro] cycle counts) and serialize as one [spd-micro/1]
    document, which [make perf-smoke] gates against a committed
    baseline. *)

(** Schema identifier of the JSON document: ["spd-micro/1"]. *)
val schema : string

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

(** Benchmark one workload (SPEC pipeline; defaults: 5 FUs, 2-cycle
    memory, 0.3s per stage). *)
val run_workload :
  ?mem_latency:int ->
  ?width:int ->
  ?min_time:float ->
  Spd_workloads.Workload.t -> sample

(** Benchmark [workloads] by name (default: the paper's Table 6-2 set
    plus the extras, e.g. [matmul300]). *)
val run :
  ?mem_latency:int ->
  ?width:int ->
  ?min_time:float ->
  ?workloads:string list -> unit -> t

val to_tables : t -> Table.t list
val to_json : t -> Spd_telemetry.Json.t

(** Simulate-stage throughput of [workload] in a parsed [spd-micro/1]
    document; [None] when the document does not carry it.  Used by
    [make perf-smoke] to compare a fresh run against the committed
    baseline snapshot. *)
val simulate_per_sec : Spd_telemetry.Json.t -> workload:string -> float option
