(** What a run needs from a workload, and the closed loop every
    workload measures with. *)

module Clock = Spd_telemetry.Clock
module Engine = Spd_harness.Engine
module Pipeline = Spd_harness.Pipeline

(** One measured operation: a report, a corpus compile or an RPC. *)
type sample = {
  kind : string;  (** the operation's kind; the RPC method on a daemon *)
  secs : float;  (** wall clock of the operation alone, checks excluded *)
  ok : bool;  (** the operation succeeded and its output checked out *)
}

type instance = {
  jobs : int;  (** domains the measured work may compute on *)
  loop : until:float -> max_ops:int -> sample list;
      (** run operations back to back until the monotonic deadline has
          passed or [max_ops] have run (at least one) *)
  counters : unit -> (string * float) list;
      (** cumulative work counters; a run takes differences *)
  verify : unit -> int * string list;
      (** checks that run once after the measured window: how many were
          made, and a message per failure *)
  daemon_pid : int option;  (** a serving child whose memory also counts *)
  close : unit -> unit;
}

type t = {
  name : string;
  op : string;
      (** the kind of sample the end-to-end metrics time; samples of
          other kinds are load that competes with them *)
  remote : bool;
      (** the layers below the client run in a daemon, so their times
          come from its stage histograms instead of the trace *)
  setup : seed:int -> trace:bool -> instance;
      (** [trace] asks a daemon-backed workload to trace its daemon *)
  traced_ops : int;
      (** operations the traced run records: enough for stable layer
          times, few enough to keep every span in memory *)
}

(** The closed loop: the next operation starts when the previous one
    has finished and been checked.  The loop stops after the deadline
    or the [max_ops]th operation. *)
let closed_loop ~until ~max_ops step =
  let rec go n acc =
    let acc = step () :: acc in
    if n >= max_ops || Clock.now () >= until then List.rev acc
    else go (n + 1) acc
  in
  go 1 []

let span name f = Spd_telemetry.Trace.with_span ~name f

(** The metrics registry as flat [(name, value)] pairs: counters by
    name, histograms as [name.count] and [name.sum].  Reads the
    [spd-metrics/1] document, so a daemon's [metrics] reply and this
    process's own registry go through the same code. *)
let flatten_metrics (doc : Spd_telemetry.Json.t) =
  let module Json = Spd_telemetry.Json in
  let obj k =
    match Json.member k doc with Some (Json.Obj kvs) -> kvs | _ -> []
  in
  let num j = Option.value ~default:0. (Json.to_number j) in
  List.map (fun (k, v) -> (k, num v)) (obj "counters")
  @ List.concat_map
      (fun (k, h) ->
        let get f = Option.fold ~none:0. ~some:num (Json.member f h) in
        [ (k ^ ".count", get "count"); (k ^ ".sum", get "sum") ])
      (obj "histograms")

let local_metrics () =
  let module M = Spd_telemetry.Metrics in
  flatten_metrics (M.snapshot_json (M.snapshot ()))

(* Interp, Scheduler and Pipeline register some of their metrics
   lazily, and forcing one of those lazies from two domains at once
   raises [CamlinternalLazy.Undefined] ([spd report --jobs 2] can die
   of it).  One sequential pass over every pipeline kind forces them
   all before any parallel work starts. *)
let sequential_pass () =
  Engine.register_metrics ();
  Pipeline.register_metrics ();
  let s = Engine.Session.create ~jobs:1 () in
  List.iter
    (fun kind ->
      match
        Engine.Session.submit s
          (Engine.Query.v ~bench:"moment" ~latency:2
             (Engine.Query.Cycles { kind; width = Spd_machine.Descr.Fus 5 }))
      with
      | Engine.Ok _ -> ()
      | Engine.Failed f ->
          failwith (Format.asprintf "sequential pass: %a" Engine.pp_failure f))
    Pipeline.all;
  Engine.Session.close s
