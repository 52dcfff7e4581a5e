(** The [spd serve] daemon (see the .mli).

    Concurrency model: one acceptor domain multiplexes the listening
    socket; accepted connections go through admission control into a
    bounded queue drained by [workers] supervised OCaml 5 domains.
    Each worker serves its connection to completion (requests on one
    connection are sequential, as JSON-RPC over a stream implies) and
    loops.  All artefact work funnels into the one shared
    {!Engine.Session}, whose promise-table memoization is what
    deduplicates concurrent identical requests across connections and
    domains.

    Crash-only discipline: every way a client can misbehave has a
    bounded, recoverable cost.  A peer that stalls mid-frame is
    evicted when its per-frame deadline expires; a header flood or
    oversized frame is a framing error answered once and dropped; a
    worker that dies on an unexpected exception is logged, counted and
    respawned by its own supervision loop, so the serving crew never
    shrinks; a full pending queue refuses new connections with a
    structured [server busy] error carrying a [retry_after_ms] hint
    instead of letting latency grow without bound.

    Shutdown is a drain, not a kill: [stop] (idempotent — signal
    handler, CLI, or the [shutdown] method) flips the state to
    [Draining] and writes the wake pipe; new requests other than
    [health]/[ping] are refused with [server shutting down] while
    in-flight requests finish under the drain deadline; then [wait]
    broadcasts on the "dead" pipe — written once, never drained, so
    every [select] in the process wakes — joins the domains and
    removes the socket. *)

module Json = Spd_telemetry.Json
module Metrics = Spd_telemetry.Metrics
module Trace = Spd_telemetry.Trace
module Log = Spd_telemetry.Log
module Clock = Spd_telemetry.Clock
module Context = Spd_telemetry.Context
module Engine = Spd_harness.Engine
module Query = Spd_harness.Engine.Query
module Pipeline = Spd_harness.Pipeline
module Artefact = Spd_harness.Artefact
module Explain = Spd_harness.Explain
module Why = Spd_harness.Why
module Validation = Spd_harness.Validation
module Microbench = Spd_harness.Microbench
module Faults = Spd_harness.Faults
module Cliflags = Spd_harness.Cliflags

let version = "1.1"

let methods =
  [
    "ping"; "health"; "query"; "report"; "explain"; "why"; "validate";
    "micro"; "run"; "metrics"; "metrics_prom"; "stats"; "shutdown";
  ]

let m_requests = Metrics.counter_handle "spd.serve.requests"
let m_errors = Metrics.counter_handle "spd.serve.errors"
let m_conn_timeout = Metrics.counter_handle "spd.serve.conn.timeout"
let m_worker_restart = Metrics.counter_handle "spd.serve.worker.restart"
let m_rejected = Metrics.counter_handle "spd.serve.admission.rejected"

let m_request_seconds =
  Metrics.histogram_handle ~buckets:Metrics.time_buckets
    "spd.serve.request_seconds"

(* Per-method latency histograms, one per known method plus "other"
   for garbage method names — a fixed set, so a client inventing
   method names cannot grow the registry without bound. *)
let m_rpc_latency =
  List.map
    (fun m ->
      ( m,
        Metrics.histogram_handle ~buckets:Metrics.time_buckets
          ("spd.serve.rpc.latency." ^ m) ))
    ("other" :: methods)

let rpc_latency meth =
  Metrics.get
    (match List.assoc_opt meth m_rpc_latency with
    | Some h -> h
    | None -> List.assoc "other" m_rpc_latency)

let register_metrics () =
  List.iter
    (fun h -> ignore (Metrics.get h))
    [ m_requests; m_errors; m_conn_timeout; m_worker_restart; m_rejected ];
  ignore (Metrics.get m_request_seconds);
  List.iter (fun (_, h) -> ignore (Metrics.get h)) m_rpc_latency;
  (* harness-level counters too: the heuristic-decision and disk-cache
     families must appear in scrapes before the first cell computes *)
  Pipeline.register_metrics ();
  Engine.register_metrics ()

(* Request ids: unique for a daemon's lifetime, prefixed with the pid
   so ids stay distinguishable when several daemons' logs are
   aggregated. *)
let rid_seq = Atomic.make 0

let fresh_rid () =
  Printf.sprintf "r%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add rid_seq 1)

(* backoff hint carried in the [server busy] error's data *)
let retry_after_ms = 100

type state = Running | Draining | Stopped

type t = {
  addr : Protocol.addr;
  listen_fd : Unix.file_descr;
  session : Engine.Session.t;
  run_fuel : int option;  (* cap on inline-run fuel requests *)
  run_deadline : float option;
  conn_timeout : float;  (* per-frame read + per-write deadline *)
  drain_deadline : float;  (* grace for in-flight requests on stop *)
  slow_ms : float option;  (* slow-request log threshold, milliseconds *)
  max_pending : int;  (* admission: queue slots beyond the workers *)
  faults : Faults.t;
  state : state Atomic.t;
  served : int Atomic.t;
  in_flight : int Atomic.t;  (* requests between decode and response *)
  active_conns : int Atomic.t;  (* connections claimed by a worker *)
  alive : int Atomic.t;  (* worker domains inside their supervisor *)
  restarts : int Atomic.t;
  timeouts : int Atomic.t;
  rejected : int Atomic.t;
  started_at : float;  (* monotonic (Clock.now), so uptime never jumps *)
  queue : Unix.file_descr Queue.t;  (* accepted, not yet claimed *)
  qmu : Mutex.t;
  qcond : Condition.t;
  (* [stop] -> [wait] handshake; written (one byte) at most once *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  (* final-shutdown broadcast: written once, never drained, so every
     select in the process stays woken *)
  dead_r : Unix.file_descr;
  dead_w : Unix.file_descr;
  nworkers : int;
  mutable acceptor : unit Domain.t option;
  mutable workers : unit Domain.t list;
  mutable torn_down : bool;  (* [wait] teardown already ran *)
}

(* ------------------------------------------------------------------ *)
(* Request parameter decoding.  [Bad_params] maps to JSON-RPC error
   -32602 (invalid params); compile/simulate exceptions map to -32000
   (server error). *)

exception Bad_params of string
exception Unknown_method of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_params s)) fmt

let obj_params = function
  | None | Some Json.Null -> Json.Obj []
  | Some (Json.Obj _ as o) -> o
  | Some _ -> raise (Bad_params "\"params\" must be an object")

let opt_string name p =
  match Json.member name p with
  | None | Some Json.Null -> None
  | Some (Json.String s) -> Some s
  | Some _ -> bad "%S must be a string" name

let req_string name p =
  match opt_string name p with
  | Some s -> s
  | None -> bad "missing required parameter %S" name

(* A JSON number as an int of at least [least]: integral and below
   [max_int], past which [int_of_float] does not round-trip *)
let int_at_least least j =
  match Json.to_number j with
  | Some v
    when Float.is_integer v
         && v >= float_of_int least
         && v < Float.of_int max_int ->
      Some (int_of_float v)
  | _ -> None

(* positive integer, with the same hint wording as the CLI's --fuel /
   --jobs flags (Cliflags) *)
let opt_pos_int name p =
  match Json.member name p with
  | None | Some Json.Null -> None
  | Some j -> (
      match (int_at_least 1 j, Json.to_number j) with
      | Some n, _ -> Some n
      | None, Some v -> bad "%S expects a positive integer, got %g" name v
      | None, None -> bad "%S expects a positive integer" name)

let opt_nat name p =
  match Json.member name p with
  | None | Some Json.Null -> None
  | Some j -> (
      match int_at_least 0 j with
      | Some n -> Some n
      | None -> bad "%S expects a non-negative integer" name)

let opt_pos_float name p =
  match Json.member name p with
  | None | Some Json.Null -> None
  | Some j -> (
      match Json.to_number j with
      | Some v when v > 0.0 && Float.is_finite v -> Some v
      | Some v ->
          bad "%S expects a positive number of seconds, got %g" name v
      | None -> bad "%S expects a positive number of seconds" name)

let opt_string_list name p =
  match Json.member name p with
  | None | Some Json.Null -> None
  | Some (Json.List l) ->
      Some
        (List.map
           (fun j ->
             match Json.to_string_opt j with
             | Some s -> s
             | None -> bad "%S must be a list of strings" name)
           l)
  | Some _ -> bad "%S must be a list of strings" name

let require_workload name =
  match Cliflags.check_workload name with
  | Ok () -> ()
  | Error msg -> bad "%s" msg

let pipeline_of_string s =
  match String.lowercase_ascii s with
  | "naive" -> Pipeline.Naive
  | "static" -> Pipeline.Static
  | "spec" -> Pipeline.Spec
  | "perfect" -> Pipeline.Perfect
  | _ -> bad "unknown pipeline %S (one of: naive, static, spec, perfect)" s

(* machine width: a positive integer number of FUs, or "inf" *)
let opt_width p =
  match Json.member "width" p with
  | None | Some Json.Null -> None
  | Some (Json.String "inf") -> Some Spd_machine.Descr.Infinite
  | Some j -> (
      match int_at_least 1 j with
      | Some n -> Some (Spd_machine.Descr.Fus n)
      | None -> bad "\"width\" expects a positive integer or \"inf\"")

let opt_min_int a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (min a b)

let opt_min_float a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (Float.min a b)

(* ------------------------------------------------------------------ *)
(* Building engine queries from request parameters *)

(* a query whose answer type follows from the wire artefact name *)
type any_query = Query : 'a Query.t -> any_query

let query_of_params p =
  let bench = req_string "bench" p in
  require_workload bench;
  let latency = Option.value ~default:2 (opt_pos_int "latency" p) in
  let fuel = opt_pos_int "fuel" p in
  let deadline = opt_pos_float "deadline" p in
  let kind_for art =
    match opt_string "pipeline" p with
    | Some s -> pipeline_of_string s
    | None -> bad "artefact %S needs a \"pipeline\"" art
  in
  let width_for art =
    match opt_width p with
    | Some w -> w
    | None -> bad "artefact %S needs a \"width\"" art
  in
  let q artefact = Query (Query.v ?fuel ?deadline ~bench ~latency artefact) in
  match req_string "artefact" p with
  | "cycles" ->
      q (Query.Cycles { kind = kind_for "cycles"; width = width_for "cycles" })
  | "code-size" -> q (Query.Code_size (kind_for "code-size"))
  | "spd-counts" -> q Query.Spd_counts
  | "spd-dynamics" -> q Query.Spd_dynamics
  | "spd-decisions" -> q Query.Spd_decisions
  | "spd-validate" -> q Query.Spd_verdicts
  | "speedup-over-naive" ->
      q
        (Query.Speedup_over_naive
           {
             kind = kind_for "speedup-over-naive";
             width = width_for "speedup-over-naive";
           })
  | "spec-over-static" ->
      q (Query.Spec_over_static { width = width_for "spec-over-static" })
  | "code-growth" -> q Query.Code_growth
  | s ->
      bad "unknown artefact %S (one of: %s)" s
        (String.concat ", " Query.artefact_names)

let dynamics_json (d : Pipeline.dynamics) =
  Json.Obj
    [
      ( "regions",
        Json.List
          (List.map
             (fun (r : Pipeline.region_dynamics) ->
               Json.Obj
                 [
                   ("func", Json.String r.func);
                   ("tree", Json.Int r.tree_id);
                   ( "kind",
                     Json.String
                       (Fmt.str "%a" Spd_ir.Memdep.pp_kind r.dep_kind) );
                   ( "arc",
                     Json.List [ Json.Int (fst r.arc); Json.Int (snd r.arc) ]
                   );
                   ("alias_commits", Json.Int r.alias_commits);
                   ("noalias_commits", Json.Int r.noalias_commits);
                 ])
             d.regions) );
      ("squashed", Json.Int d.squashed);
    ]

(* the answer to a query, encoded by its artefact kind *)
let value_json : type a. a Query.artefact -> a -> Json.t =
 fun artefact v ->
  match artefact with
  | Query.Cycles _ -> Json.Int v
  | Query.Code_size _ -> Json.Int v
  | Query.Speedup_over_naive _ -> Json.Float v
  | Query.Spec_over_static _ -> Json.Float v
  | Query.Code_growth -> Json.Float v
  | Query.Spd_counts ->
      let raw, war, waw = v in
      Json.Obj
        [ ("raw", Json.Int raw); ("war", Json.Int war); ("waw", Json.Int waw) ]
  | Query.Spd_dynamics -> dynamics_json v
  | Query.Spd_decisions ->
      (* ledger entries with their tree coordinates inlined; the [why]
         method serves the same entries grouped per tree *)
      Json.List
        (List.map
           (fun (d : Spd_core.Heuristic.decision) ->
             match Why.decision_json d with
             | Json.Obj fields ->
                 Json.Obj
                   (("func", Json.String d.func)
                   :: ("tree", Json.Int d.tree_id)
                   :: fields)
             | j -> j)
           v)
  | Query.Spd_verdicts ->
      (* ledger entries with their tree coordinates inlined; the
         [validate] method serves the same entries inside the
         spd-validate/1 document *)
      Json.List
        (List.map
           (fun (r : Spd_validate.Validate.report) ->
             match Validation.report_json r with
             | Json.Obj fields ->
                 Json.Obj
                   (("func", Json.String r.Spd_validate.Validate.func)
                   :: ("tree", Json.Int r.Spd_validate.Validate.tree_id)
                   :: fields)
             | j -> j)
           v)

(* ------------------------------------------------------------------ *)
(* Method dispatch.  Every result is either one of the repository's
   existing schema documents (spd-report/1, spd-explain/1, spd-micro/1,
   spd-metrics/1) or an spd-serve/1 object tagged with its "kind". *)

let serve_doc kind fields =
  Json.Obj
    (("schema", Json.String Protocol.schema)
    :: ("kind", Json.String kind)
    :: fields)

let pending_conns t =
  Mutex.lock t.qmu;
  let n = Queue.length t.queue in
  Mutex.unlock t.qmu;
  n

let health_doc t =
  serve_doc "health"
    [
      (* monotonic difference: survives wall-clock adjustments *)
      ("uptime_seconds", Json.Float (Clock.now () -. t.started_at));
      ("workers", Json.Int t.nworkers);
      ("workers_alive", Json.Int (Atomic.get t.alive));
      ("worker_restarts", Json.Int (Atomic.get t.restarts));
      ("in_flight", Json.Int (Atomic.get t.in_flight));
      ("active_connections", Json.Int (Atomic.get t.active_conns));
      ("pending_connections", Json.Int (pending_conns t));
      ("conn_timeouts", Json.Int (Atomic.get t.timeouts));
      ("admission_rejected", Json.Int (Atomic.get t.rejected));
      ("log_records", Json.Int (Log.records ()));
      ("log_dropped", Json.Int (Log.dropped ()));
      ("draining", Json.Bool (Atomic.get t.state <> Running));
      ("served", Json.Int (Atomic.get t.served));
    ]

let dispatch t meth params : Json.t =
  let p = obj_params params in
  match meth with
  | "ping" ->
      serve_doc "ping"
        [
          ("server", Json.String "spd-serve");
          ("version", Json.String version);
          ("methods", Json.List (List.map (fun m -> Json.String m) methods));
          ( "workloads",
            Json.List
              (List.map
                 (fun w -> Json.String w)
                 (Cliflags.workload_names ())) );
          ( "artefacts",
            Json.List
              (List.map (fun a -> Json.String a) Query.artefact_names) );
        ]
  | "health" -> health_doc t
  | "query" -> (
      let (Query q) = query_of_params p in
      let base = [ ("key", Json.String (Query.key q)) ] in
      match Engine.Session.submit t.session q with
      | Engine.Ok v ->
          serve_doc "query"
            (base
            @ [ ("ok", Json.Bool true); ("value", value_json q.artefact v) ])
      | Engine.Failed f ->
          (* a failed cell is a successful RPC: the renderers' n/a,
             machine-readable *)
          serve_doc "query"
            (base
            @ [
                ("ok", Json.Bool false);
                ("error", Json.String (Printexc.to_string f.Engine.exn));
                ("attempts", Json.Int f.Engine.attempts);
              ]))
  | "report" ->
      let names =
        match Json.member "artefacts" p with
        | None | Some Json.Null -> Artefact.paper_set
        | Some (Json.List l) ->
            List.map
              (fun j ->
                match Json.to_string_opt j with
                | Some s -> s
                | None -> bad "\"artefacts\" must be a list of names")
              l
        | Some _ -> bad "\"artefacts\" must be a list of names"
      in
      let arts =
        List.map
          (fun n ->
            match Artefact.find n with
            | Some a -> a
            | None ->
                bad "unknown artefact %S (one of: %s)" n
                  (String.concat ", " (Artefact.names ())))
          names
      in
      Artefact.to_json ~session:t.session arts
  | ("explain" | "why" | "validate") as meth ->
      let workload = req_string "workload" p in
      require_workload workload;
      let mem_latency =
        Option.value ~default:2 (opt_pos_int "mem_latency" p)
      in
      let fn = opt_string "fn" p in
      let tree = opt_nat "tree" p in
      (* an empty selection is a valid answer; only a filter that
         matches nothing is a caller error *)
      let answer entry ~selected ~to_json v =
        if (fn <> None || tree <> None) && selected ?fn ?tree v = [] then
          bad "no %s of %S matches the fn/tree filter" entry workload;
        to_json ?fn ?tree v
      in
      (match meth with
      | "explain" ->
          let width = Option.value ~default:5 (opt_pos_int "width" p) in
          answer "tree" ~selected:Explain.selected ~to_json:Explain.to_json
            (Explain.analyze ~width ~mem_latency t.session workload)
      | "why" ->
          answer "ledger entry" ~selected:Why.selected ~to_json:Why.to_json
            (Why.analyze ~mem_latency t.session workload)
      | _ ->
          answer "validation entry" ~selected:Validation.selected
            ~to_json:Validation.to_json
            (Validation.analyze ~mem_latency t.session workload))
  | "micro" ->
      let workloads = opt_string_list "workloads" p in
      Option.iter (List.iter require_workload) workloads;
      let mem_latency =
        Option.value ~default:2 (opt_pos_int "mem_latency" p)
      in
      let width = Option.value ~default:5 (opt_pos_int "width" p) in
      let min_time =
        Option.value ~default:0.02 (opt_pos_float "min_time" p)
      in
      if min_time > 5.0 then
        bad "\"min_time\" is capped at 5 seconds on a shared daemon";
      Microbench.to_json
        (Microbench.run ~mem_latency ~width ~min_time ?workloads ())
  | "run" ->
      let source = req_string "source" p in
      let kind =
        match opt_string "pipeline" p with
        | None -> Pipeline.Spec
        | Some s -> pipeline_of_string s
      in
      let mem_latency =
        Option.value ~default:2 (opt_pos_int "mem_latency" p)
      in
      let width =
        Option.value ~default:(Spd_machine.Descr.Fus 5) (opt_width p)
      in
      (* inline source bypasses the session's grid cells, so the
         daemon's own caps bound these budgets instead *)
      let fuel = opt_min_int t.run_fuel (opt_pos_int "fuel" p) in
      let deadline =
        opt_min_float t.run_deadline (opt_pos_float "deadline" p)
      in
      let prog = Spd_lang.Lower.compile source in
      let config = Pipeline.Config.v ?fuel ?deadline ~mem_latency () in
      let prepared = Pipeline.prepare ~config kind prog in
      let descr = { Spd_machine.Descr.width; mem_latency } in
      let r = Pipeline.run prepared in
      serve_doc "run"
        [
          ("pipeline", Json.String (Pipeline.name kind));
          ("machine", Json.String (Fmt.str "%a" Spd_machine.Descr.pp descr));
          ("cycles", Json.Int (Pipeline.price prepared r ~width));
          ("traversals", Json.Int r.traversals);
          ("return", Json.String (Fmt.str "%a" Spd_ir.Value.pp r.ret));
          ( "output",
            Json.List
              (List.map
                 (fun v -> Json.String (Fmt.str "%a" Spd_ir.Value.pp v))
                 r.output) );
          ("code_size", Json.Int (Pipeline.code_size prepared));
          ("applications", Json.Int (List.length prepared.applications));
        ]
  | "metrics" -> Metrics.snapshot_json (Metrics.snapshot ())
  | "metrics_prom" ->
      (* the Prometheus text exposition, wrapped in a JSON envelope the
         same way every other method answers; `spd call metrics
         --format prometheus` unwraps the "text" member *)
      serve_doc "metrics_prom"
        [
          ("content_type", Json.String "text/plain; version=0.0.4");
          ("text", Json.String (Metrics.prometheus (Metrics.snapshot ())));
        ]
  | "stats" ->
      let st = Engine.Session.stats t.session in
      serve_doc "stats"
        [
          ("jobs", Json.Int st.Engine.Stats.jobs);
          ( "counters",
            Json.Obj
              (List.map
                 (fun (k, v) -> (k, Json.Int v))
                 (Engine.Stats.to_alist st)) );
          ( "stage_seconds",
            Json.Obj
              (List.map
                 (fun (stage, secs) ->
                   (Pipeline.stage_name stage, Json.Float secs))
                 (Pipeline.stage_seconds ())) );
          ( "failures",
            Json.List
              (List.map
                 (fun (f : Engine.failure) -> Json.String f.Engine.key)
                 (Engine.Session.failures t.session)) );
          ("served", Json.Int (Atomic.get t.served));
        ]
  | "shutdown" -> serve_doc "shutdown" [ ("stopping", Json.Bool true) ]
  | m -> raise (Unknown_method m)

let stage_delta before after =
  List.filter_map
    (fun (stage, secs) ->
      let b =
        match List.assoc_opt stage before with Some x -> x | None -> 0.0
      in
      let d = secs -. b in
      if d > 1e-9 then Some (Pipeline.stage_name stage, Json.Float d)
      else None)
    after

(* Every request runs under its freshly assigned rid as the ambient
   Context, so the rpc trace span, the engine's cell/stage spans and
   every log record emitted on this domain carry it — and the response
   envelope echoes it back to the client. *)
let respond t ~id req : Json.t * bool =
  let rid = fresh_rid () in
  Context.with_id rid @@ fun () ->
  match Option.bind (Json.member "method" req) Json.to_string_opt with
  | None ->
      Metrics.incr (Metrics.get m_errors);
      Log.warn "rpc.invalid" [];
      ( Protocol.response_error ~rid ~id ~code:Protocol.invalid_request
          "request has no \"method\" member",
        false )
  | Some meth ->
      Metrics.incr (Metrics.get m_requests);
      let t0 = Clock.now () in
      (* two readings of the process's stage totals bracket a request
         for the slow-request breakdown *)
      let stages0 =
        match t.slow_ms with
        | None -> []
        | Some _ -> Pipeline.stage_seconds ()
      in
      let err code msg =
        Metrics.incr (Metrics.get m_errors);
        Protocol.response_error ~rid ~id ~code msg
      in
      let params = Json.member "params" req in
      let resp =
        match
          Trace.with_span ~name:("rpc:" ^ meth) (fun () ->
              dispatch t meth params)
        with
        | result -> Protocol.response_ok ~rid ~id result
        | exception Bad_params msg -> err Protocol.invalid_params msg
        | exception Unknown_method m ->
            err Protocol.method_not_found
              (Printf.sprintf "unknown method %S (one of: %s)" m
                 (String.concat ", " methods))
        | exception Invalid_argument msg -> err Protocol.invalid_params msg
        | exception e -> (
            match Cliflags.error_message e with
            | Some msg -> err Protocol.server_error msg
            | None -> err Protocol.server_error (Printexc.to_string e))
      in
      (* a request that wrote cache records lands them on disk, as one
         small pack, before it is answered; any other request writes
         nothing *)
      Engine.Session.flush t.session;
      let dt = Clock.now () -. t0 in
      Metrics.observe (Metrics.get m_request_seconds) dt;
      Metrics.observe (rpc_latency meth) dt;
      let ok = Json.member "result" resp <> None in
      Log.info "rpc"
        [
          ("method", Json.String meth);
          ("ok", Json.Bool ok);
          ("ms", Json.Float (dt *. 1000.0));
        ];
      (match t.slow_ms with
      | Some slow when dt *. 1000.0 >= slow ->
          (* stage deltas are process-wide, so under concurrency they
             include work other requests did in the window — an
             attribution hint, not an exact profile *)
          Log.warn "rpc.slow"
            [
              ("method", Json.String meth);
              ("ms", Json.Float (dt *. 1000.0));
              ("threshold_ms", Json.Float slow);
              ( "stages",
                Json.Obj (stage_delta stages0 (Pipeline.stage_seconds ())) );
            ]
      | _ -> ());
      (resp, meth = "shutdown" && ok)

(* ------------------------------------------------------------------ *)
(* Connection supervision *)

(* the process is going down hard: the dead pipe became readable while
   this connection was waiting for bytes *)
exception Conn_shutdown

let initiate_stop t =
  (* idempotent and safe inside a signal handler: one CAS, one
     nonblocking write *)
  if Atomic.compare_and_set t.state Running Draining then
    try ignore (Unix.write t.wake_w (Bytes.make 1 'w') 0 1)
    with Unix.Unix_error _ -> ()

(* A deadline-enforcing byte source over the connection.  The deadline
   is per frame, not per read: it is reset after each completed
   request, so a legitimate slow consumer stays connected while a
   slow-loris that dribbles bytes forever is still evicted. *)
let conn_reader t fd =
  let deadline = ref (Clock.now () +. t.conn_timeout) in
  let fill buf off len =
    let rec wait () =
      let remaining = !deadline -. Clock.now () in
      if remaining <= 0.0 then raise Protocol.Timeout;
      match Unix.select [ fd; t.dead_r ] [] [] remaining with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | [], _, _ -> raise Protocol.Timeout
      | ready, _, _ ->
          if List.mem t.dead_r ready then raise Conn_shutdown
          else Unix.read fd buf off len
    in
    wait ()
  in
  (Protocol.reader fill, deadline)

(* Probes and metrics scrapes still answer during a drain: they are
   cheap, read-only, and exactly what an operator watches while the
   daemon goes down. *)
let is_probe = function
  | Some ("ping" | "health" | "metrics" | "metrics_prom") -> true
  | _ -> false

let handle_conn t fd =
  (* writes are bounded too: a peer that stops reading surfaces as
     Sys_blocked_io through the channel, not a pinned worker *)
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.conn_timeout
   with Unix.Unix_error _ -> ());
  let oc = Unix.out_channel_of_descr fd in
  let r, deadline = conn_reader t fd in
  let finished = ref false in
  let write_resp resp =
    try
      Protocol.write_frame oc resp;
      true
    with Sys_error _ | Sys_blocked_io -> false
  in
  (try
     while not !finished do
       match Protocol.read_frame_r r with
       | Ok None -> finished := true
       | Error e ->
           (* unframeable input: answer once, then drop the peer *)
           let rid = fresh_rid () in
           Log.warn "conn.parse_error"
             [ ("rid", Json.String rid); ("error", Json.String e) ];
           ignore
             (write_resp
                (Protocol.response_error ~rid ~id:Json.Null
                   ~code:Protocol.parse_error e));
           finished := true
       | Ok (Some req) ->
           let id =
             Option.value ~default:Json.Null (Json.member "id" req)
           in
           let draining = Atomic.get t.state <> Running in
           let meth =
             Option.bind (Json.member "method" req) Json.to_string_opt
           in
           if draining && not (is_probe meth) then begin
             (* readiness probes still answer during the drain; real
                work is refused so clients fail over promptly *)
             let rid = fresh_rid () in
             Log.info "rpc.refused"
               [
                 ("rid", Json.String rid);
                 ("reason", Json.String "draining");
               ];
             ignore
               (write_resp
                  (Protocol.response_error ~rid ~id
                     ~code:Protocol.server_shutting_down
                     "server shutting down"));
             finished := true
           end
           else begin
             Atomic.incr t.in_flight;
             (* in_flight covers the response write as well, so the
                drain waits for answers to reach the wire *)
             let quit =
               Fun.protect
                 ~finally:(fun () -> Atomic.decr t.in_flight)
                 (fun () ->
                   let resp, quit = respond t ~id req in
                   if not (write_resp resp) then finished := true;
                   quit)
             in
             Atomic.incr t.served;
             deadline := Clock.now () +. t.conn_timeout;
             if quit then begin
               finished := true;
               initiate_stop t
             end;
             if draining then finished := true
           end
     done
   with
  | Protocol.Timeout ->
      (* slow-loris eviction: no response, the peer used up its frame
         deadline *)
      Atomic.incr t.timeouts;
      Metrics.incr (Metrics.get m_conn_timeout);
      Log.warn "conn.evicted"
        [
          ("reason", Json.String "frame deadline");
          ("timeout_seconds", Json.Float t.conn_timeout);
        ]
  | Conn_shutdown -> ()
  | End_of_file | Sys_error _ | Sys_blocked_io -> ()
  | Unix.Unix_error
      ( ( Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF | Unix.EAGAIN
        | Unix.EWOULDBLOCK ),
        _,
        _ ) ->
      ());
  try flush oc with Sys_error _ | Sys_blocked_io -> ()

(* ------------------------------------------------------------------ *)
(* Worker domains *)

(* block until a connection is available; None when the server stopped *)
let next_conn t =
  Mutex.lock t.qmu;
  let rec go () =
    if Atomic.get t.state = Stopped then None
    else
      match Queue.take_opt t.queue with
      | Some fd ->
          Atomic.incr t.active_conns;
          Some fd
      | None ->
          Condition.wait t.qcond t.qmu;
          go ()
  in
  let r = go () in
  Mutex.unlock t.qmu;
  r

let rec worker_loop t =
  match next_conn t with
  | None -> ()
  | Some fd ->
      Fun.protect
        ~finally:(fun () ->
          Atomic.decr t.active_conns;
          (* in and out channels share fd; close it exactly once *)
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* the worker-raise fault escapes to the supervisor below:
             the connection is lost (crash-only), the worker is not *)
          Faults.worker_raise t.faults;
          handle_conn t fd);
      worker_loop t

(* Supervision: [worker_loop] returning is a normal exit; an exception
   is a crash.  The connection that killed it is already closed by the
   [Fun.protect] above, so the supervisor just logs, counts and
   re-enters the loop — the serving crew never shrinks. *)
let worker_main t =
  Atomic.incr t.alive;
  Fun.protect
    ~finally:(fun () -> Atomic.decr t.alive)
    (fun () ->
      let rec supervise () =
        match worker_loop t with
        | () -> ()
        | exception e when Atomic.get t.state <> Stopped ->
            Atomic.incr t.restarts;
            Metrics.incr (Metrics.get m_worker_restart);
            Log.err "worker.restart"
              [
                ("error", Json.String (Printexc.to_string e));
                ("restarts", Json.Int (Atomic.get t.restarts));
              ];
            supervise ()
        | exception _ -> ()
      in
      supervise ())

(* ------------------------------------------------------------------ *)
(* Acceptor and admission control *)

let refuse_busy t fd =
  Atomic.incr t.rejected;
  Metrics.incr (Metrics.get m_rejected);
  let rid = fresh_rid () in
  Log.warn "conn.refused"
    [
      ("rid", Json.String rid);
      ("reason", Json.String "busy");
      ("retry_after_ms", Json.Int retry_after_ms);
    ];
  (try
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.0;
     let oc = Unix.out_channel_of_descr fd in
     Protocol.write_frame oc
       (Protocol.response_error ~rid
          ~data:(Json.Obj [ ("retry_after_ms", Json.Int retry_after_ms) ])
          ~id:Json.Null ~code:Protocol.server_busy "server busy")
   with Sys_error _ | Sys_blocked_io | Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Admission control: a connection is admitted while the workers plus
   the pending queue have room, otherwise it is answered [server busy]
   (with a retry hint) and closed — latency stays bounded instead of
   the queue growing without bound. *)
let admit t fd =
  Mutex.lock t.qmu;
  let overloaded =
    Atomic.get t.active_conns + Queue.length t.queue
    >= t.nworkers + t.max_pending
  in
  if overloaded then begin
    Mutex.unlock t.qmu;
    refuse_busy t fd
  end
  else begin
    Queue.push fd t.queue;
    Condition.signal t.qcond;
    Mutex.unlock t.qmu;
    Log.debug "conn.accept" []
  end

(* The acceptor multiplexes the (nonblocking) listening socket against
   the dead pipe, so closing time needs no dummy wake-up connections. *)
let acceptor_main t =
  let rec loop () =
    if Atomic.get t.state = Stopped then ()
    else
      match Unix.select [ t.listen_fd; t.dead_r ] [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | ready, _, _ ->
          if List.mem t.dead_r ready then ()
          else begin
            (match Unix.accept t.listen_fd with
            | exception
                Unix.Unix_error
                  ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
                    | Unix.ECONNABORTED ),
                    _,
                    _ ) ->
                ()
            | exception Unix.Unix_error _ ->
                (* transient resource trouble (e.g. fd exhaustion):
                   back off instead of spinning *)
                (try Unix.sleepf 0.05
                 with Unix.Unix_error (Unix.EINTR, _, _) -> ())
            | fd, _ ->
                Unix.clear_nonblock fd;
                admit t fd);
            loop ()
          end
  in
  loop ()

(* ------------------------------------------------------------------ *)

let listen addr =
  match addr with
  | Protocol.Unix_path path ->
      (if Sys.file_exists path then
         match (Unix.stat path).Unix.st_kind with
         | Unix.S_SOCK ->
             (* a stale socket from a dead daemon; replace it *)
             (try Unix.unlink path with Unix.Unix_error _ -> ())
         | _ ->
             failwith
               (Printf.sprintf
                  "spd serve: %s exists and is not a socket; refusing to \
                   replace it"
                  path));
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.bind fd (Unix.ADDR_UNIX path);
         Unix.listen fd 64
       with Unix.Unix_error (e, _, _) ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         failwith
           (Fmt.str "spd serve: cannot listen on %a: %s" Protocol.pp_addr
              addr (Unix.error_message e)));
      fd
  | Protocol.Tcp (host, port) ->
      let inet =
        match host with
        | "" | "*" | "0.0.0.0" -> Unix.inet_addr_any
        | h -> (
            try Unix.inet_addr_of_string h
            with Failure _ -> (
              match Unix.gethostbyname h with
              | { Unix.h_addr_list = [||]; _ } ->
                  failwith ("spd serve: cannot resolve host " ^ h)
              | info -> info.Unix.h_addr_list.(0)
              | exception Not_found ->
                  failwith ("spd serve: cannot resolve host " ^ h)))
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.setsockopt fd Unix.SO_REUSEADDR true;
         Unix.bind fd (Unix.ADDR_INET (inet, port));
         Unix.listen fd 64
       with Unix.Unix_error (e, _, _) ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         failwith
           (Fmt.str "spd serve: cannot listen on %a: %s" Protocol.pp_addr
              addr (Unix.error_message e)));
      fd

let start ?(workers = 4) ?(conn_timeout = 30.0) ?(drain_deadline = 10.0)
    ?(max_pending = 64) ?(faults = Faults.none) ?run_fuel ?run_deadline
    ?slow_ms ~session addr =
  (* a peer that disconnects mid-response must surface as EPIPE, not
     kill the daemon *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ | Sys_error _ -> ());
  let nworkers = max 1 workers in
  let listen_fd = listen addr in
  Unix.set_nonblock listen_fd;
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let dead_r, dead_w = Unix.pipe ~cloexec:true () in
  (* [stop] may run inside a signal handler: its pipe writes must not
     block *)
  Unix.set_nonblock wake_w;
  Unix.set_nonblock dead_w;
  (* register every serve metric up front, so a metrics snapshot
     carries the counters whether or not they have fired *)
  register_metrics ();
  let t =
    {
      addr;
      listen_fd;
      session;
      run_fuel;
      run_deadline;
      conn_timeout;
      drain_deadline;
      slow_ms;
      max_pending;
      faults;
      state = Atomic.make Running;
      served = Atomic.make 0;
      in_flight = Atomic.make 0;
      active_conns = Atomic.make 0;
      alive = Atomic.make 0;
      restarts = Atomic.make 0;
      timeouts = Atomic.make 0;
      rejected = Atomic.make 0;
      started_at = Clock.now ();
      queue = Queue.create ();
      qmu = Mutex.create ();
      qcond = Condition.create ();
      wake_r;
      wake_w;
      dead_r;
      dead_w;
      nworkers;
      acceptor = None;
      workers = [];
      torn_down = false;
    }
  in
  t.workers <-
    List.init nworkers (fun _ -> Domain.spawn (fun () -> worker_main t));
  t.acceptor <- Some (Domain.spawn (fun () -> acceptor_main t));
  Log.info "server.start"
    [
      ("addr", Json.String (Fmt.str "%a" Protocol.pp_addr addr));
      ("workers", Json.Int nworkers);
      ("max_pending", Json.Int max_pending);
    ];
  t

let stop = initiate_stop

let wait t =
  (* block until [stop] runs (signal handler, CLI, shutdown method) *)
  let rec await () =
    if Atomic.get t.state = Running then
      match Unix.select [ t.wake_r ] [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> await ()
      | _ -> ()
  in
  await ();
  if not t.torn_down then begin
    t.torn_down <- true;
    (* the drain transition is logged here, not in [stop]: [stop] must
       stay signal-handler-safe, and a mutex-taking log call is not *)
    Log.info "server.drain"
      [
        ("in_flight", Json.Int (Atomic.get t.in_flight));
        ("drain_deadline_seconds", Json.Float t.drain_deadline);
      ];
    (* graceful drain: let in-flight requests finish writing, bounded
       by the drain deadline *)
    let drain_until = Clock.now () +. t.drain_deadline in
    while Atomic.get t.in_flight > 0 && Clock.now () < drain_until do
      try Unix.sleepf 0.01 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    (* hard stop: the dead pipe wakes every select in the process and
       stays readable *)
    (try ignore (Unix.write t.dead_w (Bytes.make 1 'd') 0 1)
     with Unix.Unix_error _ -> ());
    Mutex.lock t.qmu;
    Atomic.set t.state Stopped;
    Condition.broadcast t.qcond;
    Mutex.unlock t.qmu;
    (match t.acceptor with
    | Some d ->
        Domain.join d;
        t.acceptor <- None
    | None -> ());
    List.iter Domain.join t.workers;
    t.workers <- [];
    (* connections admitted but never claimed by a worker *)
    Mutex.lock t.qmu;
    Queue.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      t.queue;
    Queue.clear t.queue;
    Mutex.unlock t.qmu;
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ t.listen_fd; t.wake_r; t.wake_w; t.dead_r; t.dead_w ];
    (match t.addr with
    | Protocol.Unix_path path -> (
        try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    | Protocol.Tcp _ -> ());
    Log.info "server.stop"
      [
        ("served", Json.Int (Atomic.get t.served));
        ("uptime_seconds", Json.Float (Clock.now () -. t.started_at));
      ];
    Log.flush ()
  end

let served t = Atomic.get t.served
let draining t = Atomic.get t.state <> Running
let workers_alive t = Atomic.get t.alive
let worker_restarts t = Atomic.get t.restarts
let conn_timeouts t = Atomic.get t.timeouts
let admission_rejected t = Atomic.get t.rejected
let active_conns t = Atomic.get t.active_conns
let in_flight t = Atomic.get t.in_flight
