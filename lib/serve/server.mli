(** The [spd serve] daemon: an always-on, multi-tenant front end to one
    shared {!Spd_harness.Engine.Session}.

    One acceptor domain multiplexes the listening socket; admitted
    connections are served by a fixed crew of supervised OCaml 5
    domains speaking framed JSON-RPC (see {!Protocol}); every artefact
    request becomes an {!Spd_harness.Engine.Query.t} submitted through
    [Engine.Session.submit], so

    - concurrent identical requests deduplicate onto one computation
      (the engine's per-cell promises), and
    - per-request [fuel]/[deadline] quotas isolate tenants: a
      quota-starved request fails with an [ok:false] response while
      the shared cells stay intact.

    The daemon is crash-only: a connection that stalls past its
    per-frame deadline is evicted (counted in
    [spd.serve.conn.timeout]); a worker that dies on an unexpected
    exception is respawned by its supervisor (counted in
    [spd.serve.worker.restart]); a connection arriving while workers
    and the pending queue are full is refused with a structured
    [server busy] error carrying [retry_after_ms] (counted in
    [spd.serve.admission.rejected]); {!stop} drains in-flight requests
    under a deadline instead of dropping them.

    Methods: [ping], [health], [query], [report], [explain], [why],
    [validate], [micro], [run], [metrics], [metrics_prom], [stats],
    [shutdown].  [report] responses reuse
    {!Spd_harness.Artefact.to_json} verbatim, which is what makes a
    served report byte-identical to [spd report --format json];
    [explain], [why] and [validate] read the shared session through one
    dispatch arm and answer the CLI's [--format json] document.

    Observability: the daemon assigns every RPC a request id, runs its
    dispatch under that id as the ambient {!Spd_telemetry.Context}
    (so log records and trace spans carry it) and echoes it as the
    response envelope's top-level ["rid"] member.  Request latency is
    observed both in the global [spd.serve.request_seconds] histogram
    and per method in [spd.serve.rpc.latency.<method>]; structured
    [spd-log/1] records (see {!Spd_telemetry.Log}) cover accept,
    admission refusal, timeout eviction, worker restart, the drain
    transitions and every request.  During a drain, [ping]/[health]
    and the metrics methods still answer, so probes and scrapers keep
    working while real work is refused. *)

type t

(** Daemon version string, reported by [ping]. *)
val version : string

(** The methods the daemon understands, reported by [ping]. *)
val methods : string list

(** Register every [spd.serve.*] metric, plus the harness counters a
    scrape must carry before the first cell computes.  {!start} calls
    it. *)
val register_metrics : unit -> unit

(** [start ~session addr] binds [addr], spawns the acceptor and
    [workers] serve domains (default 4) and returns immediately.

    [conn_timeout] (default 30s) bounds both how long a connection may
    take to deliver one complete frame and how long a response write
    may block.  [drain_deadline] (default 10s) bounds how long {!wait}
    lets in-flight requests finish after {!stop}.  [max_pending]
    (default 64) sets the admission-control queue depth beyond the
    worker count.  [faults] arms {!Spd_harness.Faults.worker_raise}
    for supervision tests.  The session's budgets
    ({!Spd_harness.Engine.Session.budgets}) cap the quotas of
    inline-source [run] requests as they cap [query] quotas.
    [slow_ms] arms the slow-request log: any request taking at least
    that many milliseconds logs an [rpc.slow] record with a per-stage
    wall-clock breakdown.  Raises [Failure] if the address cannot be
    bound (e.g. the socket path exists and is not a stale socket). *)
val start :
  ?workers:int ->
  ?conn_timeout:float ->
  ?drain_deadline:float ->
  ?max_pending:int ->
  ?faults:Spd_harness.Faults.t ->
  ?slow_ms:float ->
  session:Spd_harness.Engine.Session.t ->
  Protocol.addr -> t

(** Begin a graceful drain: new non-probe requests are refused with a
    [server shutting down] error while in-flight requests finish.
    Idempotent, safe from any domain and from signal handlers (also
    triggered by the [shutdown] method). *)
val stop : t -> unit

(** Block until {!stop} was requested, give in-flight requests up to
    the drain deadline to finish, then join the domains, close the
    listening socket and unlink a Unix-domain socket path. *)
val wait : t -> unit

(** Requests answered so far (all methods, errors included). *)
val served : t -> int

(** {1 Introspection} (also served by the [health] method) *)

(** Whether {!stop} has been requested. *)
val draining : t -> bool

(** Worker domains currently inside their supervision loop. *)
val workers_alive : t -> int

(** Times a worker was respawned after an unexpected exception. *)
val worker_restarts : t -> int

(** Connections evicted for stalling past the per-frame deadline. *)
val conn_timeouts : t -> int

(** Connections refused with [server busy]. *)
val admission_rejected : t -> int

(** Connections currently claimed by a worker. *)
val active_conns : t -> int

(** Requests currently between decode and response write. *)
val in_flight : t -> int
