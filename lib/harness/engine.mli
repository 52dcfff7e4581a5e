(** Domain-parallel experiment engine.

    The paper's evaluation grid — benchmarks × pipelines × memory
    latencies × machine widths — is embarrassingly parallel and every
    cell is a pure function of the workload source and the pipeline
    configuration.  A {!Session} owns all mutable state needed to
    exploit that: a fixed-size pool of OCaml 5 domains, promise-style
    per-cell memoization (each cell computed exactly once; concurrent
    requesters block on its promise), an optional content-addressed
    on-disk result cache under [_spd_cache/], and per-stage wall-clock
    instrumentation.

    The disk cache is a directory of packs.  A session loads every pack
    on its first cache access — its view is fixed from then on, so it
    does not see records other processes write later — serves reads and
    takes writes in memory, and {!Session.close} writes its view back
    as one pack.

    Work is requested through one typed entry point:
    {!Session.submit} takes an ['a {!Query.t}] — artefact kind, cell
    coordinates, optional per-request budgets — and returns an
    ['a {!outcome}], where ['a] is fixed by the artefact kind.  Every
    consumer (the CLI, the report builders, the [spd serve] daemon)
    goes through this single path, so a served request and the
    equivalent CLI invocation read the same memoized cell and emit
    identical values.

    Failures are contained per cell: a cell that keeps raising after
    its retry budget is recorded as a {!failure} and surfaced as a
    [Failed] {!outcome}; the rest of the batch still completes.  The
    on-disk cache is self-healing — corrupt or truncated records are
    detected by checksum, evicted, recomputed and dropped when the
    session closes.

    Results are deterministic in the number of jobs: the schedule
    changes only who computes a value, never the value. *)

(** Bumped whenever the compiler, scheduler, simulator or the on-disk
    entry format change in a way that affects emitted numbers or
    decoding; invalidates the on-disk cache. *)
val cache_version : string

(** [cache_usage dir] is the number of records in the packs of cache
    directory [dir] and the packs' total size in bytes; [(0, 0)] when
    [dir] does not exist. *)
val cache_usage : string -> int * int

(** Force registration of the engine-level counters — among them
    [spd.engine.cache.{hits,misses,evictions}], which [spd cache stats]
    reads — so a metrics snapshot carries them before any cell fires
    them ([spd serve] calls this at startup). *)
val register_metrics : unit -> unit

(** {1 Per-cell outcomes} *)

type failure = {
  key : string;  (** the cell key, [bench/latency/KIND/metric] *)
  exn : exn;
  backtrace : Printexc.raw_backtrace;
  attempts : int;  (** how many times the cell was attempted *)
  elapsed : float;  (** wall-clock seconds across all attempts *)
}

type 'a outcome = Ok of 'a | Failed of failure

(** Raised by {!get} when the underlying cell failed. *)
exception Cell_failed of failure

(** The value of an outcome; raises {!Cell_failed} on [Failed] — for
    callers that want raising semantics. *)
val get : 'a outcome -> 'a

val pp_failure : Format.formatter -> failure -> unit

(** {1 Typed queries}

    A {!Query.t} names one grid cell's artefact — the only request
    shape the engine accepts.  Optional [fuel]/[deadline] budgets act
    as per-request quotas: they can only {e tighten} the session's own
    budgets, and a budget-carrying query gets its own memo cell (so a
    quota-starved tenant's failure never poisons the unbudgeted cell,
    and N identical budgeted queries still cost one computation). *)

module Query : sig
  (** What to compute for the (bench, latency) cell; the type parameter
      is the type of the answer. *)
  type _ artefact =
    | Cycles : {
        kind : Pipeline.kind;
        width : Spd_machine.Descr.width;
      }
        -> int artefact  (** measured cycle count (disk-cacheable) *)
    | Code_size : Pipeline.kind -> int artefact
        (** static code size in operations (disk-cacheable) *)
    | Spd_counts : (int * int * int) artefact
        (** SpD applications by dependence kind (RAW, WAR, WAW) — a
            Table 6-3 row *)
    | Spd_dynamics : Pipeline.dynamics artefact
        (** run-time alias/no-alias commit counts of the SPEC pipeline *)
    | Spd_decisions : Spd_core.Heuristic.decision list artefact
        (** the guidance heuristic's full decision ledger (SPEC) *)
    | Spd_verdicts : Spd_validate.Validate.report list artefact
        (** per-application translation-validation ledger of the SPEC
            pipeline (disk-cacheable) *)
    | Speedup_over_naive : {
        kind : Pipeline.kind;
        width : Spd_machine.Descr.width;
      }
        -> float artefact  (** the metric of Figure 6-2 *)
    | Spec_over_static : { width : Spd_machine.Descr.width } -> float artefact
        (** the metric of Figure 6-3 *)
    | Code_growth : float artefact
        (** SPEC code size relative to STATIC (Figure 6-4) *)

  type 'a t = private {
    bench : string;  (** built-in workload name *)
    latency : int;  (** memory latency in cycles (paper: 2 and 6) *)
    artefact : 'a artefact;
    fuel : int option;
        (** per-request traversal quota; tightens the session budget *)
    deadline : float option;
        (** per-request wall-clock quota in seconds; tightens the
            session budget *)
  }

  (** Build a query.  Raises [Invalid_argument] on a non-positive
      [latency], [fuel] or [deadline]. *)
  val v :
    ?fuel:int ->
    ?deadline:float ->
    bench:string -> latency:int -> 'a artefact -> 'a t

  (** Stable lowercase artefact-kind name ([cycles], [code-size],
      [spd-counts], [spd-dynamics], [spd-decisions], [spd-validate],
      [speedup-over-naive], [spec-over-static], [code-growth]) — the
      wire spelling of the [spd serve] protocol. *)
  val artefact_name : 'a artefact -> string

  (** All artefact-kind names, for diagnostics. *)
  val artefact_names : string list

  (** Canonical human-readable request key,
      [bench/latency/artefact[/KIND][/width][+fuel=N][+deadline=S]]. *)
  val key : 'a t -> string
end

module Stats : sig
  type t = {
    jobs : int;  (** pool size of the session *)
    lowerings : int;  (** source programs compiled to IR *)
    preparations : int;  (** pipelines actually run (not cache hits) *)
    simulations : int;
        (** instrumented runs of prepared programs actually performed
            (the [Simulate] stage): one per distinct SPEC program — its
            code and watched SpD applications — whose path histogram
            prices it at every width.  NAIVE, STATIC and PERFECT, and a
            SPEC program that applies nothing, are priced from NAIVE's
            reference run, made once per benchmark in the [Profile]
            stage *)
    explorations : int;
        (** translation-validation obligations actually explored (the
            [Validate] stage): one per distinct obligation — what the
            checker reads of the trees before and after an SpD
            application — however many applications of the session's
            cells share it *)
    disk_hits : int;  (** results served from the on-disk cache *)
    disk_misses : int;  (** on-disk lookups that fell through *)
    disk_evictions : int;
        (** corrupt on-disk records evicted and recomputed *)
    cell_retries : int;  (** failed attempts that were retried *)
    cell_failures : int;  (** cells that exhausted their attempts *)
  }

  (** The counters as a sorted association list, [jobs] excluded — every
      included counter is a function of the requested grid alone, so the
      list (and {!pp}'s rendering of it) is bit-identical across job
      counts. *)
  val to_alist : t -> (string * int) list

  (** Sorted [key=value] pairs separated by ["; "]. *)
  val pp : Format.formatter -> t -> unit
end

module Session : sig
  type t

  (** [create ()] makes a fresh session.

      [jobs] bounds the concurrency (spawned domains plus the calling
      one); it defaults to {!Domain.recommended_domain_count}.  Worker
      domains are spawned lazily on the first parallel batch, so a
      session used sequentially costs nothing.

      [disk_cache] (default [false]) enables the content-addressed
      result cache in [cache_dir] (default ["_spd_cache"], created on
      demand; silently disabled if the directory cannot be used).  New
      records reach the disk when the session is flushed or closed
      ({!flush}, {!close}).

      [retries] (default [1]) is the number of attempts per cell before
      a failure is recorded.  [deadline] is a per-cell wall-clock budget
      in seconds: once it has elapsed, a failing cell is not retried.
      [fuel] bounds the simulator's tree traversals for every run of the
      session (profiling, checking, timing).  Both act as caps on
      per-request {!Query.t} budgets.

      [faults] arms deterministic fault injection (see {!Faults}); an
      armed [fuel:<n>] fault overrides [fuel].

      Every cell is prepared under {!Pipeline.Config.default} with its
      own memory latency and the session's budgets. *)
  val create :
    ?jobs:int ->
    ?disk_cache:bool ->
    ?cache_dir:string ->
    ?retries:int ->
    ?deadline:float ->
    ?fuel:int ->
    ?faults:Faults.t ->
    unit -> t

  (** Write the disk-cache records written since the last flush as one
      new pack (a temporary file and an atomic rename); a long-lived
      session calls it to land its work early.  Does nothing when there
      are none.  Never raises: a failed write is logged, and {!close}
      writes the records anyway. *)
  val flush : t -> unit

  (** Join the session's worker domains, then write the session's view
      of the disk cache back as one pack — the records of the packs it
      loaded, minus the ones it evicted, plus the ones it wrote — and
      remove the packs it loaded or flushed.  Packs another process wrote
      meanwhile stay.  Writes nothing unless the session wrote or evicted
      a record.  The session remains usable sequentially afterwards. *)
  val close : t -> unit

  (** [with_session s f] runs [f s] and closes [s] afterwards, whether
      [f] returns or raises. *)
  val with_session : t -> (t -> 'a) -> 'a

  val jobs : t -> int
  val stats : t -> Stats.t

  (** Every failure recorded so far, sorted by cell key. *)
  val failures : t -> failure list

  (** {1 The request path}

    [submit] is safe to call from any domain; each underlying
    computation (including a failure) happens exactly once per session
    and budget — concurrent identical queries piggyback on the promise
    of whoever got there first, so a burst of N duplicates costs one
    computation.  A failed cell comes back as [Failed] (renderers
    print [n/a]); [submit] itself never raises on a contained cell
    failure. *)

  val submit : t -> 'a Query.t -> 'a outcome

  (** {1 Pipeline materialization}

    The two compile-stage accessors that return in-memory programs
    rather than query answers — used by the extension experiments and
    by {!Explain} ([spd explain] and the daemon's [explain] method).
    Not failure-contained: an unknown benchmark, a compile error or a
    failed preparation raises, and the session re-raises it on every
    later request for the same program. *)

  (** Lowered IR of a built-in benchmark. *)
  val lowered : t -> string -> Spd_ir.Prog.t

  (** Prepared pipeline for a benchmark at a memory latency: the same
      memoized preparation the cells read, made under the session's
      budgets.  A SPEC preparation carries its checking run, shared
      through the session ({!Pipeline.run} returns it). *)
  val prepared :
    t -> bench:string -> latency:int -> Pipeline.kind -> Pipeline.prepared

  (** The session's per-application translation validation, which its
      [Spd_verdicts] cells prepare with ([Pipeline.prepare
      ~validator]): one {!Pipeline.explore} per distinct
      {!Spd_validate.Validate.obligation}, counted in
      {!Stats.t.explorations}.  A repeat reuses the first exploration's
      verdict, stats, digests and [time_ms], and keeps its own
      function, tree, kind and arc.  Raises [Failure] if two distinct
      obligations share a key. *)
  val validator :
    t ->
    func:string ->
    before:Spd_ir.Tree.t ->
    Spd_core.Heuristic.application ->
    Spd_ir.Tree.t ->
    Spd_validate.Validate.report

  (** {1 Fan-out}

    [parallel_map t f xs] applies [f] to every element of [xs] on the
    session's pool, preserving order.  The calling domain participates
    in draining the queue, so nested fan-out from inside [f] cannot
    starve the pool.  The first exception raised by any [f x] is
    re-raised after the whole batch has settled.  With [jobs = 1] this
    is exactly [List.map]. *)

  val parallel_map : t -> ('a -> 'b) -> 'a list -> 'b list
  val parallel_iter : t -> ('a -> unit) -> 'a list -> unit
end
