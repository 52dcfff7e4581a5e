(** Domain-parallel experiment engine.

    The paper's evaluation is an embarrassingly parallel grid —
    benchmarks × pipelines × memory latencies × machine widths — and
    every cell is a pure function of the workload source and the
    pipeline configuration.  A {!Session} exploits both facts:

    - {b promise-style memoization}: each cell is computed exactly
      once per session; concurrent requesters block on the promise of
      the domain already computing it;
    - {b a fixed-size domain pool}: [jobs] ways of parallelism
      (including the calling domain, which drains the task queue while
      it waits, so [jobs = 1] degenerates to plain sequential
      evaluation and nested fan-out cannot starve the pool);
    - {b a content-addressed on-disk result cache}: the digest of the
      workload source, the pipeline fingerprint and the machine
      description addresses the resulting cycle count / SpD summary
      in the packs under [_spd_cache/], so warm re-runs skip lowering,
      profiling, SpD and scheduling entirely;
    - {b per-stage wall-clock instrumentation}, surfaced through
      {!Session.stats} and rendered by [Report.timings_tables].

    Results are deterministic in [jobs]: cells are pure, so the
    schedule changes only who computes a value, never the value. *)

module W = Spd_workloads

(* Bumped whenever the compiler, scheduler, simulator or the on-disk
   entry format change in a way that affects emitted numbers or decoding;
   invalidates every on-disk entry.  "2": checksummed entry format.
   "3": [Dynamics] entries; SpD applications carry their predicate
   register.  "4": [Decisions] entries; memory arcs carry their
   ambiguity provenance.  "5": [D_verdicts] entries — the
   translation-validation ledger.  "6": records live in packs of many
   records each, instead of one file per entry. *)
let cache_version = "6"

(* Engine-level metrics, mirrored alongside the per-session [Stats]
   counters so a metrics snapshot covers multi-session processes too. *)
module M = Spd_telemetry.Metrics
module Log = Spd_telemetry.Log
module Clock = Spd_telemetry.Clock
module Trace = Spd_telemetry.Trace

let m_lowerings = M.counter_handle "spd.engine.lowerings"
let m_preparations = M.counter_handle "spd.engine.preparations"
let m_simulations = M.counter_handle "spd.engine.simulations"
let m_explorations = M.counter_handle "spd.engine.explorations"
let m_cache_hits = M.counter_handle "spd.engine.cache.hits"
let m_cache_misses = M.counter_handle "spd.engine.cache.misses"
let m_cache_evictions = M.counter_handle "spd.engine.cache.evictions"
let m_cell_retries = M.counter_handle "spd.engine.cells.retried"
let m_cell_failures = M.counter_handle "spd.engine.cells.failed"
let m_queries = M.counter_handle "spd.engine.queries"

let mark c = M.incr (M.get c)

(** Force registration of the engine-level counters (including the
    [spd.engine.cache.*] ones `spd cache stats` reads), so a metrics
    snapshot carries them before any cell fires them. *)
let register_metrics () =
  List.iter
    (fun c -> ignore (M.get c))
    [
      m_lowerings; m_preparations; m_simulations; m_explorations;
      m_cache_hits; m_cache_misses; m_cache_evictions; m_cell_retries;
      m_cell_failures; m_queries;
    ]

(* ------------------------------------------------------------------ *)
(* Promise-style memo table, safe for concurrent use from domains.  The
   first requester of a key installs [Pending] and computes outside the
   lock; later requesters wait on the condition until the promise is
   fulfilled (or broken — the exception is replayed, with the original
   backtrace re-attached, to every waiter). *)

module Memo : sig
  type ('k, 'v) t
  val create : int -> ('k, 'v) t
  val get : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
end = struct
  type 'v state =
    | Pending
    | Done of 'v
    | Broken of exn * Printexc.raw_backtrace

  type ('k, 'v) t = {
    mu : Mutex.t;
    fulfilled : Condition.t;
    tbl : ('k, 'v state) Hashtbl.t;
  }

  let create n =
    { mu = Mutex.create (); fulfilled = Condition.create ();
      tbl = Hashtbl.create n }

  let get t k f =
    Mutex.lock t.mu;
    let rec decide () =
      match Hashtbl.find_opt t.tbl k with
      | Some (Done v) -> Mutex.unlock t.mu; v
      | Some (Broken (e, bt)) ->
          Mutex.unlock t.mu;
          Printexc.raise_with_backtrace e bt
      | Some Pending -> Condition.wait t.fulfilled t.mu; decide ()
      | None ->
          Hashtbl.replace t.tbl k Pending;
          Mutex.unlock t.mu;
          let result =
            try Ok (f ())
            with e -> Error (e, Printexc.get_raw_backtrace ())
          in
          Mutex.lock t.mu;
          Hashtbl.replace t.tbl k
            (match result with
            | Ok v -> Done v
            | Error (e, bt) -> Broken (e, bt));
          Condition.broadcast t.fulfilled;
          Mutex.unlock t.mu;
          (match result with
          | Ok v -> v
          | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    in
    decide ()
end

(* ------------------------------------------------------------------ *)
(* Fixed-size worker pool.  Domains are spawned lazily on the first
   batch; the caller of [map] participates in draining the queue, so a
   pool of size [n] runs at most [n] tasks concurrently ([n - 1]
   spawned domains plus the caller) and a task that itself fans out
   keeps making progress even when every worker is busy. *)

module Pool : sig
  type t
  val create : size:int -> t
  val map : t -> ('a -> 'b) -> 'a list -> 'b list
  val close : t -> unit
end = struct
  type batch = { mutable remaining : int; mutable failed : exn option }
  type task = { run : unit -> unit; batch : batch }

  type t = {
    mu : Mutex.t;
    work : Condition.t;  (* queue became non-empty, or shutdown *)
    donec : Condition.t;  (* some batch completed *)
    queue : task Queue.t;
    size : int;
    mutable spawned : bool;
    mutable shutdown : bool;
    mutable workers : unit Domain.t list;
  }

  let create ~size =
    { mu = Mutex.create (); work = Condition.create ();
      donec = Condition.create (); queue = Queue.create (); size;
      spawned = false; shutdown = false; workers = [] }

  let run_task t task =
    (try task.run ()
     with e ->
       Mutex.lock t.mu;
       if task.batch.failed = None then task.batch.failed <- Some e;
       Mutex.unlock t.mu);
    Mutex.lock t.mu;
    task.batch.remaining <- task.batch.remaining - 1;
    if task.batch.remaining = 0 then Condition.broadcast t.donec;
    Mutex.unlock t.mu

  let rec worker t =
    Mutex.lock t.mu;
    while Queue.is_empty t.queue && not t.shutdown do
      Condition.wait t.work t.mu
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.mu (* shutdown *)
    else begin
      let task = Queue.pop t.queue in
      Mutex.unlock t.mu;
      run_task t task;
      worker t
    end

  let ensure_spawned t =
    Mutex.lock t.mu;
    if (not t.spawned) && t.size > 1 then begin
      t.spawned <- true;
      t.workers <-
        List.init (t.size - 1) (fun _ -> Domain.spawn (fun () -> worker t))
    end;
    Mutex.unlock t.mu

  let map t f xs =
    match xs with
    | [] -> []
    | [ x ] -> [ f x ]
    | _ when t.size <= 1 -> List.map f xs
    | xs ->
        ensure_spawned t;
        let arr = Array.of_list xs in
        let out = Array.make (Array.length arr) None in
        let batch = { remaining = Array.length arr; failed = None } in
        Mutex.lock t.mu;
        Array.iteri
          (fun i x ->
            Queue.push { run = (fun () -> out.(i) <- Some (f x)); batch }
              t.queue)
          arr;
        Condition.broadcast t.work;
        (* the caller is the pool's [size]-th worker until its batch
           completes *)
        let rec drain () =
          if batch.remaining = 0 then Mutex.unlock t.mu
          else if not (Queue.is_empty t.queue) then begin
            let task = Queue.pop t.queue in
            Mutex.unlock t.mu;
            run_task t task;
            Mutex.lock t.mu;
            drain ()
          end
          else begin
            Condition.wait t.donec t.mu;
            drain ()
          end
        in
        drain ();
        (match batch.failed with Some e -> raise e | None -> ());
        Array.to_list (Array.map Option.get out)

  let close t =
    Mutex.lock t.mu;
    t.shutdown <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.mu;
    List.iter Domain.join t.workers;
    t.workers <- []
end

(* ------------------------------------------------------------------ *)
(* Per-cell outcomes.  A failing grid cell no longer aborts a batch:
   the failure — original exception, backtrace, attempt count, elapsed
   wall clock — is captured, memoized like any other cell value, and
   surfaced to renderers as [Failed]. *)

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

let get = function Ok v -> v | Failed f -> raise (Cell_failed f)

let pp_failure ppf f =
  Fmt.pf ppf "%s: %s (attempts %d, %.1fs)" f.key (Printexc.to_string f.exn)
    f.attempts f.elapsed

let () =
  Printexc.register_printer (function
    | Cell_failed f -> Some (Fmt.str "Cell_failed: %a" pp_failure f)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Typed queries: the one request shape the engine accepts.  A query
   names an artefact of a (bench, latency) cell plus optional
   per-request budgets; the artefact's type parameter is the type of
   its answer.  Budgets only *tighten* the session's own
   budgets, and a budgeted query memoizes under its own cell — a
   quota-starved request can fail without poisoning the unbudgeted
   cell, while N identical budgeted requests still cost one
   computation. *)

let width_tag = function
  | Spd_machine.Descr.Infinite -> "inf"
  | Spd_machine.Descr.Fus n -> "fus" ^ string_of_int n

module Query = struct
  type _ artefact =
    | Cycles : {
        kind : Pipeline.kind;
        width : Spd_machine.Descr.width;
      }
        -> int artefact
    | Code_size : Pipeline.kind -> int artefact
    | Spd_counts : (int * int * int) artefact
    | Spd_dynamics : Pipeline.dynamics artefact
    | Spd_decisions : Spd_core.Heuristic.decision list artefact
    | Spd_verdicts : Spd_validate.Validate.report list artefact
    | Speedup_over_naive : {
        kind : Pipeline.kind;
        width : Spd_machine.Descr.width;
      }
        -> float artefact
    | Spec_over_static : { width : Spd_machine.Descr.width } -> float artefact
    | Code_growth : float artefact

  type 'a t = {
    bench : string;
    latency : int;
    artefact : 'a artefact;
    fuel : int option;
    deadline : float option;
  }

  let artefact_name : type a. a artefact -> string = function
    | Cycles _ -> "cycles"
    | Code_size _ -> "code-size"
    | Spd_counts -> "spd-counts"
    | Spd_dynamics -> "spd-dynamics"
    | Spd_decisions -> "spd-decisions"
    | Spd_verdicts -> "spd-validate"
    | Speedup_over_naive _ -> "speedup-over-naive"
    | Spec_over_static _ -> "spec-over-static"
    | Code_growth -> "code-growth"

  let artefact_names =
    [
      "cycles"; "code-size"; "spd-counts"; "spd-dynamics"; "spd-decisions";
      "spd-validate"; "speedup-over-naive"; "spec-over-static"; "code-growth";
    ]

  let v ?fuel ?deadline ~bench ~latency artefact =
    if latency < 1 then
      invalid_arg
        (Printf.sprintf "Engine.Query.v: latency must be positive, got %d"
           latency);
    (match fuel with
    | Some n when n < 1 ->
        invalid_arg
          (Printf.sprintf "Engine.Query.v: fuel must be positive, got %d" n)
    | _ -> ());
    (match deadline with
    | Some d when d <= 0.0 ->
        invalid_arg
          (Printf.sprintf "Engine.Query.v: deadline must be positive, got %g"
             d)
    | _ -> ());
    { bench; latency; artefact; fuel; deadline }

  let key (type a) (q : a t) =
    let detail =
      match q.artefact with
      | Cycles { kind; width } ->
          Printf.sprintf "/%s/%s" (Pipeline.name kind) (width_tag width)
      | Code_size kind -> "/" ^ Pipeline.name kind
      | Spd_counts | Spd_dynamics | Spd_decisions | Spd_verdicts
      | Code_growth ->
          ""
      | Speedup_over_naive { kind; width } ->
          Printf.sprintf "/%s/%s" (Pipeline.name kind) (width_tag width)
      | Spec_over_static { width } -> "/" ^ width_tag width
    in
    let budget =
      (match q.fuel with
      | None -> ""
      | Some n -> Printf.sprintf "+fuel=%d" n)
      ^
      match q.deadline with
      | None -> ""
      | Some d -> Printf.sprintf "+deadline=%g" d
    in
    Printf.sprintf "%s/%d/%s%s%s" q.bench q.latency
      (artefact_name q.artefact)
      detail budget
end

(* ------------------------------------------------------------------ *)

module Stats = struct
  type t = {
    jobs : int;  (** pool size of the session *)
    lowerings : int;  (** source programs compiled to IR *)
    preparations : int;  (** pipelines actually run (not cache hits) *)
    simulations : int;
        (** instrumented runs of prepared programs actually performed
            (the [Simulate] stage), one per distinct SPEC program; each
            prices its program at every width.  NAIVE's reference run,
            which prices NAIVE, STATIC, PERFECT and a SPEC program that
            applies nothing, is the [Profile] stage of a preparation *)
    explorations : int;
        (** validation obligations actually explored (the [Validate]
            stage), one per distinct obligation *)
    disk_hits : int;  (** results served from the on-disk cache *)
    disk_misses : int;  (** on-disk lookups that fell through *)
    disk_evictions : int;  (** corrupt on-disk records evicted and recomputed *)
    cell_retries : int;  (** failed attempts that were retried *)
    cell_failures : int;  (** cells that exhausted their attempts *)
  }

  (* Sorted [key=value] rendering.  [jobs] is deliberately excluded:
     every other counter is a function of the requested grid alone, so
     the rendered line is bit-identical across job counts (renderers
     that want the pool size print {!t.jobs} themselves). *)
  let to_alist t =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      [
        ("cell_failures", t.cell_failures);
        ("cell_retries", t.cell_retries);
        ("disk_evictions", t.disk_evictions);
        ("disk_hits", t.disk_hits);
        ("disk_misses", t.disk_misses);
        ("explorations", t.explorations);
        ("lowerings", t.lowerings);
        ("preparations", t.preparations);
        ("simulations", t.simulations);
      ]

  let pp ppf t =
    Fmt.pf ppf "%a"
      Fmt.(list ~sep:(any "; ") (pair ~sep:(any "=") string int))
      (to_alist t)
end

(* ------------------------------------------------------------------ *)
(* On-disk packs.  The cache directory holds packs; a pack is a run of
   records, each a cell's address (the hex MD5 of its payload) followed
   by its checksummed entry:

     <address> spd-cache <version> <md5-of-body> <body-length>\n<body>

   The header's length frames the record; the version, the checksum and
   the unmarshal are checked when the record is read.  Packs are written
   whole, through a unique temporary file and an atomic rename, so no
   reader ever observes a torn pack. *)

module Pack = struct
  (* [iter s f] calls [f address version entry] on every record of pack
     [s].  A header that is cut short or malformed ends the pack — the
     records past it are lost — while a body cut short is handed over
     short, so reading it fails the length check. *)
  let iter s f =
    let n = String.length s in
    let rec go i =
      match String.index_from_opt s i '\n' with
      | None -> ()
      | Some j -> (
          match String.split_on_char ' ' (String.sub s i (j - i)) with
          | [ address; "spd-cache"; version; _; len ] -> (
              match int_of_string_opt len with
              | Some len when len >= 0 ->
                  let start = i + String.length address + 1 in
                  let stop = min n (j + 1 + len) in
                  f address version (String.sub s start (stop - start));
                  if stop < n then go stop
              | _ -> ())
          | _ -> ())
    in
    if n > 0 then go 0

  (* every pack of [dir] with its bytes, by name; a pack removed between
     listing and reading (a concurrent flush) is skipped *)
  let read_all dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | names ->
        Array.sort String.compare names;
        Array.to_list names
        |> List.filter_map (fun name ->
               if not (Filename.check_suffix name ".pack") then None
               else
                 match
                   In_channel.with_open_bin (Filename.concat dir name)
                     In_channel.input_all
                 with
                 | s -> Some (name, s)
                 | exception Sys_error _ -> None)

  let write_seq = Atomic.make 0

  (* Write [records] as one pack, sorted by address and named by the
     digest of its bytes, and return its name. *)
  let write dir records =
    let buf = Buffer.create 4096 in
    List.iter
      (fun (address, entry) ->
        Buffer.add_string buf address;
        Buffer.add_char buf ' ';
        Buffer.add_string buf entry)
      (List.sort (fun (a, _) (b, _) -> String.compare a b) records);
    let bytes = Buffer.contents buf in
    let name = Digest.to_hex (Digest.string bytes) ^ ".pack" in
    let path = Filename.concat dir name in
    let tmp =
      Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
        (Atomic.fetch_and_add write_seq 1)
    in
    (try
       Out_channel.with_open_bin tmp (fun oc ->
           Out_channel.output_string oc bytes);
       Sys.rename tmp path
     with e ->
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    name
end

let cache_usage dir =
  List.fold_left
    (fun (records, bytes) (_, s) ->
      let n = ref 0 in
      Pack.iter s (fun _ _ _ -> incr n);
      (records + !n, bytes + String.length s))
    (0, 0) (Pack.read_all dir)

(* ------------------------------------------------------------------ *)

module Session = struct
  (* The internal memo key: cell coordinates plus the per-request
     budget.  Budgeted queries memoize under their own cells; the
     common unbudgeted case is [q_fuel = None; q_deadline = None]. *)
  type key = {
    bench : string;
    latency : int;
    kind : Pipeline.kind;
    q_fuel : int option;
    q_deadline : float option;
  }

  (* every on-disk entry is one of these, Marshal'd; constructor names
     are irrelevant to Marshal (tags are positional) but their order is
     part of the on-disk format *)
  type disk_value =
    | D_cycles of int
    | D_summary of { code_size : int; counts : int * int * int }
    | D_dynamics of Pipeline.dynamics
    | D_decisions of Spd_core.Heuristic.decision list
    | D_verdicts of Spd_validate.Validate.report list

  (* The session's view of the cache directory: the records of the
     packs it loaded, minus the ones it evicted, plus the ones it wrote.
     Loaded on first access; [flush] writes the new records as a pack of
     their own, [close] compacts the view into one pack. *)
  type disk = {
    dir : string;
    mu : Mutex.t;  (* guards the mutable state below *)
    mutable loaded : bool;
    records : (string, string) Hashtbl.t;  (* address -> entry *)
    fresh : (string, string) Hashtbl.t;  (* written, in no pack yet *)
    mutable packs : string list;  (* the packs [records] stands for *)
    mutable changed : bool;  (* written or evicted since it was loaded *)
    writing : Mutex.t;  (* one pack write at a time *)
  }

  type t = {
    jobs : int;
    retries : int;  (* attempts per cell before recording a failure *)
    faults : Faults.t;
    config : Pipeline.Config.t;
        (* the default configuration under the session's budgets (its
           [deadline] is the per-cell wall-clock budget) and checker
           fault *)
    disk : disk option;  (* None = on-disk cache disabled *)
    pool : Pool.t;
    lowered_memo : (string, Spd_ir.Prog.t) Memo.t;
    front_memo : (string, Spd_ir.Prog.t) Memo.t;
    prep_memo : (key, Pipeline.prepared) Memo.t;
    reference_memo : (key, Pipeline.reference) Memo.t;
    run_memo :
      ( Digest.t * int option * float option,
        Pipeline.run_identity * Pipeline.run )
      Memo.t;
    cycles_memo : (key * Spd_machine.Descr.width, int outcome) Memo.t;
    summary_memo : (key, (int * (int * int * int)) outcome) Memo.t;
    dynamics_memo : (key, Pipeline.dynamics outcome) Memo.t;
    decisions_memo : (key, Spd_core.Heuristic.decision list outcome) Memo.t;
    verdicts_memo : (key, Spd_validate.Validate.report list outcome) Memo.t;
    obligation_memo :
      ( Digest.t,
        Spd_validate.Validate.obligation * Spd_validate.Validate.report )
      Memo.t;
    stats_mu : Mutex.t;
    mutable lowerings : int;
    mutable preparations : int;
    mutable simulations : int;
    mutable explorations : int;
    mutable disk_hits : int;
    mutable disk_misses : int;
    mutable disk_evictions : int;
    mutable cell_retries : int;
    mutable cell_failures : int;
    mutable failures : failure list;
  }

  let try_prepare_dir dir =
    try
      if Sys.file_exists dir then if Sys.is_directory dir then Some dir else None
      else begin Unix.mkdir dir 0o755; Some dir end
    with Unix.Unix_error _ | Sys_error _ -> None

  let create ?jobs ?(disk_cache = false) ?(cache_dir = "_spd_cache")
      ?(retries = 1) ?deadline ?fuel ?(faults = Faults.none) () =
    let jobs =
      match jobs with
      | Some j -> max 1 j
      | None -> Domain.recommended_domain_count ()
    in
    (* an armed fuel fault is the tightest budget *)
    let fuel = match Faults.fuel faults with Some _ as f -> f | None -> fuel in
    {
      jobs;
      retries = max 1 retries;
      faults;
      config =
        {
          Pipeline.Config.default with
          fuel;
          deadline;
          checker_fault = Some (fun () -> Faults.checker_raise faults);
        };
      disk =
        Option.map
          (fun dir ->
            { dir; mu = Mutex.create (); loaded = false;
              records = Hashtbl.create 512; fresh = Hashtbl.create 16;
              packs = []; changed = false; writing = Mutex.create () })
          (if disk_cache then try_prepare_dir cache_dir else None);
      pool = Pool.create ~size:jobs;
      lowered_memo = Memo.create 16;
      front_memo = Memo.create 16;
      prep_memo = Memo.create 64;
      reference_memo = Memo.create 16;
      run_memo = Memo.create 32;
      cycles_memo = Memo.create 256;
      summary_memo = Memo.create 64;
      dynamics_memo = Memo.create 64;
      decisions_memo = Memo.create 64;
      verdicts_memo = Memo.create 64;
      obligation_memo = Memo.create 64;
      stats_mu = Mutex.create ();
      lowerings = 0;
      preparations = 0;
      simulations = 0;
      explorations = 0;
      disk_hits = 0;
      disk_misses = 0;
      disk_evictions = 0;
      cell_retries = 0;
      cell_failures = 0;
      failures = [];
    }

  (* [records] as a new pack, or [None] when the write failed *)
  let write_pack d records =
    Trace.with_span ~name:"cache.flush" (fun () ->
        match Pack.write d.dir records with
        | name -> Some name
        | exception (Sys_error msg | Failure msg) ->
            Log.warn "engine.cache.flush"
              [ ("error", Spd_telemetry.Json.String msg) ];
            None)

  (* Write the records written since the last flush as one new pack, so
     a request costs one small file whatever the cache holds.  A failed
     write is left to [close], which writes every record. *)
  let flush t =
    match t.disk with
    | Some d when Mutex.protect d.mu (fun () -> Hashtbl.length d.fresh > 0) ->
        Mutex.protect d.writing @@ fun () ->
        let fresh =
          Mutex.protect d.mu (fun () ->
              let l = Hashtbl.fold (fun a e acc -> (a, e) :: acc) d.fresh [] in
              Hashtbl.reset d.fresh;
              l)
        in
        if fresh <> [] then
          write_pack d fresh
          |> Option.iter (fun name ->
                 Mutex.protect d.mu (fun () -> d.packs <- name :: d.packs))
    | _ -> ()

  (* Write the session's whole view as one pack, then remove the packs
     it stands for: a concurrent writer's packs stay, and the next
     session that loads both and writes merges them.  A session that
     neither wrote nor evicted a record writes nothing. *)
  let compact t =
    match t.disk with
    | None -> ()
    | Some d ->
        Mutex.protect d.writing @@ fun () ->
        let snapshot =
          Mutex.protect d.mu (fun () ->
              if not d.changed then None
              else begin
                d.changed <- false;
                Hashtbl.reset d.fresh;
                Some
                  ( Hashtbl.fold (fun a e acc -> (a, e) :: acc) d.records [],
                    d.packs )
              end)
        in
        Option.iter
          (fun (records, packs) ->
            match write_pack d records with
            | Some name ->
                Mutex.protect d.mu (fun () -> d.packs <- [ name ]);
                List.iter
                  (fun p ->
                    if p <> name then
                      try Sys.remove (Filename.concat d.dir p)
                      with Sys_error _ -> ())
                  packs
            | None -> Mutex.protect d.mu (fun () -> d.changed <- true))
          snapshot

  let close t =
    Pool.close t.pool;
    compact t

  let with_session t f =
    Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

  let jobs t = t.jobs

  let bump t f =
    Mutex.lock t.stats_mu;
    f t;
    Mutex.unlock t.stats_mu

  let stats t : Stats.t =
    Mutex.lock t.stats_mu;
    let s =
      {
        Stats.jobs = t.jobs;
        lowerings = t.lowerings;
        preparations = t.preparations;
        simulations = t.simulations;
        explorations = t.explorations;
        disk_hits = t.disk_hits;
        disk_misses = t.disk_misses;
        disk_evictions = t.disk_evictions;
        cell_retries = t.cell_retries;
        cell_failures = t.cell_failures;
      }
    in
    Mutex.unlock t.stats_mu;
    s

  let failures t =
    Mutex.lock t.stats_mu;
    let fs = t.failures in
    Mutex.unlock t.stats_mu;
    List.sort (fun a b -> compare a.key b.key) fs

  (* ---------------------------------------------------------------- *)
  (* The contained-failure cell runner: every grid-cell computation goes
     through [protected], which consults the armed faults, retries up to
     [t.retries] attempts (stopping early once the per-cell wall-clock
     deadline has passed), and converts the final exception into a
     recorded [Failed] outcome instead of letting it tear down the
     batch.  [Sys.Break] (user interrupt) is never contained. *)

  let protected t ~deadline ~key (f : unit -> 'a) : 'a outcome =
    let t0 = Clock.now () in
    Log.debug "engine.cell.start" [ ("key", Spd_telemetry.Json.String key) ];
    (* one trace span per attempt, so retries show up individually *)
    let f () = Spd_telemetry.Trace.with_span ~name:("cell:" ^ key) f in
    let rec attempt n =
      match
        Faults.cell_raise t.faults ~key;
        f ()
      with
      | v ->
          Log.debug "engine.cell.finish"
            [
              ("key", Spd_telemetry.Json.String key);
              ("attempts", Spd_telemetry.Json.Int n);
              ("seconds", Spd_telemetry.Json.Float (Clock.now () -. t0));
            ];
          Ok v
      | exception Sys.Break -> raise Sys.Break
      | exception e ->
          let backtrace = Printexc.get_raw_backtrace () in
          let elapsed = Clock.now () -. t0 in
          let out_of_time =
            match deadline with Some d -> elapsed >= d | None -> false
          in
          if n < t.retries && not out_of_time then begin
            bump t (fun t -> t.cell_retries <- t.cell_retries + 1);
            mark m_cell_retries;
            Log.info "engine.cell.retry"
              [
                ("key", Spd_telemetry.Json.String key);
                ("attempt", Spd_telemetry.Json.Int n);
                ("error", Spd_telemetry.Json.String (Printexc.to_string e));
              ];
            attempt (n + 1)
          end
          else begin
            let f = { key; exn = e; backtrace; attempts = n; elapsed } in
            bump t (fun t ->
                t.cell_failures <- t.cell_failures + 1;
                t.failures <- f :: t.failures);
            mark m_cell_failures;
            Log.warn "engine.cell.fail"
              [
                ("key", Spd_telemetry.Json.String key);
                ("attempts", Spd_telemetry.Json.Int n);
                ("seconds", Spd_telemetry.Json.Float elapsed);
                ("error", Spd_telemetry.Json.String (Printexc.to_string e));
              ];
            Failed f
          end
    in
    attempt 1

  (* ---------------------------------------------------------------- *)
  (* On-disk cache.  A cell's address is the MD5 of a canonical payload
     string; its record lives in the session's view of the packs
     ([disk]), which the first access loads and [flush] and [close]
     write back.

     The atomic rename cannot protect a pack *after* it landed —
     truncation, bit rot, a format change.  Every record therefore
     carries a one-line header [spd-cache <version> <md5-of-body>
     <body-length>] ahead of its Marshal'd body; a read that finds a
     version mismatch, a short body, a checksum mismatch or an
     undecodable payload logs the reason, evicts the record and lets the
     caller recompute — [close] drops it, so the cache heals itself
     instead of crashing. *)

  let encode_entry (v : disk_value) =
    let body = Marshal.to_string v [] in
    Printf.sprintf "spd-cache %s %s %d\n%s" cache_version
      (Digest.to_hex (Digest.string body))
      (String.length body) body

  let decode_entry s : (disk_value, string) result =
    match String.index_opt s '\n' with
    | None -> Error "truncated header"
    | Some i -> (
        let header = String.sub s 0 i in
        let body = String.sub s (i + 1) (String.length s - i - 1) in
        match String.split_on_char ' ' header with
        | [ "spd-cache"; version; digest; length ] ->
            if version <> cache_version then
              Error (Printf.sprintf "version %s, want %s" version cache_version)
            else if int_of_string_opt length <> Some (String.length body)
            then Error "body length mismatch (truncated entry)"
            else if Digest.to_hex (Digest.string body) <> digest then
              Error "checksum mismatch (corrupt entry)"
            else (
              match (Marshal.from_string body 0 : disk_value) with
              | v -> Ok v
              | exception _ -> Error "undecodable payload")
        | _ -> Error "malformed header")

  (* deterministic corruption for the [cache-corrupt] fault: flip a bit
     in the middle of the entry so the checksum (or header) breaks *)
  let corrupt_bytes s =
    if String.length s = 0 then s
    else begin
      let b = Bytes.of_string s in
      let i = Bytes.length b / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
      Bytes.to_string b
    end

  (* [f] under the disk's lock, after loading every pack on first use.
     Records of another cache version are left out of the view, so the
     session's [close] drops them. *)
  let with_disk d f =
    Mutex.protect d.mu @@ fun () ->
    if not d.loaded then begin
      d.loaded <- true;
      Trace.with_span ~name:"cache.load" (fun () ->
          List.iter
            (fun (name, s) ->
              Pack.iter s (fun address version entry ->
                  if version = cache_version then
                    Hashtbl.replace d.records address entry);
              d.packs <- name :: d.packs)
            (Pack.read_all d.dir))
    end;
    f d

  let address payload = Digest.to_hex (Digest.string payload)

  let evict t d address stored reason =
    Log.warn "engine.cache.evict"
      [
        ("entry", Spd_telemetry.Json.String address);
        ("reason", Spd_telemetry.Json.String reason);
      ];
    with_disk d (fun d ->
        (* unless a concurrent write has replaced it already *)
        match Hashtbl.find_opt d.records address with
        | Some e when e == stored ->
            Hashtbl.remove d.records address;
            Hashtbl.remove d.fresh address;
            d.changed <- true
        | _ -> ());
    bump t (fun t ->
        t.disk_evictions <- t.disk_evictions + 1;
        t.disk_misses <- t.disk_misses + 1);
    mark m_cache_evictions;
    mark m_cache_misses

  let disk_read t payload : disk_value option =
    match t.disk with
    | None -> None
    | Some d -> (
        let address = address payload in
        match with_disk d (fun d -> Hashtbl.find_opt d.records address) with
        | None ->
            bump t (fun t -> t.disk_misses <- t.disk_misses + 1);
            mark m_cache_misses;
            None
        | Some stored -> (
            let entry =
              if Faults.corrupt_cache_read t.faults then corrupt_bytes stored
              else stored
            in
            match decode_entry entry with
            | Ok v ->
                bump t (fun t -> t.disk_hits <- t.disk_hits + 1);
                mark m_cache_hits;
                Some v
            | Error reason -> evict t d address stored reason; None))

  let disk_write t payload (v : disk_value) =
    match t.disk with
    | None -> ()
    | Some d ->
        let address = address payload and entry = encode_entry v in
        with_disk d (fun d ->
            Hashtbl.replace d.records address entry;
            Hashtbl.replace d.fresh address entry;
            d.changed <- true)

  (* The full content address of a grid cell: cache format version,
     digest of the workload source, pipeline kind and configuration
     fingerprint (which includes the memory latency).  Budgets are
     deliberately excluded, like they are from the fingerprint: a
     budget can only turn a result into a failure, never change a
     successfully computed value, so budgeted successes share their
     disk entry with the unbudgeted cell. *)
  let cell_payload t (k : key) =
    let w = W.Registry.by_name k.bench in
    String.concat "|"
      [
        "spd"; cache_version;
        Digest.to_hex (Digest.string w.source);
        Pipeline.name k.kind;
        Pipeline.Config.fingerprint
          { t.config with mem_latency = k.latency };
      ]

  (* The human-readable cell key: what [cell-raise] faults match against
     and what the failure appendix prints. *)
  let cell_key (k : key) =
    Printf.sprintf "%s/%d/%s" k.bench k.latency (Pipeline.name k.kind)

  (* appended at the END of the full metric key, so [cell-raise]
     prefixes over unbudgeted keys keep matching exactly as before *)
  let budget_tag (k : key) =
    (match k.q_fuel with
    | None -> ""
    | Some n -> Printf.sprintf "+fuel=%d" n)
    ^
    match k.q_deadline with
    | None -> ""
    | Some d -> Printf.sprintf "+deadline=%g" d

  let opt_min_int a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (min a b)

  let opt_min_float a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (Float.min a b)

  let eff_deadline t (k : key) =
    opt_min_float t.config.Pipeline.Config.deadline k.q_deadline

  (* the pipeline configuration of one cell: per-cell memory latency,
     session budgets tightened by the request's quotas *)
  let config_for t (k : key) =
    {
      t.config with
      Pipeline.Config.mem_latency = k.latency;
      fuel = opt_min_int t.config.Pipeline.Config.fuel k.q_fuel;
      deadline = eff_deadline t k;
    }

  (* ---------------------------------------------------------------- *)

  let lowered t bench =
    Memo.get t.lowered_memo bench (fun () ->
        bump t (fun t -> t.lowerings <- t.lowerings + 1);
        mark m_lowerings;
        Pipeline.lower (W.Registry.by_name bench).source)

  (* the validated NAIVE program of a benchmark: every preparation and
     the reference run start from it *)
  let front t bench =
    Memo.get t.front_memo bench (fun () ->
        Pipeline.front ~config:t.config (lowered t bench))

  (* the [run_memo] key of a run identity under [config]'s budgets *)
  let run_key identity (config : Pipeline.Config.t) =
    ( Digest.string (Marshal.to_string identity [ Marshal.No_sharing ]),
      config.fuel,
      config.deadline )

  (* NAIVE's instrumented run under a budget: it depends on neither the
     memory latency nor the pipeline, so one serves the bench.  It is
     also the run of a SPEC program that applies nothing and keeps
     NAIVE's code, so it seeds [run_memo] under NAIVE's identity. *)
  let reference_cell t (k : key) =
    let k = { k with latency = 0; kind = Pipeline.Naive } in
    Memo.get t.reference_memo k (fun () ->
        let config = config_for t k and naive = front t k.bench in
        let r = Pipeline.reference ~config naive in
        let identity = Pipeline.run_identity naive [] in
        ignore
          (Memo.get t.run_memo (run_key identity config) (fun () ->
               (identity, r.Pipeline.run)));
        r)

  (* SPEC's checking run, made once per run identity and budget: SPEC
     programs whose SpD choices do not depend on the memory latency, a
     validated preparation beside its plain one, and a SPEC program that
     applies nothing beside NAIVE execute the same code under the same
     watches.  A digest keys the memo; a hit confirms the identities are
     structurally equal. *)
  let shared_run t (p : Pipeline.prepared) =
    let identity = Pipeline.run_identity p.prog p.applications in
    let ((digest, _, _) as key) = run_key identity p.config in
    let stored, run =
      Memo.get t.run_memo key (fun () ->
          let run = Pipeline.run p in
          bump t (fun t -> t.simulations <- t.simulations + 1);
          mark m_simulations;
          (identity, run))
    in
    if stored != identity && compare stored identity <> 0 then
      failwith
        ("Engine: two run identities share the digest " ^ Digest.to_hex digest);
    run

  (* The session's per-application validation: one exploration per
     distinct obligation, whichever cell and latency it comes from.  The
     digest of what the checker reads keys the memo; a hit confirms the
     obligations are structurally equal, and its row keeps the
     application's own function, tree, kind and arc. *)
  let validator t ~func ~before (app : Spd_core.Heuristic.application) after
      =
    let module V = Spd_validate.Validate in
    let obligation = V.obligation ~before ~after () in
    let key = V.key obligation in
    let stored, report =
      Memo.get t.obligation_memo key (fun () ->
          let report = Pipeline.explore ~func ~before app after in
          bump t (fun t -> t.explorations <- t.explorations + 1);
          mark m_explorations;
          (obligation, report))
    in
    if stored != obligation && compare stored obligation <> 0 then
      failwith
        ("Engine: two validation obligations share the digest "
        ^ Digest.to_hex key);
    { report with func; tree_id = app.tree_id; kind = app.kind; arc = app.arc }

  let prepare t (k : key) ~config =
    let lowered = lowered t k.bench in
    bump t (fun t -> t.preparations <- t.preparations + 1);
    mark m_preparations;
    Pipeline.prepare ~config ~front:(front t k.bench)
      ~reference:(fun () -> reference_cell t k)
      ~run:(shared_run t) ~validator:(validator t) k.kind lowered

  let prepared_cell t (k : key) =
    Memo.get t.prep_memo k (fun () -> prepare t k ~config:(config_for t k))

  let prepared t ~bench ~latency kind =
    prepared_cell t { bench; latency; kind; q_fuel = None; q_deadline = None }

  (* The instrumented run whose histogram prices a cell at every width.
     NAIVE, STATIC and PERFECT execute NAIVE's code, arcs aside (their
     preparations check it), so they share the reference run; SPEC's is
     the run its checked preparation shares or made. *)
  let run_cell t (k : key) =
    match k.kind with
    | Pipeline.Spec -> Pipeline.run (prepared_cell t k)
    | Pipeline.Naive | Pipeline.Static | Pipeline.Perfect ->
        (reference_cell t k).Pipeline.run

  (* The one persisted-cell runner.  A cell is computed once per
     session and budget ([memo] at [mkey]), inside the contained-failure
     runner under the failure key [bench/latency/KIND/entry[/width]+budget],
     and read from or written to the on-disk entry addressed by the cell
     payload plus [|entry[:width]]; [store]/[load] wrap the value in its
     disk constructor.  Both keys are built on a miss only, so a memo hit
     — every read of a warm report — allocates no strings. *)
  let persisted t memo mkey (k : key) ?width ~entry ~store ~load compute =
    Memo.get memo mkey (fun () ->
        let at sep =
          match width with None -> entry | Some w -> entry ^ sep ^ width_tag w
        in
        protected t ~deadline:(eff_deadline t k)
          ~key:(cell_key k ^ "/" ^ at "/" ^ budget_tag k)
          (fun () ->
            let payload = cell_payload t k ^ "|" ^ at ":" in
            match Option.bind (disk_read t payload) load with
            | Some v -> v
            | None ->
                let v = compute () in
                disk_write t payload (store v);
                v))

  let map_outcome f = function Ok v -> Ok (f v) | Failed f -> Failed f

  let cycles_cell t (k : key) ~width =
    persisted t t.cycles_memo (k, width) k ~width ~entry:"cycles"
      ~store:(fun n -> D_cycles n)
      ~load:(function D_cycles n -> Some n | _ -> None)
      (fun () ->
        let p = prepared_cell t k in
        Pipeline.price p (run_cell t k) ~width)

  (* code size and Table 6-3 counts of a cell, from one preparation *)
  let summary_cell t (k : key) =
    persisted t t.summary_memo k k ~entry:"summary"
      ~store:(fun (code_size, counts) -> D_summary { code_size; counts })
      ~load:(function
        | D_summary s -> Some (s.code_size, s.counts) | _ -> None)
      (fun () ->
        let p = prepared_cell t k in
        ( Pipeline.code_size p,
          Spd_core.Heuristic.count_by_kind p.applications ))

  (* run-time dynamics of the SPEC pipeline's SpD applications *)
  let dynamics_cell t (k : key) =
    persisted t t.dynamics_memo k k ~entry:"dynamics"
      ~store:(fun d -> D_dynamics d)
      ~load:(function D_dynamics d -> Some d | _ -> None)
      (fun () -> (run_cell t k).Pipeline.dynamics)

  (* the heuristic's decision ledger of a cell; a pure function of the
     preparation, so no simulation is charged *)
  let decisions_cell t (k : key) =
    persisted t t.decisions_memo k k ~entry:"decisions"
      ~store:(fun ds -> D_decisions ds)
      ~load:(function D_decisions ds -> Some ds | _ -> None)
      (fun () -> (prepared_cell t k).Pipeline.decisions)

  (* the translation-validation ledger of a cell's SPEC applications;
     prepared under its own [validate = true] configuration.  Validation
     is excluded from the config fingerprint (it never changes the
     prepared program), so the ledger is addressed by the shared cell
     payload plus its own suffix; the preparation itself is charged
     separately from [prepared_cell]'s, because a raising verdict must
     fail only this cell. *)
  let verdicts_cell t (k : key) =
    persisted t t.verdicts_memo k k ~entry:"verdicts"
      ~store:(fun vs -> D_verdicts vs)
      ~load:(function D_verdicts vs -> Some vs | _ -> None)
      (fun () ->
        (prepare t k
           ~config:{ (config_for t k) with Pipeline.Config.validate = true })
          .Pipeline.verdicts)

  let pair_outcome a b =
    match (a, b) with
    | Ok a, Ok b -> Ok (a, b)
    | Failed f, _ | _, Failed f -> Failed f

  (* ---------------------------------------------------------------- *)
  (* The one request path.  Everything above is addressed by [Query.t]:
     derived artefacts (speedups, code growth) fan out to their operand
     cells under the same budget, and all sharing — concurrent
     deduplication included — falls out of the per-cell promises. *)

  let submit (type a) t (q : a Query.t) : a outcome =
    mark m_queries;
    let k kind =
      {
        bench = q.Query.bench;
        latency = q.Query.latency;
        kind;
        q_fuel = q.Query.fuel;
        q_deadline = q.Query.deadline;
      }
    in
    let speedup (base, this) = Pipeline.speedup ~base ~this in
    match q.Query.artefact with
    | Query.Cycles { kind; width } -> cycles_cell t (k kind) ~width
    | Query.Code_size kind -> map_outcome fst (summary_cell t (k kind))
    | Query.Spd_counts -> map_outcome snd (summary_cell t (k Pipeline.Spec))
    | Query.Spd_dynamics -> dynamics_cell t (k Pipeline.Spec)
    | Query.Spd_decisions -> decisions_cell t (k Pipeline.Spec)
    | Query.Spd_verdicts -> verdicts_cell t (k Pipeline.Spec)
    | Query.Speedup_over_naive { kind; width } ->
        map_outcome speedup
          (pair_outcome
             (cycles_cell t (k Pipeline.Naive) ~width)
             (cycles_cell t (k kind) ~width))
    | Query.Spec_over_static { width } ->
        map_outcome speedup
          (pair_outcome
             (cycles_cell t (k Pipeline.Static) ~width)
             (cycles_cell t (k Pipeline.Spec) ~width))
    | Query.Code_growth ->
        map_outcome
          (fun ((base, _), (spec, _)) ->
            (float_of_int spec /. float_of_int base) -. 1.0)
          (pair_outcome
             (summary_cell t (k Pipeline.Static))
             (summary_cell t (k Pipeline.Spec)))

  (* ---------------------------------------------------------------- *)

  let parallel_map t f xs =
    if t.jobs <= 1 then List.map f xs else Pool.map t.pool f xs

  let parallel_iter t f xs = ignore (parallel_map t (fun x -> f x; ()) xs)
end
