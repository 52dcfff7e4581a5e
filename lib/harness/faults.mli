(** Deterministic fault injection for the experiment engine.

    A {!t} is a set of armed faults with private hit counters; the
    engine consults it at well-defined points (cell computation start,
    on-disk cache reads, the per-application checker).  Faults fire
    deterministically, so tests and the CLI reproduce failures exactly.

    The spec grammar accepted by {!parse} is a comma-separated list of

    {v
    cache-corrupt:<n>         corrupt the n-th on-disk cache read (1-based)
    cell-raise:<key>[@<n>]    raise from matching cells ([n] first hits
                              only; default every hit)
    worker-raise:<n>          daemon: raise from the first n accepted
                              connections, exercising worker supervision
    checker-raise:<n>         raise from the first n per-application
                              transform-checker invocations, exercising
                              per-cell containment of a raising checker
    v}

    [<key>] selects cells by prefix of the engine's cell key,
    [bench/latency/KIND/...] — e.g. [adi/2/SPEC] hits the preparation,
    the summary and every cycle measurement of that grid cell.
    [worker-raise] is a hook the serve daemon's workers consult once
    per accepted connection; [checker-raise] is consulted by the
    pipeline's composed per-application checker. *)

(** Raised by {!cell_raise} / {!worker_raise} when an armed fault
    fires. *)
exception Injected of string

type t

(** No faults armed; all hooks are no-ops. *)
val none : t

val is_none : t -> bool

(** Parse a fault spec (the [--inject-fault] argument).  Counters start
    fresh, so a parsed spec is good for exactly one engine session. *)
val parse : string -> (t, string) result

val pp : Format.formatter -> t -> unit

(** {1 Engine hooks} *)

(** [corrupt_cache_read t] counts one on-disk cache read and returns
    whether the armed [cache-corrupt] fault selects it. *)
val corrupt_cache_read : t -> bool

(** [cell_raise t ~key] raises {!Injected} iff an armed [cell-raise]
    fault matches [key] (by prefix) and still has hits left. *)
val cell_raise : t -> key:string -> unit

(** {1 Daemon hooks} *)

(** [worker_raise t] raises {!Injected} while the armed [worker-raise]
    fault still has hits left.  The serve daemon calls it once per
    accepted connection; its worker supervisor must contain the raise
    and respawn the serving loop. *)
val worker_raise : t -> unit

(** [checker_raise t] raises {!Injected} while the armed [checker-raise]
    fault still has hits left.  The engine wires it into
    {!Pipeline.Config.checker_fault}, so it fires from inside the
    per-application transform checker of a SPEC preparation — the
    documented containment contract ({!Spd_core.Heuristic.run}) is that
    such a raise propagates out of the preparation and the engine's
    protected cell runner records it as that one cell's [Failed]
    outcome, leaving sibling cells untouched. *)
val checker_raise : t -> unit
