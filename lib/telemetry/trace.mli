(** Span-based tracing with Chrome trace-event output.

    Process-global, off by default; a disabled {!with_span} costs one
    atomic load.  Recording is safe from any domain — each event
    carries the recording domain's id as its [tid], so Perfetto renders
    one track per domain. *)

type event = {
  name : string;
  ts : float;  (** begin, microseconds since [start] *)
  dur : float;  (** duration, microseconds *)
  tid : int;  (** id of the domain that ran the span *)
  args : (string * Json.t) list;
}

val enabled : unit -> bool

(** Bound the in-memory event store (default 1,000,000) — an always-on
    daemon traces for its whole lifetime, so past the cap new events
    are counted in {!dropped} instead of growing memory.  The trace
    document reports a nonzero drop count under
    [otherData.droppedEvents]. *)
val set_capacity : int -> unit

(** Events lost to the capacity cap since {!start}. *)
val dropped : unit -> int

(** Clear recorded events (and the drop counter), reset the clock
    epoch and enable tracing.  Timestamps use the monotonic
    {!Clock}. *)
val start : unit -> unit

val stop : unit -> unit

(** [with_span ~name f] runs [f]; when tracing is enabled, records a
    complete trace event for it (also when [f] raises).  When the
    calling domain has an ambient {!Context} request id and [args]
    does not already carry a ["rid"], the id is attached — this is
    what correlates engine cell/stage spans with the server-side
    request span that caused them. *)
val with_span : ?args:(string * Json.t) list -> name:string -> (unit -> 'a) -> 'a

(** Mark an instantaneous event (duration 0). *)
val instant : ?args:(string * Json.t) list -> string -> unit

(** All events recorded since [start], in begin-timestamp order. *)
val events : unit -> event list

(** The Chrome trace-event document for everything recorded so far. *)
val to_json : unit -> Json.t

(** Write the trace to [path] (Chrome trace-event JSON, loadable in
    Perfetto / chrome://tracing). *)
val write : string -> unit

(** [capture path f] runs [f] with tracing enabled when [path] is
    [Some file], writing the trace to [file] even when [f] raises —
    the crash-safe form of [start]/[stop]/[write] used by the CLI's
    [--trace] flag. *)
val capture : string option -> (unit -> 'a) -> 'a
