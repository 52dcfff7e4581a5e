(** Span-based tracing with Chrome trace-event output.

    [with_span ~name f] measures [f] and, when tracing is enabled,
    records a complete ("ph":"X") trace event carrying the span's name,
    begin timestamp, duration, the process id and the id of the domain
    that ran it.  The resulting file ([write]) loads directly into
    Perfetto / chrome://tracing, where per-domain tracks make a
    domain-parallel grid run visually inspectable.

    Tracing is process-global and off by default; a disabled
    [with_span] costs one atomic load.  Event recording is safe from
    any domain. *)

type event = {
  name : string;
  ts : float;  (** begin, microseconds since [start] *)
  dur : float;  (** duration, microseconds *)
  tid : int;  (** id of the domain that ran the span *)
  args : (string * Json.t) list;
}

let enabled_flag = Atomic.make false
let mu = Mutex.create ()
let events_rev : event list ref = ref []
let n_events = ref 0
let epoch = ref 0.0

(* An always-on daemon traces for its whole lifetime, so the event
   store is bounded: past [capacity], new events are counted in
   [n_dropped] instead of growing memory without bound. *)
let capacity = Atomic.make 1_000_000
let n_dropped = Atomic.make 0

let set_capacity n = Atomic.set capacity (max 0 n)
let dropped () = Atomic.get n_dropped

(* the monotonic clock: span durations and deadlines must not jump
   when the system wall clock is adjusted *)
let now_us () = Clock.now () *. 1e6

let enabled () = Atomic.get enabled_flag

let start () =
  Mutex.lock mu;
  events_rev := [];
  n_events := 0;
  Atomic.set n_dropped 0;
  epoch := now_us ();
  Mutex.unlock mu;
  Atomic.set enabled_flag true

let stop () = Atomic.set enabled_flag false

let record e =
  Mutex.lock mu;
  if !n_events < Atomic.get capacity then begin
    events_rev := e :: !events_rev;
    incr n_events
  end
  else Atomic.incr n_dropped;
  Mutex.unlock mu

(* the ambient request id rides on every span recorded while a request
   is being served (see Context), unless the caller set its own *)
let with_rid args =
  if List.mem_assoc "rid" args then args
  else
    match Context.get () with
    | Some rid -> ("rid", Json.String rid) :: args
    | None -> args

let with_span ?(args = []) ~name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t0 = now_us () in
    let finish () =
      record
        {
          name;
          ts = t0 -. !epoch;
          dur = now_us () -. t0;
          tid = (Domain.self () :> int);
          args = with_rid args;
        }
    in
    match f () with
    | v -> finish (); v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finish ();
        Printexc.raise_with_backtrace e bt
  end

(** Mark an instantaneous event (duration 0). *)
let instant ?(args = []) name =
  if Atomic.get enabled_flag then
    record
      {
        name;
        ts = now_us () -. !epoch;
        dur = 0.0;
        tid = (Domain.self () :> int);
        args = with_rid args;
      }

(** All events recorded since [start], in begin-timestamp order. *)
let events () =
  Mutex.lock mu;
  let es = !events_rev in
  Mutex.unlock mu;
  List.sort (fun a b -> compare a.ts b.ts) (List.rev es)

let event_json pid (e : event) =
  Json.Obj
    ([
       ("name", Json.String e.name);
       ("cat", Json.String "spd");
       ("ph", Json.String "X");
       ("ts", Json.Float e.ts);
       ("dur", Json.Float e.dur);
       ("pid", Json.Int pid);
       ("tid", Json.Int e.tid);
     ]
    @ if e.args = [] then [] else [ ("args", Json.Obj e.args) ])

(** The Chrome trace-event document for everything recorded so far. *)
let to_json () =
  let pid = Unix.getpid () in
  Json.Obj
    ([
       ("traceEvents", Json.List (List.map (event_json pid) (events ())));
       ("displayTimeUnit", Json.String "ms");
     ]
    @
    match Atomic.get n_dropped with
    | 0 -> []
    | n ->
        [ ("otherData", Json.Obj [ ("droppedEvents", Json.Int n) ]) ])

(** Write the trace to [path] (Chrome trace-event JSON). *)
let write path =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Json.to_string (to_json ()));
      Out_channel.output_char oc '\n')

(** [capture path f] runs [f] with tracing enabled when [path] is
    [Some file], writing the trace to [file] even when [f] raises —
    the crash-safe form of [start]/[stop]/[write] used by the CLI's
    [--trace] flag. *)
let capture path f =
  match path with
  | None -> f ()
  | Some file ->
      start ();
      Fun.protect
        ~finally:(fun () ->
          stop ();
          write file)
        f
