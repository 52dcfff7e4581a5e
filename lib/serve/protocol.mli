(** Wire protocol of the [spd serve] daemon.

    Requests and responses are JSON-RPC 2.0 envelopes carried over a
    byte stream (Unix-domain socket by default, TCP optionally) with
    LSP-style framing: each message is preceded by a
    [Content-Length: N] header line and a blank line, both
    CRLF-terminated —

    {v
Content-Length: 68\r\n
\r\n
{"jsonrpc":"2.0","id":1,"method":"ping","params":{}}
    v}

    Unknown header lines are ignored, so the framing is forward
    compatible — but the header section as a whole is bounded (at most
    {!max_headers} lines and {!max_header_bytes} bytes), so a header
    flood is a framing error, not unbounded memory.  Response
    [result]s are documents in the repository's existing schemas
    ([spd-report/2], [spd-explain/1], [spd-micro/1], [spd-metrics/1])
    or the daemon's own [spd-serve/1]. *)

(** Schema identifier of the daemon's own response documents:
    ["spd-serve/1"]. *)
val schema : string

(** {1 Addresses} *)

type addr =
  | Unix_path of string  (** Unix-domain socket at this path *)
  | Tcp of string * int  (** host, port *)

(** [addr_of_string s] parses ["tcp:HOST:PORT"] into [Tcp] and any
    other non-empty string into [Unix_path]. *)
val addr_of_string : string -> (addr, string) result

val pp_addr : Format.formatter -> addr -> unit

(** {1 Framing} *)

(** Refuse frames larger than this (64 MiB) rather than attempting the
    allocation. *)
val max_frame : int

(** Cap on the total byte length of a frame's header section. *)
val max_header_bytes : int

(** Cap on the number of header lines in one frame. *)
val max_headers : int

(** Raised out of a {!reader}'s [fill] when the peer stalled past its
    deadline.  The framing layer never catches it: it propagates to
    whoever owns the connection. *)
exception Timeout

(** Write one framed JSON message and flush. *)
val write_frame : out_channel -> Spd_telemetry.Json.t -> unit

(** A buffered byte source for the framing layer.  Deadline
    enforcement lives in the [fill] function a caller supplies. *)
type reader

(** [reader fill] wraps a [Unix.read]-style function ([fill buf off
    len] returns the number of bytes read, 0 at end of stream). *)
val reader : (bytes -> int -> int -> int) -> reader

(** A reader over an [in_channel].  The reader buffers internally, so
    it must own the channel: create one per connection, not per
    frame. *)
val channel_reader : in_channel -> reader

(** Read one framed JSON message.  [Ok None] on a clean end-of-stream
    (the peer closed between messages); [Error] on a truncated frame,
    an oversized or missing [Content-Length], a header section past
    the caps, or malformed JSON.  {!Timeout} and [Unix.Unix_error]
    from [fill] propagate. *)
val read_frame_r :
  reader -> (Spd_telemetry.Json.t option, string) result

(** {1 JSON-RPC envelopes} *)

(** Standard JSON-RPC 2.0 error codes used by the daemon. *)
val parse_error : int         (* -32700 *)
val invalid_request : int     (* -32600 *)
val method_not_found : int    (* -32601 *)
val invalid_params : int      (* -32602 *)
val server_error : int        (* -32000 *)

(** Load-shedding codes (implementation-defined range).  [server_busy]
    responses carry [data.retry_after_ms]; both are retried by
    {!call_with_retries}. *)
val server_busy : int         (* -32001 *)
val server_shutting_down : int  (* -32002 *)

val request :
  id:int -> meth:string -> params:Spd_telemetry.Json.t -> Spd_telemetry.Json.t

(** [response_ok ?rid ~id result] builds a success envelope.  [rid] is
    the server-assigned request id, echoed as a top-level ["rid"]
    member so a client can correlate the response with the daemon's
    log records and trace spans. *)
val response_ok :
  ?rid:string ->
  id:Spd_telemetry.Json.t -> Spd_telemetry.Json.t -> Spd_telemetry.Json.t

(** [response_error ?rid ?data ~id ~code msg] builds an error
    envelope; [data] becomes the error object's "data" member when
    present, [rid] the top-level ["rid"] member. *)
val response_error :
  ?rid:string ->
  ?data:Spd_telemetry.Json.t ->
  id:Spd_telemetry.Json.t -> code:int -> string -> Spd_telemetry.Json.t

(** The ["rid"] member of a response envelope, if any. *)
val response_rid : Spd_telemetry.Json.t -> string option

(** {1 Client} *)

type client

(** A JSON-RPC error response, decoded. *)
type rpc_error = {
  code : int;
  message : string;
  retry_after_ms : int option;
      (** the server's backoff hint from [error.data.retry_after_ms] *)
}

type call_error =
  | Rpc of rpc_error  (** the server answered with an error envelope *)
  | Transport of string  (** the conversation itself failed *)

(** Renders [Rpc] errors as ["server error CODE: MESSAGE"]. *)
val error_to_string : call_error -> string

(** Connect to a listening daemon. *)
val connect : addr -> (client, string) result

(** [call_ex c meth params] sends one request and waits for its
    response, keeping the error structured. *)
val call_ex :
  client -> string -> Spd_telemetry.Json.t ->
  (Spd_telemetry.Json.t, call_error) result

(** [call c meth params] is {!call_ex} with the error rendered by
    {!error_to_string}. *)
val call :
  client -> string -> Spd_telemetry.Json.t ->
  (Spd_telemetry.Json.t, string) result

(** The server-assigned request id echoed on the last response this
    client received ([None] before the first response, or when the
    server predates rid echoing). *)
val last_rid : client -> string option

val close : client -> unit

(** [call_with_retries ~retries addr meth params] makes up to
    [retries] attempts (so [~retries:1] is a plain call), each on a
    fresh connection.  Transport failures and the {!server_busy} /
    {!server_shutting_down} errors are retried after an exponential
    backoff starting at [base_delay] (default 50ms) and doubling per
    attempt; a [retry_after_ms] hint from the server raises the floor
    of that delay.  Other JSON-RPC errors fail immediately. *)
val call_with_retries :
  ?retries:int -> ?base_delay:float ->
  addr -> string -> Spd_telemetry.Json.t ->
  (Spd_telemetry.Json.t, string) result
