(** End-to-end observability smoke (see [make obs-smoke]): start a real
    [spd serve] with [--log]/[--trace]/[--slow-ms] armed, drive a mixed
    RPC burst, and check the whole telemetry story:

    - every response envelope echoes a [rid],
    - the per-method latency histograms count exactly the requests
      issued, and their p95 is sane,
    - the Prometheus exposition round-trips: cumulative buckets are
      monotone and the [+Inf] bucket equals [_count],
    - the served [explain] document, [why] decision ledger and
      [validate] verdict ledger are byte-identical to the
      [spd explain|why|validate --format json] CLI documents,
    - [spd top --count 1] renders one dashboard frame,
    - after shutdown, the [--log] file is valid spd-log/1 JSON-lines
      whose [rpc] records carry rids, and the [--trace] profile has an
      [rpc:query] span whose rid-tagged cell span nests inside it.

    The log, trace and a raw response envelope are saved under the
    smoke directory so [json_lint] can validate them. *)

module Json = Spd_telemetry.Json
module Metrics = Spd_telemetry.Metrics
module Protocol = Spd_serve.Protocol

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("obs_smoke: " ^ s);
      exit 1)
    fmt

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* run a command, capture stdout, require exit status 0 *)
let capture argv =
  let out = Filename.temp_file "spd_obs_out" ".tmp" in
  Fun.protect ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
  @@ fun () ->
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid = Unix.create_process argv.(0) argv Unix.stdin fd Unix.stderr in
  Unix.close fd;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> In_channel.with_open_bin out In_channel.input_all
  | _, status ->
      die "%s exited with %s"
        (String.concat " " (Array.to_list argv))
        (match status with
        | Unix.WEXITED n -> Printf.sprintf "status %d" n
        | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
        | Unix.WSTOPPED n -> Printf.sprintf "stop %d" n)

let member name j =
  match Json.member name j with
  | Some v -> v
  | None -> die "document lacks %S: %s" name (Json.to_string j)

let str j =
  match Json.to_string_opt j with
  | Some s -> s
  | None -> die "expected a JSON string"

let call_ok c meth params =
  match Protocol.call c meth params with
  | Ok r -> r
  | Error e -> die "%s: %s" meth e

let query_params =
  Json.Obj
    [
      ("bench", Json.String "moment");
      ("latency", Json.Int 2);
      ("artefact", Json.String "cycles");
      ("pipeline", Json.String "spec");
      ("width", Json.Int 4);
    ]

(* one raw framed exchange, to capture a full response envelope *)
let raw_roundtrip sock body =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let frame =
    Printf.sprintf "Content-Length: %d\r\n\r\n%s" (String.length body) body
  in
  ignore (Unix.write_substring fd frame 0 (String.length frame));
  let buf = Buffer.create 512 in
  let b = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let header_end () =
    let s = Buffer.contents buf in
    let rec find i =
      if i + 4 > String.length s then None
      else if String.sub s i 4 = "\r\n\r\n" then Some (i + 4)
      else find (i + 1)
    in
    find 0
  in
  let rec read_until pred =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then die "raw response timed out"
    else
      match Unix.select [ fd ] [] [] 1.0 with
      | [], _, _ -> read_until pred
      | _ -> (
          match Unix.read fd b 0 4096 with
          | 0 -> die "daemon closed the raw connection early"
          | n ->
              Buffer.add_subbytes buf b 0 n;
              read_until pred)
  in
  read_until (fun () -> header_end () <> None);
  let hdr_end = Option.get (header_end ()) in
  let s = Buffer.contents buf in
  let len =
    (* the only header the daemon sends is Content-Length *)
    Scanf.sscanf (String.sub s 0 hdr_end) "Content-Length: %d" Fun.id
  in
  read_until (fun () -> Buffer.length buf >= hdr_end + len);
  String.sub (Buffer.contents buf) hdr_end len

let hist_count hists name =
  match Option.bind (Json.member name hists) Metrics.hist_of_json with
  | Some h -> h.Metrics.count
  | None -> die "no %s histogram" name

(* ------------------------------------------------------------------ *)

let () =
  let smoke_dir = ref "/tmp" in
  let spd =
    ref
      (Filename.concat
         (Filename.concat (Filename.dirname Sys.executable_name) "..")
         (Filename.concat "bin" "spd.exe"))
  in
  let rec parse = function
    | [] -> ()
    | "--spd" :: path :: tl -> spd := path; parse tl
    | dir :: tl -> smoke_dir := dir; parse tl
  in
  parse (List.tl (Array.to_list Sys.argv));
  if not (Sys.file_exists !spd) then die "spd binary not found at %s" !spd;
  let sock = Filename.concat !smoke_dir "spd_obs_smoke.sock" in
  if Sys.file_exists sock then Sys.remove sock;
  let log_file = Filename.concat !smoke_dir "spd_obs_log.jsonl" in
  let trace_file = Filename.concat !smoke_dir "spd_obs_trace.json" in
  List.iter
    (fun f -> if Sys.file_exists f then Sys.remove f)
    [ log_file; trace_file ];
  let daemon_out = Filename.concat !smoke_dir "spd_obs_smoke.out" in
  let out_fd =
    Unix.openfile daemon_out
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let daemon =
    Unix.create_process !spd
      [|
        !spd; "serve"; "--socket"; sock; "--workers"; "2"; "--jobs"; "2";
        "--no-cache"; "--log"; log_file; "--log-level"; "debug";
        "--trace"; trace_file; "--slow-ms"; "0.0001";
      |]
      Unix.stdin out_fd out_fd
  in
  Unix.close out_fd;
  let addr = Protocol.Unix_path sock in
  let rec await n =
    if n = 0 then begin
      (try Unix.kill daemon Sys.sigkill with Unix.Unix_error _ -> ());
      die "daemon did not open %s (see %s)" sock daemon_out
    end;
    match Protocol.connect addr with
    | Ok c -> c
    | Error _ ->
        Unix.sleepf 0.1;
        await (n - 1)
  in
  let c = await 100 in

  (* mixed burst with known per-method counts *)
  let n_pings = 5 and n_healths = 3 and n_queries = 10 in
  for _ = 1 to n_pings do
    ignore (call_ok c "ping" (Json.Obj []))
  done;
  if Protocol.last_rid c = None then die "no rid echoed on ping";
  for _ = 1 to n_healths do
    ignore (call_ok c "health" (Json.Obj []))
  done;
  for _ = 1 to n_queries do
    let q = call_ok c "query" query_params in
    if member "ok" q <> Json.Bool true then die "query failed"
  done;
  let query_rid =
    match Protocol.last_rid c with
    | Some r -> r
    | None -> die "no rid echoed on query"
  in

  (* per-method latency histograms: exact counts for the burst *)
  let hists = member "histograms" (call_ok c "metrics" (Json.Obj [])) in
  let check_exact meth want =
    let got = hist_count hists ("spd.serve.rpc.latency." ^ meth) in
    if got <> want then die "latency.%s counted %d, want %d" meth got want
  in
  check_exact "ping" n_pings;
  check_exact "health" n_healths;
  check_exact "query" n_queries;
  (match
     Option.bind
       (Json.member "spd.serve.rpc.latency.query" hists)
       Metrics.hist_of_json
   with
  | None -> die "no query latency histogram"
  | Some h -> (
      match Metrics.quantile h 0.95 with
      | Some p95 when p95 >= 0.0 && p95 < 30.0 -> ()
      | Some p95 -> die "query p95 %g out of range" p95
      | None -> die "query p95 missing"));

  (* the served [explain] document, [why] ledger and [validate] verdict
     ledger must agree byte-for-byte with the CLI's [--format json]
     documents: each is a pure function of its inputs, and the
     envelope's rid lives outside the result, so the result IS the bare
     spd-explain/1, spd-decisions/1 or spd-validate/1 document *)
  List.iter
    (fun (meth, params, flags) ->
      let served =
        Json.to_string
          (call_ok c meth
             (Json.Obj
                (("workload", Json.String "perm")
                :: ("mem_latency", Json.Int 2)
                :: params)))
      in
      write_file
        (Filename.concat !smoke_dir ("spd_obs_" ^ meth ^ ".json"))
        served;
      let cli =
        String.trim
          (capture
             (Array.of_list
                ([ !spd; meth; "perm"; "--mem-latency"; "2" ]
                @ flags @ [ "--format"; "json" ])))
      in
      if served <> cli then
        die "served %s differs from the CLI document:\n%s\nvs\n%s" meth
          served cli)
    [
      ("explain", [ ("width", Json.Int 4) ], [ "--width"; "4" ]);
      ("why", [], [ "--no-cache" ]);
      ("validate", [], [ "--no-cache" ]);
    ];

  (* a raw envelope, saved for json_lint: must echo a rid *)
  let envelope =
    raw_roundtrip sock
      {|{"jsonrpc":"2.0","id":99,"method":"ping","params":{}}|}
  in
  (match Json.of_string envelope with
  | Ok e ->
      if Option.bind (Json.member "rid" e) Json.to_string_opt = None then
        die "raw envelope has no rid: %s" envelope
  | Error e -> die "raw envelope is not JSON: %s" e);
  write_file (Filename.concat !smoke_dir "spd_obs_envelope.json") envelope;

  (* Prometheus round-trip via the CLI: cumulative buckets monotone,
     +Inf equals _count *)
  let prom =
    capture
      [| !spd; "call"; "metrics"; "--format"; "prometheus"; "--socket"; sock |]
  in
  write_file (Filename.concat !smoke_dir "spd_obs_metrics.prom") prom;
  let prom_lines = String.split_on_char '\n' prom in
  let series prefix =
    List.filter_map
      (fun l ->
        if String.starts_with ~prefix l then
          match String.rindex_opt l ' ' with
          | Some i ->
              Some
                (int_of_string
                   (String.sub l (i + 1) (String.length l - i - 1)))
          | None -> None
        else None)
      prom_lines
  in
  let buckets = series "spd_serve_rpc_latency_query_bucket{" in
  if buckets = [] then die "no query latency buckets in the exposition";
  let rec monotone = function
    | a :: (b :: _ as tl) -> a <= b && monotone tl
    | _ -> true
  in
  if not (monotone buckets) then die "cumulative buckets not monotone";
  (match (List.rev buckets, series "spd_serve_rpc_latency_query_count") with
  | inf :: _, [ count ] ->
      if inf <> count then die "+Inf bucket %d <> _count %d" inf count;
      if count <> n_queries then
        die "exposition counts %d queries, want %d" count n_queries
  | _ -> die "malformed query latency exposition");

  (* the dashboard: one frame, no terminal *)
  let top =
    capture [| !spd; "top"; "--count"; "1"; "--socket"; sock |]
  in
  if not (contains ~needle:"spd top" top) then
    die "spd top frame lacks its header: %s" top;
  if not (contains ~needle:"latency (ms)" top) then
    die "spd top frame lacks the latency table: %s" top;
  if not (contains ~needle:"query" top) then
    die "spd top frame lacks the query row: %s" top;

  Protocol.close c;

  (* graceful shutdown; the daemon must exit 0 and flush log + trace *)
  ignore (capture [| !spd; "call"; "shutdown"; "--socket"; sock |]);
  (match Unix.waitpid [] daemon with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n -> die "daemon exited with status %d" n
  | _, _ -> die "daemon killed by a signal");

  (* the log: valid spd-log/1 lines; rpc records carry rids; the
     lifecycle and slow-request events are present *)
  let log_lines =
    In_channel.with_open_text log_file In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "")
  in
  if log_lines = [] then die "log file is empty";
  let records =
    List.map
      (fun l ->
        match Json.of_string l with
        | Ok d -> d
        | Error e -> die "log line is not JSON: %s (%s)" l e)
      log_lines
  in
  let event d = Option.bind (Json.member "event" d) Json.to_string_opt in
  List.iter
    (fun d ->
      if str (member "schema" d) <> "spd-log/1" then die "bad log schema";
      ignore (member "ts" d);
      ignore (member "level" d);
      if event d = Some "rpc" && Json.member "rid" d = None then
        die "rpc record without a rid: %s" (Json.to_string d))
    records;
  let has ev = List.exists (fun d -> event d = Some ev) records in
  List.iter
    (fun ev -> if not (has ev) then die "no %S record in the log" ev)
    [ "server.start"; "rpc"; "rpc.slow"; "engine.cell.start";
      "server.drain"; "server.stop" ];

  (* the trace: an rpc:query span tagged with the last query's rid,
     with a rid-matching cell span nested inside some rpc:query span *)
  let trace =
    match Json.of_string (In_channel.with_open_text trace_file In_channel.input_all) with
    | Ok t -> t
    | Error e -> die "trace is not JSON: %s" e
  in
  let events =
    match Json.to_list (member "traceEvents" trace) with
    | Some evs -> evs
    | None -> die "trace has no traceEvents"
  in
  let name e = Option.bind (Json.member "name" e) Json.to_string_opt in
  let rid e =
    Option.bind (Json.member "args" e) (fun a ->
        Option.bind (Json.member "rid" a) Json.to_string_opt)
  in
  let ts e = Option.bind (Json.member "ts" e) Json.to_number in
  let dur e = Option.bind (Json.member "dur" e) Json.to_number in
  let rpc_spans =
    List.filter (fun e -> name e = Some "rpc:query") events
  in
  if rpc_spans = [] then die "no rpc:query span in the trace";
  if not (List.exists (fun e -> rid e = Some query_rid) rpc_spans) then
    die "no rpc:query span carries the echoed rid %s" query_rid;
  let cells =
    List.filter
      (fun e ->
        match name e with Some n -> String.starts_with ~prefix:"cell:" n | None -> false)
      events
  in
  let nested =
    List.exists
      (fun cell ->
        match rid cell with
        | None -> false
        | Some r ->
            List.exists
              (fun rpc ->
                rid rpc = Some r
                &&
                match (ts rpc, dur rpc, ts cell, dur cell) with
                | Some t0, Some d0, Some t1, Some d1 ->
                    t0 <= t1 +. 1.0 && t1 +. d1 <= t0 +. d0 +. 1.0
                | _ -> false)
              rpc_spans)
      cells
  in
  if not nested then
    die "no cell span nests (by rid and time) inside an rpc:query span";
  print_endline
    "obs_smoke: OK (rids echoed, histograms exact, exposition monotone, \
     log and trace consistent)"
