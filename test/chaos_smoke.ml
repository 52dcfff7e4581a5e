(** Protocol-level chaos smoke (see [make chaos-smoke]): hammer a real
    [spd serve] daemon with a mix of good, malformed, stalling and
    disconnecting clients while a [worker-raise] fault kills worker
    domains underneath them, and assert the crash-only contract:

    - every well-formed request gets an answer byte-identical to the
      one a fault-free daemon gives,
    - no worker domain is permanently lost (the restart counter is
      positive and workers-alive is back to the full crew),
    - SIGTERM starts a graceful drain: the in-flight request finishes,
      new work is refused with the structured [server shutting down]
      error, and the process exits 0 with its socket removed,
    - a saturated daemon refuses admission with [server busy] carrying
      a [retry_after_ms] hint, and [--retries] rides through it.

    The chaos-client mix is fixed below (torn frames, garbage headers,
    stalled connections); the saved health and refusal documents are
    linted by [json_lint]. *)

module Json = Spd_telemetry.Json
module Protocol = Spd_serve.Protocol

(* the chaos-client mix of phase 2 *)
let torn_frame_clients = 4
let garbage_header_clients = 4
let stalled_clients = 2

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("chaos_smoke: " ^ s);
      exit 1)
    fmt

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* ------------------------------------------------------------------ *)
(* Daemon process control *)

let spawn_daemon ~spd ~log args =
  let log_fd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let argv = Array.of_list (spd :: "serve" :: args) in
  let pid = Unix.create_process spd argv Unix.stdin log_fd log_fd in
  Unix.close log_fd;
  pid

let await_bind ~pid ~sock ~log addr =
  let rec go n =
    if n = 0 then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      die "daemon did not open %s (see %s)" sock log
    end;
    match Protocol.connect addr with
    | Ok c -> Protocol.close c
    | Error _ ->
        Unix.sleepf 0.1;
        go (n - 1)
  in
  go 100

let expect_clean_exit ~what pid sock =
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n -> die "%s daemon exited with status %d" what n
  | _, _ -> die "%s daemon killed by a signal" what);
  if Sys.file_exists sock then die "%s daemon left its socket behind" what

(* ------------------------------------------------------------------ *)
(* Raw-socket clients for the misbehaving roles *)

let raw_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

let raw_close fd = try Unix.close fd with Unix.Unix_error _ -> ()

let raw_send fd s =
  try ignore (Unix.write_substring fd s 0 (String.length s))
  with Unix.Unix_error _ -> ()

let raw_recv_all fd =
  let buf = Buffer.create 256 in
  let b = Bytes.create 4096 in
  let rec go () =
    match Unix.select [ fd ] [] [] 10.0 with
    | [], _, _ -> ()
    | _ -> (
        match Unix.read fd b 0 4096 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf b 0 n;
            go ()
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ())
  in
  go ();
  Buffer.contents buf

let frame body =
  Printf.sprintf "Content-Length: %d\r\n\r\n%s" (String.length body) body

(* strip the framing off a one-frame server reply *)
let body_of reply =
  let rec find i =
    if i + 4 > String.length reply then None
    else if String.sub reply i 4 = "\r\n\r\n" then
      Some (String.sub reply (i + 4) (String.length reply - i - 4))
    else find (i + 1)
  in
  find 0

(* one raw request/response exchange on a fresh connection *)
let raw_roundtrip sock body =
  let fd = raw_connect sock in
  raw_send fd (frame body);
  let reply = raw_recv_all fd in
  raw_close fd;
  reply

let ping_body = {|{"jsonrpc":"2.0","id":1,"method":"ping","params":{}}|}

let query_body =
  {|{"jsonrpc":"2.0","id":1,"method":"query","params":{"bench":"moment","latency":2,"artefact":"cycles","pipeline":"spec","width":4}}|}

let query_params =
  Json.Obj
    [
      ("bench", Json.String "moment");
      ("latency", Json.Int 2);
      ("artefact", Json.String "cycles");
      ("pipeline", Json.String "spec");
      ("width", Json.Int 4);
    ]

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)

let () =
  (* raw sends to sockets the daemon already closed must error, not
     kill the harness *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ | Sys_error _ -> ());
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
  let in_dir name = Filename.concat !smoke_dir name in

  (* ---------------------------------------------------------------- *)
  (* Phase 1: a fault-free daemon provides the reference answer *)

  let sock = in_dir "spd_chaos_ref.sock" in
  if Sys.file_exists sock then Sys.remove sock;
  let addr = Protocol.Unix_path sock in
  let pid =
    spawn_daemon ~spd:!spd ~log:(in_dir "spd_chaos_ref.log")
      [ "--socket"; sock; "--workers"; "2"; "--jobs"; "2"; "--no-cache" ]
  in
  await_bind ~pid ~sock ~log:(in_dir "spd_chaos_ref.log") addr;
  let reference =
    match Protocol.call_with_retries ~retries:3 addr "query" query_params with
    | Ok r -> Json.to_string r
    | Error e -> die "reference query: %s" e
  in
  (match Protocol.call_with_retries ~retries:3 addr "shutdown" (Json.Obj [])
   with
  | Ok _ -> ()
  | Error e -> die "reference shutdown: %s" e);
  expect_clean_exit ~what:"reference" pid sock;

  (* ---------------------------------------------------------------- *)
  (* Phase 2: the same daemon under chaos — torn frames, garbage
     headers, stalled connections, and a worker-raise fault *)

  let sock = in_dir "spd_chaos.sock" in
  if Sys.file_exists sock then Sys.remove sock;
  let addr = Protocol.Unix_path sock in
  let log = in_dir "spd_chaos.log" in
  let pid =
    spawn_daemon ~spd:!spd ~log
      [
        "--socket"; sock; "--workers"; "2"; "--jobs"; "2"; "--no-cache";
        "--conn-timeout"; "1"; "--inject-fault"; "worker-raise:2";
      ]
  in
  await_bind ~pid ~sock ~log addr;

  (* stalled connections: opened now, dribbling nothing, evicted by the
     1-second frame deadline while everything else proceeds *)
  let stalls =
    List.init stalled_clients (fun _ ->
        let fd = raw_connect sock in
        raw_send fd "Content-Len";
        fd)
  in
  let torn =
    Domain.spawn (fun () ->
        for _ = 1 to torn_frame_clients do
          let fd = raw_connect sock in
          raw_send fd "Content-Length: 4096\r\n\r\n{\"jsonrpc\":";
          raw_close fd
        done)
  in
  let garbage =
    Domain.spawn (fun () ->
        for _ = 1 to garbage_header_clients do
          let fd = raw_connect sock in
          raw_send fd "Content-Length: banana\r\n\r\n";
          ignore (raw_recv_all fd);
          raw_close fd
        done)
  in
  let good =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            List.init 10 (fun _ ->
                match
                  Protocol.call_with_retries ~retries:8 addr "query"
                    query_params
                with
                | Ok r -> Json.to_string r
                | Error e -> die "good client under chaos: %s" e)))
  in
  let answers = List.concat_map Domain.join good in
  Domain.join torn;
  Domain.join garbage;
  if List.length answers <> 30 then die "expected 30 good answers";
  List.iter
    (fun a ->
      if not (String.equal a reference) then
        die "answer under chaos differs from the fault-free daemon:\n%s\nvs\n%s"
          a reference)
    answers;

  (* supervision: the worker-raise fault killed workers, the crew is
     whole again and the restarts are visible in health *)
  let health =
    let rec poll n =
      if n = 0 then die "workers never recovered (see %s)" log;
      match Protocol.call_with_retries ~retries:3 addr "health" (Json.Obj [])
      with
      | Error e -> die "health under chaos: %s" e
      | Ok h ->
          let num name =
            match Option.bind (Json.member name h) Json.to_number with
            | Some v -> int_of_float v
            | None -> die "health lacks %S" name
          in
          if num "worker_restarts" >= 1 && num "workers_alive" = 2 then h
          else begin
            Unix.sleepf 0.1;
            poll (n - 1)
          end
    in
    poll 50
  in
  write_file (in_dir "spd_chaos_health.json") (Json.to_string health);
  List.iter raw_close stalls;

  (* graceful drain: SIGTERM with a slow request in flight — the
     request finishes, new work is refused, exit status is 0 *)
  let slow =
    Domain.spawn (fun () ->
        Protocol.call_with_retries ~retries:2 addr "micro"
          (Json.Obj
             [
               ("workloads", Json.List [ Json.String "moment" ]);
               ("min_time", Json.Float 0.5);
             ]))
  in
  Unix.sleepf 0.4;
  (* the slow micro is in flight now *)
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  Unix.sleepf 0.15;
  let refused = raw_roundtrip sock query_body in
  if not (contains refused "-32002") then
    die "draining daemon did not refuse with -32002: %S" refused;
  (match body_of refused with
  | Some body -> write_file (in_dir "spd_chaos_refused.json") body
  | None -> die "refusal reply is not a framed message: %S" refused);
  (match Domain.join slow with
  | Ok _ -> ()
  | Error e -> die "in-flight request dropped by the drain: %s" e);
  expect_clean_exit ~what:"chaos" pid sock;

  (* ---------------------------------------------------------------- *)
  (* Phase 3: admission control — one pinned worker, no queue *)

  let sock = in_dir "spd_chaos_busy.sock" in
  if Sys.file_exists sock then Sys.remove sock;
  let addr = Protocol.Unix_path sock in
  let log = in_dir "spd_chaos_busy.log" in
  let pid =
    spawn_daemon ~spd:!spd ~log
      [
        "--socket"; sock; "--workers"; "1"; "--jobs"; "1"; "--no-cache";
        "--max-pending"; "1"; "--conn-timeout"; "1";
      ]
  in
  await_bind ~pid ~sock ~log addr;
  ignore addr;
  (* pin the only worker mid-frame, and fill the one queue slot *)
  let hog = raw_connect sock in
  raw_send hog "Content-";
  Unix.sleepf 0.3;
  let queued = raw_connect sock in
  Unix.sleepf 0.1;
  let busy = raw_roundtrip sock ping_body in
  if not (contains busy "-32001" && contains busy "retry_after_ms") then
    die "saturated daemon did not refuse with server busy: %S" busy;
  (match body_of busy with
  | Some body -> write_file (in_dir "spd_chaos_busy.json") body
  | None -> die "busy reply is not a framed message: %S" busy);
  raw_close hog;
  raw_close queued;
  (* the CLI retry flag rides through the same refusal *)
  (match
     Unix.create_process !spd
       [| !spd; "call"; "shutdown"; "--socket"; sock; "--retries"; "8" |]
       Unix.stdin Unix.stderr Unix.stderr
   with
  | cli -> (
      match Unix.waitpid [] cli with
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> die "spd call shutdown --retries failed"));
  expect_clean_exit ~what:"busy" pid sock;

  print_endline
    "chaos_smoke: OK (answers byte-identical under chaos, workers \
     respawned, drain refused new work and kept in-flight, busy refusal \
     carried retry_after_ms)"
