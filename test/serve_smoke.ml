(** End-to-end daemon smoke (see [make serve-smoke]): start a real
    [spd serve] process on a Unix socket, drive it through the framed
    JSON-RPC client, and check the acceptance properties against the
    CLI:

    - a served [report] is byte-identical to
      [spd report --format json] (after dropping the run-dependent
      [metrics] snapshot from both),
    - a 100-request duplicate burst records exactly one simulation in
      the daemon's engine counters,
    - [spd call] round-trips, and [shutdown] terminates the daemon
      with exit status 0.

    Response documents are saved under the smoke directory so
    [json_lint] can validate them against the spd-serve/1 schema. *)

module Json = Spd_telemetry.Json
module Protocol = Spd_serve.Protocol

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("serve_smoke: " ^ s);
      exit 1)
    fmt

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* run a command, capture stdout, require exit status 0 *)
let capture argv =
  let out = Filename.temp_file "spd_smoke_out" ".tmp" in
  Fun.protect ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
  @@ fun () ->
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process argv.(0) argv Unix.stdin fd Unix.stderr
  in
  Unix.close fd;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 ->
      In_channel.with_open_bin out In_channel.input_all
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
  | None -> die "response lacks %S: %s" name (Json.to_string j)

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

let () =
  let smoke_dir = ref "/tmp" in
  let spd =
    (* built next to this executable: _build/default/{test,bin} *)
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
  let sock = Filename.concat !smoke_dir "spd_serve_smoke.sock" in
  if Sys.file_exists sock then Sys.remove sock;
  let daemon_log = Filename.concat !smoke_dir "spd_serve_smoke.log" in
  let log_fd =
    Unix.openfile daemon_log
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let daemon =
    Unix.create_process !spd
      [|
        !spd; "serve"; "--socket"; sock; "--workers"; "2"; "--jobs"; "2";
        "--no-cache";
      |]
      Unix.stdin log_fd log_fd
  in
  Unix.close log_fd;
  let addr = Protocol.Unix_path sock in
  (* wait for the daemon to bind *)
  let rec await n =
    if n = 0 then begin
      (try Unix.kill daemon Sys.sigkill with Unix.Unix_error _ -> ());
      die "daemon did not open %s (see %s)" sock daemon_log
    end;
    match Protocol.connect addr with
    | Ok c -> c
    | Error _ ->
        Unix.sleepf 0.1;
        await (n - 1)
  in
  let c = await 100 in

  (* ping: the handshake document *)
  let ping = call_ok c "ping" (Json.Obj []) in
  if member "schema" ping <> Json.String Protocol.schema then
    die "ping schema mismatch";
  write_file
    (Filename.concat !smoke_dir "spd_serve_ping.json")
    (Json.to_string ping);

  (* first query of the grid cell the burst will hammer *)
  let q = call_ok c "query" query_params in
  if member "ok" q <> Json.Bool true then die "query failed";
  write_file
    (Filename.concat !smoke_dir "spd_serve_query.json")
    (Json.to_string q);

  (* duplicate burst: 4 concurrent clients x 25 identical queries *)
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            match Protocol.connect addr with
            | Error e -> die "burst connect: %s" e
            | Ok bc ->
                Fun.protect
                  ~finally:(fun () -> Protocol.close bc)
                  (fun () ->
                    List.init 25 (fun _ ->
                        Json.to_string
                          (call_ok bc "query" query_params)))))
  in
  let answers = List.concat_map Domain.join domains in
  (match answers with
  | first :: rest ->
      if not (List.for_all (String.equal first) rest) then
        die "burst answers differ"
  | [] -> die "no burst answers");
  let stats = call_ok c "stats" (Json.Obj []) in
  write_file
    (Filename.concat !smoke_dir "spd_serve_stats.json")
    (Json.to_string stats);
  (match
     Option.bind
       (Json.member "simulations" (member "counters" stats))
       Json.to_number
   with
  | Some 1.0 -> ()
  | Some n -> die "burst of 100 queries cost %g simulations, want 1" n
  | None -> die "stats lacks a simulations counter");

  (* byte identity: the served report against the CLI's JSON output *)
  let served_report =
    call_ok c "report"
      (Json.Obj [ ("artefacts", Json.List [ Json.String "table6_3" ]) ])
  in
  let cli_report =
    match
      Json.of_string
        (capture
           [|
             !spd; "report"; "table6_3"; "--jobs"; "2"; "--no-cache";
             "--format"; "json";
           |])
    with
    | Ok j -> j
    | Error e -> die "CLI report is not valid JSON: %s" e
  in
  let served_report = Json.to_string served_report
  and cli_report = Json.to_string cli_report in
  if not (String.equal served_report cli_report) then begin
    write_file
      (Filename.concat !smoke_dir "spd_serve_report_served.json")
      served_report;
    write_file
      (Filename.concat !smoke_dir "spd_serve_report_cli.json")
      cli_report;
    die "served report differs from the CLI's (see %s)" !smoke_dir
  end;
  (* a quota-starved duplicate fails alone (its budgeted cell is its
     own), and an inline-source run compiles and simulates *)
  let starved =
    call_ok c "query"
      (Json.Obj
         [
           ("bench", Json.String "moment");
           ("latency", Json.Int 2);
           ("artefact", Json.String "cycles");
           ("pipeline", Json.String "spec");
           ("width", Json.Int 4);
           ("fuel", Json.Int 1);
         ])
  in
  if member "ok" starved <> Json.Bool false then
    die "fuel=1 query should fail";
  let run =
    call_ok c "run"
      (Json.Obj
         [
           ( "source",
             Json.String
               "int main() { int a[4]; int i; for (i = 0; i < 4; i = i + \
                1) a[i] = i; return a[3]; }" );
         ])
  in
  write_file
    (Filename.concat !smoke_dir "spd_serve_run.json")
    (Json.to_string run);


  Protocol.close c;

  (* the one-shot CLI client, and shutdown through it *)
  let call_out =
    capture [| !spd; "call"; "ping"; "--socket"; sock |]
  in
  (match Json.of_string (String.trim call_out) with
  | Ok j when Json.member "schema" j <> None -> ()
  | Ok _ -> die "spd call ping: no schema in %s" call_out
  | Error e -> die "spd call ping output is not JSON: %s" e);
  let shutdown_out =
    capture [| !spd; "call"; "shutdown"; "--socket"; sock |]
  in
  write_file
    (Filename.concat !smoke_dir "spd_serve_shutdown.json")
    (String.trim shutdown_out);
  (match Unix.waitpid [] daemon with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n -> die "daemon exited with status %d" n
  | _, _ -> die "daemon killed by a signal");
  if Sys.file_exists sock then die "daemon left its socket behind";
  print_endline "serve_smoke: OK (report byte-identical, burst deduplicated)"
