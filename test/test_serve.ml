(** Daemon tests: an in-process [Spd_serve.Server] on a temp Unix
    socket, exercised through the framed JSON-RPC client.

    The two acceptance properties of the serve API live here:
    - a burst of 100 identical concurrent [query] requests records
      exactly one cell computation in the engine's counters, and
    - a served [report] is byte-identical to [Artefact.to_json] on the
      same session. *)

open Util
module H = Spd_harness
module Engine = H.Engine
module Json = Spd_telemetry.Json
module Protocol = Spd_serve.Protocol
module Server = Spd_serve.Server

let case name f = Alcotest.test_case name `Quick f
let uniq = Atomic.make 0

let tmp_socket () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "spd_serve_test_%d_%d.sock" (Unix.getpid ())
       (Atomic.fetch_and_add uniq 1))

(* start a fresh daemon on a fresh session; always stopped and cleaned
   up, even when the test body raises *)
let with_server ?(workers = 2) ?(jobs = 2) ?conn_timeout ?drain_deadline
    ?max_pending ?faults ?slow_ms ?cache_dir ?fuel f =
  let path = tmp_socket () in
  let addr = Protocol.Unix_path path in
  let session =
    Engine.Session.create ~jobs ~disk_cache:(cache_dir <> None) ?cache_dir
      ?fuel ()
  in
  let server =
    Server.start ~workers ?conn_timeout ?drain_deadline ?max_pending ?faults
      ?slow_ms ~session addr
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Server.wait server;
      Engine.Session.close session;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f ~addr ~session ~server)

let connect addr =
  match Protocol.connect addr with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" e

let call_ok addr meth params =
  let c = connect addr in
  Fun.protect
    ~finally:(fun () -> Protocol.close c)
    (fun () ->
      match Protocol.call c meth params with
      | Ok r -> r
      | Error e -> Alcotest.failf "%s: %s" meth e)

let member name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S: %s" name (Json.to_string j)

let str j =
  match Json.to_string_opt j with
  | Some s -> s
  | None -> Alcotest.fail "expected a JSON string"

let num j =
  match Json.to_number j with
  | Some v -> v
  | None -> Alcotest.fail "expected a JSON number"

let query_params =
  Json.Obj
    [
      ("bench", Json.String "moment");
      ("latency", Json.Int 2);
      ("artefact", Json.String "cycles");
      ("pipeline", Json.String "spec");
      ("width", Json.Int 4);
    ]

let with_member params name v =
  match params with
  | Json.Obj kvs ->
      Json.Obj (List.filter (fun (k, _) -> k <> name) kvs @ [ (name, v) ])
  | _ -> assert false

(* raw-socket access, for speaking broken protocol on purpose *)

let raw_connect addr =
  match addr with
  | Protocol.Unix_path path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
  | Protocol.Tcp _ -> assert false

let raw_close fd = try Unix.close fd with Unix.Unix_error _ -> ()

let raw_send fd s =
  try ignore (Unix.write_substring fd s 0 (String.length s))
  with Unix.Unix_error _ -> ()

(* everything the server says until it closes the connection (or a
   5-second safety net trips) *)
let raw_recv_all fd =
  let buf = Buffer.create 256 in
  let b = Bytes.create 4096 in
  let rec go () =
    match Unix.select [ fd ] [] [] 5.0 with
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

let eventually ?(timeout = 5.0) pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    pred ()
    || Unix.gettimeofday () -. t0 < timeout
       && begin
            Unix.sleepf 0.02;
            go ()
          end
  in
  go ()

(* one [query] whose params are sent as raw JSON text, so numbers the
   encoder never writes (1e999) reach the daemon as written *)
let raw_query addr params =
  let fd = raw_connect addr in
  Fun.protect ~finally:(fun () -> raw_close fd) @@ fun () ->
  let body =
    Printf.sprintf {|{"jsonrpc":"2.0","id":1,"method":"query","params":%s}|}
      params
  in
  raw_send fd
    (Printf.sprintf "Content-Length: %d\r\n\r\n%s" (String.length body) body);
  match Protocol.read_frame_r (Protocol.reader (Unix.read fd)) with
  | Ok (Some resp) -> resp
  | Ok None -> Alcotest.fail "daemon closed the connection"
  | Error e -> Alcotest.failf "bad response frame: %s" e

(* the worker must still serve a fresh connection after whatever the
   previous test paragraph did to its sibling *)
let assert_still_serving addr =
  match Protocol.call_with_retries ~retries:5 addr "ping" (Json.Obj []) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "daemon stopped serving: %s" e

(* ------------------------------------------------------------------ *)

let test_ping () =
  with_server @@ fun ~addr ~session:_ ~server:_ ->
  let r = call_ok addr "ping" (Json.Obj []) in
  check_string "schema" Protocol.schema (str (member "schema" r));
  let methods =
    match Json.to_list (member "methods" r) with
    | Some l -> List.map str l
    | None -> Alcotest.fail "methods should be a list"
  in
  List.iter
    (fun m -> check_bool (m ^ " advertised") true (List.mem m methods))
    Server.methods

(* one request path: the served value equals a direct submit on the
   same session, and the reported key is the query's key *)
let test_query_matches_direct () =
  with_server @@ fun ~addr ~session ~server:_ ->
  let r = call_ok addr "query" query_params in
  check_bool "ok" true (member "ok" r = Json.Bool true);
  let q =
    Engine.Query.v ~bench:"moment" ~latency:2
      (Engine.Query.Cycles
         { kind = H.Pipeline.Spec; width = Spd_machine.Descr.Fus 4 })
  in
  check_string "key" (Engine.Query.key q) (str (member "key" r));
  match Engine.Session.submit session q with
  | Engine.Ok n ->
      check_int "served value = direct submit"
        (int_of_float (num (member "value" r)))
        n
  | Engine.Failed _ -> Alcotest.fail "direct submit failed"

(* Every artefact kind crosses the wire: each of the nine wire names,
   for perm at 2-cycle memory, answers ok:true with the JSON shape of
   its answer type, and the served Table 6-3 row is the applied tally
   of the served decision ledger. *)
let test_every_artefact_kind () =
  with_server @@ fun ~addr ~session ~server:_ ->
  let needs_pipeline = [ "cycles"; "code-size"; "speedup-over-naive" ]
  and needs_width = [ "cycles"; "speedup-over-naive"; "spec-over-static" ] in
  let served name =
    let params =
      [
        ("bench", Json.String "perm");
        ("latency", Json.Int 2);
        ("artefact", Json.String name);
      ]
      @ (if List.mem name needs_pipeline then
           [ ("pipeline", Json.String "spec") ]
         else [])
      @ if List.mem name needs_width then [ ("width", Json.Int 5) ] else []
    in
    let r = call_ok addr "query" (Json.Obj params) in
    check_bool (name ^ ": ok") true (member "ok" r = Json.Bool true);
    member "value" r
  in
  let direct artefact =
    Engine.get
      (Engine.Session.submit session
         (Engine.Query.v ~bench:"perm" ~latency:2 artefact))
  in
  let fus5 = Spd_machine.Descr.Fus 5 in
  let is_int = function Json.Int _ -> true | _ -> false in
  let keys = function Json.Obj kvs -> List.map fst kvs | _ -> [] in
  let entries name = function
    | Json.List (_ :: _ as l) ->
        List.iter
          (fun e ->
            check_bool (name ^ ": entry carries a verdict") true
              (Json.member "verdict" e <> None))
          l;
        true
    | _ -> false
  in
  let float_of name artefact j =
    check_bool (name ^ ": served = direct submit") true
      (Json.to_number j = Some (direct artefact));
    true
  in
  let shapes =
    [
      ("cycles", is_int);
      ("code-size", is_int);
      ("spd-counts", fun j -> keys j = [ "raw"; "war"; "waw" ]);
      ("spd-dynamics", fun j -> keys j = [ "regions"; "squashed" ]);
      ("spd-decisions", entries "spd-decisions");
      ("spd-validate", entries "spd-validate");
      ( "speedup-over-naive",
        float_of "speedup-over-naive"
          (Engine.Query.Speedup_over_naive
             { kind = H.Pipeline.Spec; width = fus5 }) );
      ( "spec-over-static",
        float_of "spec-over-static"
          (Engine.Query.Spec_over_static { width = fus5 }) );
      ("code-growth", float_of "code-growth" Engine.Query.Code_growth);
    ]
  in
  check_bool "every wire artefact name covered" true
    (List.sort compare (List.map fst shapes)
    = List.sort compare Engine.Query.artefact_names);
  List.iter
    (fun (name, shape) ->
      check_bool (name ^ ": JSON shape") true (shape (served name)))
    shapes;
  let count field j = int_of_float (num (member field j)) in
  let counts = served "spd-counts" in
  let applied kind =
    match served "spd-decisions" with
    | Json.List ds ->
        List.length
          (List.filter
             (fun d ->
               member "verdict" d = Json.String "applied"
               && member "kind" d = Json.String kind)
             ds)
    | _ -> Alcotest.fail "spd-decisions should be a list"
  in
  List.iter
    (fun kind ->
      check_int ("spd-counts " ^ kind ^ " = applied decisions")
        (applied kind) (count kind counts))
    [ "raw"; "war"; "waw" ]

(* ACCEPTANCE: 100 identical concurrent requests, from 10 client
   domains with their own connections, cost exactly one preparation and
   one simulation in the shared engine *)
let test_concurrent_burst_dedup () =
  with_server ~workers:4 @@ fun ~addr ~session ~server:_ ->
  let domains =
    List.init 10 (fun _ ->
        Domain.spawn (fun () ->
            let c = connect addr in
            Fun.protect
              ~finally:(fun () -> Protocol.close c)
              (fun () ->
                List.init 10 (fun _ ->
                    match Protocol.call c "query" query_params with
                    | Ok r -> int_of_float (num (member "value" r))
                    | Error e -> Alcotest.failf "burst query: %s" e))))
  in
  let answers = List.concat_map Domain.join domains in
  check_int "100 answers" 100 (List.length answers);
  let first = List.hd answers in
  List.iter (fun v -> check_int "all answers equal" first v) answers;
  let st = Engine.Session.stats session in
  check_int "one preparation" 1 st.Engine.Stats.preparations;
  check_int "one simulation" 1 st.Engine.Stats.simulations;
  (* the stats method reports the same counters over the wire *)
  let counters = member "counters" (call_ok addr "stats" (Json.Obj [])) in
  check_int "stats RPC agrees" 1
    (int_of_float (num (member "simulations" counters)))

(* a quota-starved tenant gets ok:false; the same cell without a budget
   still succeeds afterwards (the failure never poisons the clean cell) *)
let test_quota_isolation () =
  with_server @@ fun ~addr ~session:_ ~server:_ ->
  let starved =
    call_ok addr "query" (with_member query_params "fuel" (Json.Int 1))
  in
  check_bool "starved request fails" true
    (member "ok" starved = Json.Bool false);
  check_bool "failure carries an error string" true
    (String.length (str (member "error" starved)) > 0);
  let clean = call_ok addr "query" query_params in
  check_bool "unbudgeted neighbour succeeds" true
    (member "ok" clean = Json.Bool true)

(* ACCEPTANCE: the served report is the same document [Artefact.to_json]
   builds — one code path, so byte-identical JSON *)
let test_report_byte_identical () =
  with_server @@ fun ~addr ~session ~server:_ ->
  let artefacts = Json.List [ Json.String "table6_3" ] in
  let served =
    call_ok addr "report" (Json.Obj [ ("artefacts", artefacts) ])
  in
  let direct =
    H.Artefact.to_json ~session (H.Artefact.of_names [ "table6_3" ])
  in
  check_string "served report = direct to_json" (Json.to_string direct)
    (Json.to_string served)

(* Explain reads the daemon's session like why and validate: the
   served document is [Explain.to_json] of the same session's analysis,
   another width reuses the memoized preparations and run, the
   session's fuel bounds it, and a filter that matches nothing is
   refused. *)
let test_explain_over_the_wire () =
  let runs () =
    match List.assoc_opt "spd.sim.runs" (Spd_telemetry.Metrics.snapshot ()) with
    | Some (Spd_telemetry.Metrics.Counter n) -> n
    | _ -> 0
  in
  let explain ?(params = []) ~width addr =
    let c = connect addr in
    Fun.protect ~finally:(fun () -> Protocol.close c) @@ fun () ->
    Protocol.call c "explain"
      (Json.Obj
         ([ ("workload", Json.String "moment"); ("width", Json.Int width) ]
         @ params))
  in
  let refused ~code what = function
    | Ok _ -> Alcotest.failf "%s should be refused" what
    | Error e ->
        check_bool
          (Printf.sprintf "%s is %d" what code)
          true
          (Test_harness.contains e (string_of_int code));
        e
  in
  (with_server @@ fun ~addr ~session ~server:_ ->
   let served =
     match explain ~width:5 addr with
     | Ok r -> r
     | Error e -> Alcotest.failf "explain: %s" e
   in
   check_string "served explain = direct to_json"
     (Json.to_string
        (H.Explain.to_json (H.Explain.analyze ~width:5 session "moment")))
     (Json.to_string served);
   let before = runs () in
   (match explain ~width:3 addr with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "explain at 3 FUs: %s" e);
   check_int "another width makes no interpreter run" before (runs ());
   ignore
     (refused ~code:Protocol.invalid_params "an unmatched fn"
        (explain ~width:5 ~params:[ ("fn", Json.String "nosuch") ] addr)));
  with_server ~fuel:1000 @@ fun ~addr ~session:_ ~server:_ ->
  let e =
    refused ~code:Protocol.server_error "moment under 1000 traversals"
      (explain ~width:5 addr)
  in
  check_bool "the session's fuel ran out" true
    (Test_harness.contains e "fuel exhausted (1000 traversals)")

(* Inline source bypasses the session's cells, but not its budgets: a
   daemon whose session has 1000 traversals of fuel refuses to run
   moment's source past them. *)
let test_run_capped_by_session () =
  with_server ~fuel:1000 @@ fun ~addr ~session:_ ~server:_ ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Protocol.close c) @@ fun () ->
  match
    Protocol.call c "run"
      (Json.Obj
         [
           ( "source",
             Json.String (Spd_workloads.Registry.by_name "moment").source );
         ])
  with
  | Ok _ -> Alcotest.fail "run should exhaust the session's fuel"
  | Error e ->
      check_bool "the session's fuel ran out" true
        (Test_harness.contains e "fuel exhausted (1000 traversals)")

(* A request that writes cache records lands them on disk before it is
   answered, as one small pack of its own; a request served from memory
   writes nothing; closing the daemon's session compacts the packs into
   one. *)
let test_request_flushes_cache () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "spd_serve_cache_test_%d" (Unix.getpid ()))
  in
  Test_harness.rm_rf dir;
  Fun.protect ~finally:(fun () -> Test_harness.rm_rf dir) @@ fun () ->
  let packs () = Test_harness.files_with ".pack" dir in
  (with_server ~cache_dir:dir @@ fun ~addr ~session:_ ~server:_ ->
   ignore (call_ok addr "query" query_params);
   check_int "the answered cell is on disk" 1 (fst (Engine.cache_usage dir));
   let first = packs () in
   ignore (call_ok addr "query" query_params);
   check_bool "a memoized answer writes nothing" true (packs () = first);
   ignore
     (call_ok addr "query"
        (Json.Obj
           [
             ("bench", Json.String "moment");
             ("latency", Json.Int 2);
             ("artefact", Json.String "spd-counts");
           ]));
   check_int "the next write adds a pack of its own" 2 (List.length (packs ()));
   check_int "holding only the new cell" 2 (fst (Engine.cache_usage dir)));
  check_int "closing compacts to one pack" 1 (List.length (packs ()));
  check_int "which keeps both cells" 2 (fst (Engine.cache_usage dir))

let test_errors () =
  with_server @@ fun ~addr ~session:_ ~server:_ ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Protocol.close c) @@ fun () ->
  (match Protocol.call c "frobnicate" (Json.Obj []) with
  | Error e ->
      check_bool "unknown method is -32601" true
        (Test_harness.contains e "-32601")
  | Ok _ -> Alcotest.fail "frobnicate should not resolve");
  (match
     Protocol.call c "query"
       (with_member query_params "bench" (Json.String "nosuch"))
   with
  | Error e ->
      check_bool "unknown bench is -32602 invalid params" true
        (Test_harness.contains e "-32602"
        && Test_harness.contains e "nosuch")
  | Ok _ -> Alcotest.fail "unknown bench should be rejected");
  (* numbers past the int range, or not finite, are refused as invalid
     params instead of wrapping to 0 or running unbounded *)
  List.iter
    (fun (number, want) ->
      let error =
        member "error"
          (raw_query addr
             (Printf.sprintf
                {|{"bench":"moment","artefact":"cycles","pipeline":"spec",%s}|}
                number))
      in
      check_int (number ^ " is -32602") Protocol.invalid_params
        (int_of_float (num (member "code" error)));
      check_bool (number ^ ": " ^ want) true
        (Test_harness.contains (str (member "message" error)) want))
    [
      ({|"width":1e19|}, {|"width" expects a positive integer or "inf"|});
      ( {|"width":4,"latency":1e19|},
        {|"latency" expects a positive integer, got 1e+19|} );
      ( {|"width":4,"deadline":1e999|},
        {|"deadline" expects a positive number of seconds, got inf|} );
    ];
  (* the connection survives errors: a good request still works *)
  match Protocol.call c "ping" (Json.Obj []) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "ping after errors: %s" e

let test_shutdown_method () =
  with_server @@ fun ~addr ~session:_ ~server ->
  let r = call_ok addr "shutdown" (Json.Obj []) in
  check_bool "shutdown acknowledged" true
    (member "stopping" r = Json.Bool true);
  (* wait must return promptly now that the daemon is stopping *)
  Server.wait server;
  check_bool "requests were served" true (Server.served server >= 1)

(* ------------------------------------------------------------------ *)
(* Crash-only serving: malformed input, supervision, admission, drain *)

(* a Content-Length past the 64 MiB cap is answered with a structured
   parse error, and the worker goes on serving other connections *)
let test_oversized_content_length () =
  with_server @@ fun ~addr ~session:_ ~server:_ ->
  let fd = raw_connect addr in
  raw_send fd "Content-Length: 999999999\r\n\r\n";
  let resp = raw_recv_all fd in
  raw_close fd;
  check_bool "parse error -32700" true (Test_harness.contains resp "-32700");
  check_bool "names the bad length" true
    (Test_harness.contains resp "unreasonable Content-Length");
  assert_still_serving addr

(* disconnect mid-body: no response possible, the worker just drops the
   torn connection and serves the next one *)
let test_torn_frame () =
  with_server @@ fun ~addr ~session:_ ~server:_ ->
  let fd = raw_connect addr in
  raw_send fd "Content-Length: 4096\r\n\r\n{\"jsonrpc\":";
  raw_close fd;
  assert_still_serving addr

(* an unparsable Content-Length value is a framing error with the
   structured wording, answered once *)
let test_garbage_header () =
  with_server @@ fun ~addr ~session:_ ~server:_ ->
  let fd = raw_connect addr in
  raw_send fd "Content-Length: banana\r\n\r\n";
  let resp = raw_recv_all fd in
  raw_close fd;
  check_bool "parse error -32700" true (Test_harness.contains resp "-32700");
  check_bool "names the bad value" true
    (Test_harness.contains resp "invalid Content-Length");
  assert_still_serving addr

(* an endless header section trips the byte cap instead of growing
   memory *)
let test_header_flood () =
  with_server @@ fun ~addr ~session:_ ~server:_ ->
  let fd = raw_connect addr in
  let line = "X-Flood: " ^ String.make 500 'a' ^ "\r\n" in
  (try
     for _ = 1 to 100 do
       raw_send fd line
     done
   with _ -> ());
  let resp = raw_recv_all fd in
  raw_close fd;
  check_bool "parse error -32700" true (Test_harness.contains resp "-32700");
  check_bool "names the header cap" true
    (Test_harness.contains resp "frame header exceeds");
  assert_still_serving addr

(* peer sends a request and vanishes before the answer: the response
   write fails (EPIPE/ECONNRESET), the worker shrugs and serves on *)
let test_epipe_on_write () =
  with_server @@ fun ~addr ~session:_ ~server:_ ->
  let fd = raw_connect addr in
  let body = {|{"jsonrpc":"2.0","id":1,"method":"ping","params":{}}|} in
  raw_send fd
    (Printf.sprintf "Content-Length: %d\r\n\r\n%s" (String.length body) body);
  raw_close fd;
  assert_still_serving addr

(* slow-loris: a connection dribbling no bytes past the frame deadline
   is evicted and counted *)
let test_conn_timeout_eviction () =
  with_server ~conn_timeout:0.2 @@ fun ~addr ~session:_ ~server ->
  let fd = raw_connect addr in
  raw_send fd "Content-Len";
  (* never finishes the header *)
  check_bool "stalled connection evicted" true
    (eventually (fun () -> Server.conn_timeouts server >= 1));
  raw_close fd;
  assert_still_serving addr

(* admission control: with every worker pinned and no queue, the next
   connection is refused with server busy + retry_after_ms; retries ride
   through once capacity frees up *)
let test_admission_busy () =
  with_server ~workers:1 ~max_pending:0 ~conn_timeout:30.0
  @@ fun ~addr ~session:_ ~server ->
  let hog = raw_connect addr in
  raw_send hog "Content-";
  (* pins the only worker mid-frame *)
  check_bool "worker claimed the hog" true
    (eventually (fun () -> Server.active_conns server >= 1));
  (match Protocol.connect addr with
  | Error e -> Alcotest.failf "connect while busy: %s" e
  | Ok c ->
      Fun.protect ~finally:(fun () -> Protocol.close c) @@ fun () ->
      (match Protocol.call_ex c "ping" (Json.Obj []) with
      | Error (Protocol.Rpc e) ->
          check_int "server busy code" Protocol.server_busy e.Protocol.code;
          check_bool "carries retry_after_ms" true
            (e.Protocol.retry_after_ms <> None)
      | Error (Protocol.Transport e) ->
          Alcotest.failf "expected a busy error, got transport: %s" e
      | Ok _ -> Alcotest.fail "expected a busy refusal"));
  check_bool "refusal counted" true (Server.admission_rejected server >= 1);
  (* free the worker; a retrying client must get through *)
  raw_close hog;
  assert_still_serving addr

(* a worker that dies on an unexpected exception is respawned: the
   poisoned connection is lost, the crew is not *)
let test_worker_supervision () =
  let faults =
    match H.Faults.parse "worker-raise:1" with
    | Ok f -> f
    | Error e -> Alcotest.fail e
  in
  with_server ~workers:2 ~faults @@ fun ~addr ~session:_ ~server ->
  (match Protocol.connect addr with
  | Error e -> Alcotest.failf "connect: %s" e
  | Ok c ->
      Fun.protect ~finally:(fun () -> Protocol.close c) @@ fun () ->
      (* the fault kills this connection's worker before any response *)
      (match Protocol.call_ex c "ping" (Json.Obj []) with
      | Error (Protocol.Transport _) -> ()
      | Error (Protocol.Rpc e) ->
          Alcotest.failf "expected a torn connection, got rpc error %d"
            e.Protocol.code
      | Ok _ -> Alcotest.fail "poisoned connection should not answer"));
  check_bool "restart counted" true
    (eventually (fun () -> Server.worker_restarts server >= 1));
  check_bool "crew back to full strength" true
    (eventually (fun () -> Server.workers_alive server = 2));
  assert_still_serving addr

let test_health () =
  with_server @@ fun ~addr ~session:_ ~server ->
  check_bool "both workers up" true
    (eventually (fun () -> Server.workers_alive server = 2));
  let r = call_ok addr "health" (Json.Obj []) in
  check_string "kind" "health" (str (member "kind" r));
  check_int "workers" 2 (int_of_float (num (member "workers" r)));
  check_int "workers_alive" 2
    (int_of_float (num (member "workers_alive" r)));
  check_bool "not draining" true (member "draining" r = Json.Bool false);
  check_bool "health counts itself in flight" true
    (num (member "in_flight" r) >= 1.0);
  check_bool "uptime ticks" true (num (member "uptime_seconds" r) >= 0.0)

(* drain semantics: during the drain, health still answers (and says
   draining) while real work is refused with -32002 *)
let test_drain_refuses_work () =
  with_server @@ fun ~addr ~session:_ ~server ->
  Server.stop server;
  Server.stop server;
  (* idempotent: second stop is a no-op *)
  check_bool "draining" true (Server.draining server);
  let h = call_ok addr "health" (Json.Obj []) in
  check_bool "health reports draining" true
    (member "draining" h = Json.Bool true);
  match Protocol.connect addr with
  | Error e -> Alcotest.failf "connect while draining: %s" e
  | Ok c -> (
      Fun.protect ~finally:(fun () -> Protocol.close c) @@ fun () ->
      match Protocol.call_ex c "query" query_params with
      | Error (Protocol.Rpc e) ->
          check_int "shutting-down code" Protocol.server_shutting_down
            e.Protocol.code
      | Error (Protocol.Transport e) ->
          Alcotest.failf "expected a structured refusal, got: %s" e
      | Ok _ -> Alcotest.fail "draining daemon should refuse a query")

(* the serve counters are registered up front: a metrics snapshot
   carries them even before any fault fires *)
let test_metrics_snapshot_keys () =
  with_server @@ fun ~addr ~session:_ ~server:_ ->
  let counters = member "counters" (call_ok addr "metrics" (Json.Obj [])) in
  List.iter
    (fun key ->
      check_bool (key ^ " registered") true (Json.member key counters <> None))
    [
      "spd.serve.requests"; "spd.serve.errors"; "spd.serve.conn.timeout";
      "spd.serve.worker.restart"; "spd.serve.admission.rejected";
    ]

(* ------------------------------------------------------------------ *)
(* Observability: rid echo, metrics_prom, latency histograms, slow log *)

(* every response envelope echoes a server-assigned rid, and distinct
   requests get distinct rids *)
let test_rid_echo () =
  with_server @@ fun ~addr ~session:_ ~server:_ ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Protocol.close c) @@ fun () ->
  check_bool "no rid before any call" true (Protocol.last_rid c = None);
  ignore (Protocol.call c "ping" (Json.Obj []));
  let r1 = Protocol.last_rid c in
  ignore (Protocol.call c "ping" (Json.Obj []));
  let r2 = Protocol.last_rid c in
  check_bool "rid echoed" true (r1 <> None && r2 <> None);
  check_bool "rids distinct per request" true (r1 <> r2);
  (* error envelopes carry one too *)
  ignore (Protocol.call c "frobnicate" (Json.Obj []));
  check_bool "rid on error envelope" true
    (Protocol.last_rid c <> None && Protocol.last_rid c <> r2)

let test_metrics_prom_method () =
  with_server @@ fun ~addr ~session:_ ~server:_ ->
  ignore (call_ok addr "ping" (Json.Obj []));
  let r = call_ok addr "metrics_prom" (Json.Obj []) in
  check_string "kind" "metrics_prom" (str (member "kind" r));
  check_bool "content type versioned" true
    (Test_harness.contains (str (member "content_type" r)) "0.0.4");
  let text = str (member "text" r) in
  check_bool "serve counter exported" true
    (Test_harness.contains text "spd_serve_requests");
  check_bool "histogram has +Inf bucket" true
    (Test_harness.contains text "le=\"+Inf\"")

(* each RPC lands in its per-method latency histogram, and the merged
   histogram yields sane quantiles *)
let test_per_method_latency () =
  with_server @@ fun ~addr ~session:_ ~server:_ ->
  let n_pings = 5 in
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Protocol.close c) @@ fun () ->
  for _ = 1 to n_pings do
    ignore (Protocol.call c "ping" (Json.Obj []))
  done;
  let module Metrics = Spd_telemetry.Metrics in
  let hists =
    member "histograms" (call_ok addr "metrics" (Json.Obj []))
  in
  match
    Option.bind
      (Json.member "spd.serve.rpc.latency.ping" hists)
      Metrics.hist_of_json
  with
  | None -> Alcotest.fail "no ping latency histogram"
  | Some h ->
      check_bool "all pings observed" true (h.Metrics.count >= n_pings);
      (match Metrics.quantile h 0.95 with
      | Some p95 -> check_bool "p95 sane" true (p95 >= 0.0 && p95 < 30.0)
      | None -> Alcotest.fail "p95 missing")

(* --slow-ms 0 flags every request: the rpc.slow record lands in the
   log file with the request's rid and a stage breakdown member *)
let test_slow_request_log () =
  let module Log = Spd_telemetry.Log in
  let path = Filename.temp_file "spd_slow" ".jsonl" in
  let prev_level = Log.level () in
  Fun.protect ~finally:(fun () ->
      Log.close ();
      Log.set_level prev_level;
      Sys.remove path)
  @@ fun () ->
  Log.set_level Log.Info;
  (match Log.to_file path with
  | Ok () -> ()
  | Error e -> Alcotest.failf "to_file: %s" e);
  ( with_server ~slow_ms:0.0001 @@ fun ~addr ~session:_ ~server:_ ->
    let c = connect addr in
    Fun.protect ~finally:(fun () -> Protocol.close c) @@ fun () ->
    let query_rid =
      match Protocol.call c "query" query_params with
      | Ok _ -> Protocol.last_rid c
      | Error e -> Alcotest.failf "query: %s" e
    in
    let run_rid =
      match
        Protocol.call c "run"
          (Json.Obj
             [
               ( "source",
                 Json.String
                   "int main() { int a[4]; int i; for (i = 0; i < 4; i = \
                    i + 1) a[i] = i; return a[3]; }" );
             ])
      with
      | Ok _ -> Protocol.last_rid c
      | Error e -> Alcotest.failf "run: %s" e
    in
    Log.flush ();
    let lines = In_channel.with_open_text path In_channel.input_lines in
    let slow =
      List.filter_map
        (fun l ->
          match Json.of_string l with
          | Ok d
            when Option.bind (Json.member "event" d) Json.to_string_opt
                 = Some "rpc.slow" ->
              Some d
          | _ -> None)
        lines
    in
    match
      List.find_opt
        (fun d ->
          Option.bind (Json.member "method" d) Json.to_string_opt
          = Some "query")
        slow
    with
    | None -> Alcotest.fail "no rpc.slow record for the query"
    | Some d ->
        check_bool "slow record carries the echoed rid" true
          (Option.bind (Json.member "rid" d) Json.to_string_opt = query_rid);
        check_bool "stage breakdown present" true
          (match Json.member "stages" d with
          | Some (Json.Obj _) -> true
          | _ -> false);
        check_bool "ms recorded" true
          (match Option.bind (Json.member "ms" d) Json.to_number with
          | Some ms -> ms >= 0.0
          | None -> false);
        (* an inline run prepares outside the session's grid cells; its
           stages are in the breakdown all the same *)
        match
          List.find_opt
            (fun d ->
              Option.bind (Json.member "rid" d) Json.to_string_opt = run_rid)
            slow
        with
        | None -> Alcotest.fail "no rpc.slow record for the run"
        | Some d ->
            check_bool "run breakdown has a positive simulate entry" true
              (match
                 Option.bind (Json.member "stages" d) (Json.member "simulate")
               with
              | Some j -> Option.value ~default:0.0 (Json.to_number j) > 0.0
              | None -> false) )

(* the spd top data layer over a live daemon: sampling, windowing,
   rendering *)
let test_top_sampling () =
  let module Top = Spd_serve.Top in
  with_server @@ fun ~addr ~session:_ ~server:_ ->
  let c = connect addr in
  Fun.protect ~finally:(fun () -> Protocol.close c) @@ fun () ->
  let fetch () =
    match Top.fetch c with
    | Ok s -> s
    | Error e -> Alcotest.failf "top fetch: %s" e
  in
  let s0 = fetch () in
  ignore (call_ok addr "ping" (Json.Obj []));
  let s1 = fetch () in
  check_bool "request counter advanced" true
    (Top.counter s1 "spd.serve.requests" > Top.counter s0 "spd.serve.requests");
  (* windowed histogram counts only the new requests *)
  (match Top.window (Some s0) s1 "spd.serve.rpc.latency.ping" with
  | Some h -> check_bool "window counts the new ping" true (h.Spd_telemetry.Metrics.count >= 1)
  | None -> Alcotest.fail "no windowed ping histogram");
  let frame = Top.render ~prev:s0 s1 in
  check_bool "frame names the dashboard" true
    (Test_harness.contains frame "spd top");
  check_bool "frame has the latency table" true
    (Test_harness.contains frame "latency (ms)");
  check_bool "first frame renders too" true
    (String.length (Top.render s0) > 0)

(* health gained the log counters *)
let test_health_log_counters () =
  with_server @@ fun ~addr ~session:_ ~server:_ ->
  let r = call_ok addr "health" (Json.Obj []) in
  check_bool "log_records" true (num (member "log_records" r) >= 0.0);
  check_bool "log_dropped" true (num (member "log_dropped" r) >= 0.0)

let tests =
  [
    case "ping over a unix socket" test_ping;
    case "query = direct submit" test_query_matches_direct;
    case "every artefact kind over the wire" test_every_artefact_kind;
    case "100-request burst = one computation" test_concurrent_burst_dedup;
    case "fuel quota isolates a tenant" test_quota_isolation;
    case "served report is byte-identical" test_report_byte_identical;
    case "explain over the wire" test_explain_over_the_wire;
    case "inline run capped by the session's fuel" test_run_capped_by_session;
    case "a writing request flushes the cache" test_request_flushes_cache;
    case "JSON-RPC errors and recovery" test_errors;
    case "shutdown method stops the daemon" test_shutdown_method;
    case "oversized Content-Length is refused" test_oversized_content_length;
    case "torn frame leaves the worker alive" test_torn_frame;
    case "garbage header is a framing error" test_garbage_header;
    case "header flood trips the cap" test_header_flood;
    case "EPIPE on response write is contained" test_epipe_on_write;
    case "slow-loris eviction" test_conn_timeout_eviction;
    case "admission control refuses with busy" test_admission_busy;
    case "worker supervision respawns" test_worker_supervision;
    case "health method" test_health;
    case "drain refuses work, answers health" test_drain_refuses_work;
    case "metrics carries the serve counters" test_metrics_snapshot_keys;
    case "rid echoed on every envelope" test_rid_echo;
    case "metrics_prom method" test_metrics_prom_method;
    case "per-method latency histograms" test_per_method_latency;
    case "slow-request log with stage breakdown" test_slow_request_log;
    case "spd top sampling and rendering" test_top_sampling;
    case "health carries log counters" test_health_log_counters;
  ]
