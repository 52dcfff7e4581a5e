(** Validate that each file named on the command line is a complete
    JSON document, using the repository's own parser — the same one the
    test suite uses on trace and report output.  Documents carrying a
    known [schema] key ([spd-explain/1], [spd-micro/1],
    [spd-decisions/1], [spd-validate/1], [spd-cache/1], [spd-serve/1],
    [spd-log/1]) and JSON-RPC envelopes are additionally checked
    structurally.  Exits nonzero on the first malformed file (see
    [make check]). *)

module Json = Spd_telemetry.Json

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Structural checks for the schema-versioned documents *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let require_member name json =
  match Json.member name json with
  | Some v -> v
  | None -> bad "missing %S member" name

let require_int name json =
  match Json.to_number (require_member name json) with
  | Some v when Float.is_integer v -> int_of_float v
  | _ -> bad "%S is not an integer" name

let require_number name json =
  match Json.to_number (require_member name json) with
  | Some v -> v
  | None -> bad "%S is not a number" name

let require_string name json =
  match Json.to_string_opt (require_member name json) with
  | Some s -> s
  | None -> bad "%S is not a string" name

let require_list name json =
  match Json.to_list (require_member name json) with
  | Some l -> l
  | None -> bad "%S is not a list" name

(* the shared Table.to_json shape: id/title/columns/rows(+footers) *)
let check_table tbl =
  let (_ : string) = require_string "id" tbl in
  let columns = require_list "columns" tbl in
  let n = List.length columns in
  List.iter
    (fun row ->
      let (_ : string) = require_string "label" row in
      let cells = require_list "cells" row in
      if List.length cells <> n then
        bad "row %S has %d cells for %d columns"
          (require_string "label" row)
          (List.length cells) n)
    (require_list "rows" tbl
    @ Option.value ~default:[]
        (Option.bind (Json.member "footers" tbl) Json.to_list))

let check_explain doc =
  let (_ : string) = require_string "workload" doc in
  let (_ : int) = require_int "width" doc in
  let (_ : int) = require_int "mem_latency" doc in
  let (_ : int) = require_int "cycles" doc in
  let (_ : int) = require_int "traversals" doc in
  let tables = require_list "tables" doc in
  if tables = [] then bad "empty \"tables\" list";
  List.iter check_table tables

let check_micro doc =
  let (_ : int) = require_int "mem_latency" doc in
  let (_ : int) = require_int "width" doc in
  let (_ : float) = require_number "min_time" doc in
  let tables = require_list "tables" doc in
  if tables = [] then bad "empty \"tables\" list";
  List.iter check_table tables;
  let workloads = require_list "workloads" doc in
  if workloads = [] then bad "empty \"workloads\" list";
  List.iter
    (fun w ->
      let name = require_string "name" w in
      if require_int "cycles" w < 0 then bad "%s: negative cycles" name;
      if require_int "traversals" w <= 0 then bad "%s: no traversals" name;
      List.iter
        (fun stage ->
          let s = require_member stage w in
          let (_ : string) = require_string "units" s in
          let (_ : int) = require_int "units_per_iter" s in
          if require_int "iters" s <= 0 then
            bad "%s.%s: no iterations" name stage;
          if require_number "secs" s < 0.0 then
            bad "%s.%s: negative wall clock" name stage;
          if require_number "per_sec" s <= 0.0 then
            bad "%s.%s: non-positive throughput" name stage)
        [ "compile"; "schedule"; "simulate"; "e2e" ])
    workloads

(* spd-decisions/1: the guidance heuristic's decision ledger, in both
   its forms at once — aggregate counts plus per-tree decision lists —
   so the two cannot disagree. *)
let check_decision d =
  let (_ : int) = require_int "src" d in
  let (_ : int) = require_int "dst" d in
  let kind = require_string "kind" d in
  if not (List.mem kind [ "raw"; "war"; "waw" ]) then
    bad "unknown dependence kind %S" kind;
  (match require_member "ambiguity" d with
  | Json.Null | Json.String _ -> ()
  | _ -> bad "\"ambiguity\" is neither a string nor null");
  let (_ : float) = require_number "before" d in
  let (_ : float) = require_number "after" d in
  let (_ : float) = require_number "gain" d in
  let (_ : float) = require_number "min_gain" d in
  if require_int "tree_size" d < 1 then bad "tree_size < 1";
  if require_int "max_size" d < 1 then bad "max_size < 1";
  let profile = require_string "profile" d in
  if profile <> "profiled" && profile <> "uniform" then
    bad "unknown profile provenance %S" profile;
  let verdict = require_string "verdict" d in
  let rejected =
    String.length verdict > 9 && String.sub verdict 0 9 = "rejected:"
  in
  if verdict <> "applied" && not rejected then
    bad "malformed verdict %S" verdict;
  verdict

let check_decisions doc =
  let (_ : string) = require_string "workload" doc in
  let (_ : int) = require_int "mem_latency" doc in
  let candidates = require_int "candidates" doc in
  let applied = require_int "applied" doc in
  let rejected = require_int "rejected" doc in
  if applied < 0 || rejected < 0 then bad "negative counter";
  if candidates <> applied + rejected then
    bad "%d candidates but %d applied + %d rejected" candidates applied
      rejected;
  let rejections =
    match require_member "rejections" doc with
    | Json.Obj kvs -> kvs
    | _ -> bad "\"rejections\" is not an object"
  in
  let histogram_total =
    List.fold_left
      (fun acc (reason, v) ->
        if
          String.length reason <= 9 || String.sub reason 0 9 <> "rejected:"
        then bad "histogram key %S is not a rejection verdict" reason;
        match Json.to_number v with
        | Some n when Float.is_integer n -> acc + int_of_float n
        | _ -> bad "histogram count for %S is not an integer" reason)
      0 rejections
  in
  if histogram_total <> rejected then
    bad "rejection histogram sums to %d, not %d" histogram_total rejected;
  let trees = require_list "trees" doc in
  let counted =
    List.fold_left
      (fun (acc_total, acc_applied) tree ->
        let (_ : string) = require_string "func" tree in
        let (_ : int) = require_int "tree" tree in
        let n = require_int "candidates" tree in
        let decisions = require_list "decisions" tree in
        if List.length decisions <> n then
          bad "tree claims %d candidates but lists %d decisions" n
            (List.length decisions);
        let applied_here =
          List.fold_left
            (fun a d -> if check_decision d = "applied" then a + 1 else a)
            0 decisions
        in
        (acc_total + n, acc_applied + applied_here))
      (0, 0) trees
  in
  if fst counted <> candidates then
    bad "per-tree candidates sum to %d, not %d" (fst counted) candidates;
  if snd counted <> applied then
    bad "per-tree applied decisions sum to %d, not %d" (snd counted) applied

(* spd-validate/1: the translation-validation ledger — the top-level
   tally and the per-application verdict list must agree, and each
   verdict's evidence must match its shape (counterexample iff refuted,
   reason iff unknown). *)
let check_validate doc =
  let (_ : string) = require_string "workload" doc in
  let (_ : int) = require_int "mem_latency" doc in
  let applications = require_int "applications" doc in
  let proved = require_int "proved" doc in
  let refuted = require_int "refuted" doc in
  let unknown = require_int "unknown" doc in
  if proved < 0 || refuted < 0 || unknown < 0 then bad "negative tally";
  if applications <> proved + refuted + unknown then
    bad "%d applications but %d proved + %d refuted + %d unknown"
      applications proved refuted unknown;
  let verdicts = require_list "verdicts" doc in
  if List.length verdicts <> applications then
    bad "tally claims %d applications but lists %d verdicts" applications
      (List.length verdicts);
  let counted =
    List.fold_left
      (fun (p, r, u) v ->
        let (_ : string) = require_string "func" v in
        let (_ : int) = require_int "tree" v in
        let (_ : int) = require_int "src" v in
        let (_ : int) = require_int "dst" v in
        let kind = require_string "kind" v in
        if not (List.mem kind [ "raw"; "war"; "waw" ]) then
          bad "unknown dependence kind %S" kind;
        List.iter
          (fun key -> if require_int key v < 0 then bad "negative %S" key)
          [ "paths"; "splits"; "terms" ];
        List.iter
          (fun key ->
            if String.length (require_string key v) = 0 then
              bad "empty %S" key)
          [ "exit_digest"; "store_digest" ];
        let verdict = require_string "verdict" v in
        let reason = require_member "reason" v in
        let cx = require_member "counterexample" v in
        (match (verdict, reason, cx) with
        | "proved", Json.Null, Json.Null -> ()
        | "refuted", Json.Null, Json.Obj _ ->
            if require_int "seed" cx < 0 then bad "negative witness seed";
            (match require_member "inputs" cx with
            | Json.Obj _ -> ()
            | _ -> bad "counterexample \"inputs\" is not an object");
            if String.length (require_string "detail" cx) = 0 then
              bad "refutation without a detail"
        | "unknown", Json.String s, Json.Null ->
            if String.length s = 0 then bad "unknown verdict without a reason"
        | _ ->
            bad "verdict %S with mismatched reason/counterexample evidence"
              verdict);
        match verdict with
        | "proved" -> (p + 1, r, u)
        | "refuted" -> (p, r + 1, u)
        | _ -> (p, r, u + 1))
      (0, 0, 0) verdicts
  in
  if counted <> (proved, refuted, unknown) then
    bad "verdict list tallies do not match the document's counters"

(* spd-cache/1: the [spd cache stats --json] snapshot. *)
let check_cache doc =
  let (_ : string) = require_string "dir" doc in
  let (_ : string) = require_string "version" doc in
  if require_int "entries" doc < 0 then bad "negative entry count";
  if require_int "bytes" doc < 0 then bad "negative byte count";
  List.iter
    (fun key -> if require_int key doc < 0 then bad "negative %S" key)
    [ "hits"; "misses"; "evictions" ]

(* spd-serve/1: the daemon's own response documents, discriminated by
   their "kind" member *)
let check_serve doc =
  match require_string "kind" doc with
  | "ping" ->
      let (_ : string) = require_string "server" doc in
      let (_ : string) = require_string "version" doc in
      if require_list "methods" doc = [] then bad "empty \"methods\" list";
      if require_list "workloads" doc = [] then
        bad "empty \"workloads\" list";
      if require_list "artefacts" doc = [] then
        bad "empty \"artefacts\" list"
  | "query" -> (
      let (_ : string) = require_string "key" doc in
      match require_member "ok" doc with
      | Json.Bool true ->
          if Json.member "value" doc = None then
            bad "ok query without a \"value\""
      | Json.Bool false ->
          let (_ : string) = require_string "error" doc in
          if require_int "attempts" doc < 1 then bad "attempts < 1"
      | _ -> bad "\"ok\" is not a boolean")
  | "run" ->
      let (_ : string) = require_string "pipeline" doc in
      let (_ : string) = require_string "machine" doc in
      if require_int "cycles" doc < 0 then bad "negative cycles";
      if require_int "traversals" doc <= 0 then bad "no traversals";
      let (_ : string) = require_string "return" doc in
      if require_int "code_size" doc <= 0 then bad "no code"
  | "stats" ->
      if require_int "jobs" doc < 1 then bad "jobs < 1";
      let (_ : Json.t) = require_member "counters" doc in
      let (_ : Json.t list) = require_list "failures" doc in
      if require_int "served" doc < 0 then bad "negative served count"
  | "shutdown" -> (
      match require_member "stopping" doc with
      | Json.Bool _ -> ()
      | _ -> bad "\"stopping\" is not a boolean")
  | "health" ->
      if require_int "workers" doc < 1 then bad "workers < 1";
      List.iter
        (fun key ->
          if require_int key doc < 0 then bad "negative %S" key)
        [
          "workers_alive"; "worker_restarts"; "in_flight";
          "active_connections"; "pending_connections"; "conn_timeouts";
          "admission_rejected"; "log_records"; "log_dropped"; "served";
        ];
      if require_number "uptime_seconds" doc < 0.0 then
        bad "negative uptime";
      (match require_member "draining" doc with
      | Json.Bool _ -> ()
      | _ -> bad "\"draining\" is not a boolean")
  | "metrics_prom" ->
      let ct = require_string "content_type" doc in
      if ct <> "text/plain; version=0.0.4" then
        bad "unexpected content_type %S" ct;
      if String.length (require_string "text" doc) = 0 then
        bad "empty exposition text"
  | kind -> bad "unknown spd-serve/1 kind %S" kind

(* A raw JSON-RPC error envelope, as the daemon's load-shedding paths
   emit it: the [server busy] refusal must carry its retry hint, the
   [server shutting down] refusal must not claim success. *)
let check_rpc_error doc =
  if require_string "jsonrpc" doc <> "2.0" then bad "jsonrpc is not 2.0";
  if Json.member "result" doc <> None then
    bad "error envelope also carries a result";
  let err = require_member "error" doc in
  let code = require_int "code" err in
  let (_ : string) = require_string "message" err in
  if code = -32001 then begin
    let data = require_member "data" err in
    if require_int "retry_after_ms" data < 1 then
      bad "server busy without a usable retry_after_ms"
  end

(* Any JSON-RPC envelope a live daemon emitted (success or error) must
   echo a server-assigned request id. *)
let check_rpc_envelope doc =
  if require_string "jsonrpc" doc <> "2.0" then bad "jsonrpc is not 2.0";
  if String.length (require_string "rid" doc) = 0 then bad "empty rid";
  if Json.member "error" doc <> None then check_rpc_error doc
  else if Json.member "result" doc = None then
    bad "envelope has neither result nor error"

(* One spd-log/1 record: the reserved members, with a sane level and a
   plausible wall-clock timestamp. *)
let log_levels = [ "error"; "warn"; "info"; "debug" ]

let check_log_record doc =
  if require_string "schema" doc <> "spd-log/1" then
    bad "schema is not spd-log/1";
  if require_number "ts" doc < 1e9 then bad "implausible \"ts\"";
  let level = require_string "level" doc in
  if not (List.mem level log_levels) then bad "unknown level %S" level;
  if String.length (require_string "event" doc) = 0 then bad "empty event";
  if require_int "domain" doc < 0 then bad "negative domain id"

(* A .jsonl file is a stream of spd-log/1 records, one per line. *)
let check_log_lines path text =
  let n = ref 0 in
  List.iteri
    (fun i line ->
      if String.trim line <> "" then begin
        incr n;
        match Json.of_string line with
        | Error e -> bad "line %d: %s" (i + 1) e
        | Ok doc -> (
            try check_log_record doc
            with Bad msg -> bad "line %d: %s" (i + 1) msg)
      end)
    (String.split_on_char '\n' text);
  if !n = 0 then bad "%s: no log records" path

let check_schema doc =
  match Option.bind (Json.member "schema" doc) Json.to_string_opt with
  | Some "spd-explain/1" -> check_explain doc; Some "spd-explain/1"
  | Some "spd-micro/1" -> check_micro doc; Some "spd-micro/1"
  | Some "spd-decisions/1" -> check_decisions doc; Some "spd-decisions/1"
  | Some "spd-validate/1" -> check_validate doc; Some "spd-validate/1"
  | Some "spd-cache/1" -> check_cache doc; Some "spd-cache/1"
  | Some "spd-serve/1" -> check_serve doc; Some "spd-serve/1"
  | Some "spd-log/1" -> check_log_record doc; Some "spd-log/1"
  | _ ->
      if
        Json.member "jsonrpc" doc <> None
        && (Json.member "result" doc <> None
           || Json.member "error" doc <> None)
      then begin
        check_rpc_envelope doc;
        Some "jsonrpc envelope"
      end
      else None

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  if files = [] then begin
    prerr_endline "usage: json_lint FILE...";
    exit 2
  end;
  List.iter
    (fun path ->
      (* .jsonl files are structured-log streams: validate every line *)
      if Filename.check_suffix path ".jsonl" then begin
        match check_log_lines path (slurp path) with
        | () -> Printf.printf "json_lint: %s ok (spd-log/1 lines)\n" path
        | exception Bad msg ->
            Printf.eprintf "json_lint: %s: %s\n" path msg;
            exit 1
      end
      else
        match Spd_telemetry.Json.of_string (slurp path) with
        | Error e ->
            Printf.eprintf "json_lint: %s: %s\n" path e;
            exit 1
        | Ok doc -> (
            match check_schema doc with
            | Some schema ->
                Printf.printf "json_lint: %s ok (%s)\n" path schema
            | None -> Printf.printf "json_lint: %s ok\n" path
            | exception Bad msg ->
                Printf.eprintf "json_lint: %s: %s\n" path msg;
                exit 1))
    files
