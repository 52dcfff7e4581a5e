(** Golden corpora.

    Every paper workload's SPEC program is scheduled at each corpus
    width and rendered as cycle-by-FU occupancy grids
    ({!Golden_render}); the result must be byte-identical to the file
    committed under [test/golden/].  This pins the scheduler's {e exact}
    packing decisions — not just validity — so any change to DDG
    construction, heap priorities or tie-breaking shows up as a
    readable grid diff.  After an intentional change, re-bless with
    [make golden-promote] and commit the diff.

    [documents.txt] pins every [spd why], [spd validate] and
    [spd explain] document (at widths 1, 5 and 8) of every paper
    workload plus matmul300 at both memory latencies, by a rollup and
    the MD5 of each JSON document, and the report artefacts that
    [BENCH_REPORT.json] leaves out ({!Golden_render.render_documents}).
    A failure names the workload and latency, or the artefact, and the
    first field that moved.

    The committed [BENCH_REPORT.json] is the last corpus: every
    artefact of [spd report all], rendered in process from a fresh
    session without a disk cache, must equal its artefacts and
    failures.  After an intentional change, regenerate it with
    [make bench-json]. *)

module Json = Spd_telemetry.Json
module Artefact = Spd_harness.Artefact
module Engine = Spd_harness.Engine

let case name f = Alcotest.test_case name `Quick f

let check_workload workload width () =
  let path = Filename.concat "golden" (Golden_render.file_name ~workload ~width) in
  Option.iter Alcotest.fail
    (Golden_render.drift ~what:"schedule" path
       (Golden_render.render ~workload ~width))

let check_documents () =
  Option.iter Alcotest.fail
    (Golden_render.drift ~what:"documents"
       (Filename.concat "golden" Golden_render.documents_file)
       (Golden_render.render_documents ()))

let member name doc =
  match Json.member name doc with
  | Some v -> v
  | None -> Alcotest.failf "report document lacks %S" name

let artefacts doc =
  List.map
    (fun a ->
      match Option.bind (Json.member "name" a) Json.to_string_opt with
      | Some name -> (name, Json.to_string a)
      | None -> Alcotest.fail "an artefact without a name")
    (Option.value ~default:[] (Json.to_list (member "artefacts" doc)))

let check_bench_report () =
  let expected =
    match
      Json.of_string (In_channel.with_open_bin "../BENCH_REPORT.json" In_channel.input_all)
    with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "BENCH_REPORT.json: %s" e
  in
  let rendered =
    Engine.Session.with_session (Engine.Session.create ~jobs:1 ()) (fun session ->
        Artefact.to_json ~session
          (Artefact.of_names (Artefact.paper_set @ Artefact.extension_set)))
  in
  let want = artefacts expected and got = artefacts rendered in
  Alcotest.(check (list string)) "artefact names" (List.map fst want)
    (List.map fst got);
  List.iter
    (fun (name, text) ->
      if List.assoc name got <> text then
        Alcotest.failf "artefact %s differs from BENCH_REPORT.json" name)
    want;
  Alcotest.(check string) "failures"
    (Json.to_string (member "failures" expected))
    (Json.to_string (member "failures" rendered))

let tests =
  List.concat_map
    (fun workload ->
      List.map
        (fun width ->
          case
            (Printf.sprintf "%s @ %d FUs matches golden grid" workload width)
            (check_workload workload width))
        Golden_render.widths)
    Spd_workloads.Registry.names
  @ [
      case "why, validate, explain and artefact digests match documents.txt"
        check_documents;
      case "every BENCH_REPORT.json artefact renders equal" check_bench_report;
    ]
