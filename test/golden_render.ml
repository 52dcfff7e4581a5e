(** Shared renderer for the golden corpus.

    One text document per (workload, width): every tree of the SPEC
    pipeline's program rendered as a cycle-by-FU occupancy grid.  The
    test suite ([test_golden]) diffs fresh renderings against the files
    committed under [test/golden/]; [make golden-promote] regenerates
    the files with the same renderer, so an intentional scheduler change
    is a one-command re-bless while an accidental one fails [dune
    runtest] with a readable grid diff.  Two further documents pin what
    the grids do not: [validate.txt], the translation validator's
    ledger ([test_validate] diffs it the same way), and
    [documents.txt], a rollup and digest of every [spd why],
    [spd validate] and [spd explain] document and of the report
    artefacts no other test pins ([test_golden]).

    The rendering must stay byte-deterministic: trees in program order,
    fixed-width columns sized from the grid's own labels, no timestamps
    or floats. *)

module Json = Spd_telemetry.Json
module Pipeline = Spd_harness.Pipeline
module Engine = Spd_harness.Engine
module Artefact = Spd_harness.Artefact
module Table = Spd_harness.Table
module Why = Spd_harness.Why
module Validation = Spd_harness.Validation
module Explain = Spd_harness.Explain
module Schedule = Spd_machine.Schedule
module Descr = Spd_machine.Descr

(** The workloads and memory latencies of the ledger and document
    corpora: every paper workload plus matmul300, at both paper
    latencies. *)
let corpus_workloads = Spd_workloads.Registry.names @ [ "matmul300" ]

let latencies = [ 2; 6 ]

(** The corpus parameters: every paper workload, at a narrow and the
    paper's 5-FU width, 2-cycle memory. *)
let widths = [ 2; 5 ]

let mem_latency = 2
let file_name ~workload ~width = Printf.sprintf "%s.w%d.txt" workload width

let render_tree buf ~func (s : Schedule.t) =
  let tree = s.Schedule.ddg.Spd_analysis.Ddg.tree in
  Printf.bprintf buf "== %s / tree %d (%s): length %d, span %d\n" func
    tree.Spd_ir.Tree.id tree.Spd_ir.Tree.name s.Schedule.length
    s.Schedule.span;
  let grid = Schedule.occupancy s in
  let n_fus = Schedule.n_fus s in
  let label = function
    | None -> "."
    | Some node -> Schedule.node_label s node
  in
  (* column width: widest label in this grid, so the file is stable
     under unrelated edits and readable as-is *)
  let w =
    Array.fold_left
      (fun acc row ->
        Array.fold_left
          (fun acc cell -> max acc (String.length (label cell)))
          acc row)
      1 grid
  in
  Array.iteri
    (fun cycle row ->
      let line = Buffer.create 80 in
      Printf.bprintf line "%4d |" cycle;
      for fu = 0 to n_fus - 1 do
        let cell = if fu < Array.length row then row.(fu) else None in
        Printf.bprintf line " %-*s" w (label cell)
      done;
      (* trailing spaces would be invisible in diffs; trim them *)
      let s = Buffer.contents line in
      let n = String.length s in
      let rec last i = if i > 0 && s.[i - 1] = ' ' then last (i - 1) else i in
      Buffer.add_string buf (String.sub s 0 (last n));
      Buffer.add_char buf '\n')
    grid

let render ~workload ~width : string =
  let w = Spd_workloads.Registry.by_name workload in
  let prepared =
    Pipeline.prepare
      ~config:(Pipeline.Config.v ~check:false ~mem_latency ())
      Pipeline.Spec
      (Spd_lang.Lower.compile w.Spd_workloads.Workload.source)
  in
  let descr = { Descr.width = Descr.Fus width; mem_latency } in
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "# golden schedule: %s, %d FUs, mem latency %d, SPEC pipeline\n"
    workload width mem_latency;
  Spd_ir.Prog.iter_trees
    (fun func tree -> render_tree buf ~func (Schedule.of_tree ~descr tree))
    prepared.Pipeline.prog;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Diffing a rendering against its golden file *)

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* first differing line, so a failure names the tree or application *)
let first_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go n = function
    | x :: xs, y :: ys when String.equal x y -> go (n + 1) (xs, ys)
    | x :: _, y :: _ -> Some (n, x, y)
    | [], y :: _ -> Some (n, "<end of golden file>", y)
    | x :: _, [] -> Some (n, x, "<end of rendering>")
    | [], [] -> None
  in
  go 1 (la, lb)

(* first differing space-separated field of two lines, so a failure on
   a long [key=value] line names the value that moved *)
let first_field_diff a b =
  let fields s = List.filter (( <> ) "") (String.split_on_char ' ' s) in
  let rec go = function
    | x :: xs, y :: ys when String.equal x y -> go (xs, ys)
    | x :: _, y :: _ -> Some (x, y)
    | x :: _, [] -> Some (x, "<none>")
    | [], y :: _ -> Some ("<none>", y)
    | [], [] -> None
  in
  go (fields a, fields b)

(** [None] when [got] is byte-identical to the golden file at [path];
    otherwise the failure message, naming the first differing line and
    its first differing field. *)
let drift ~what path got =
  if not (Sys.file_exists path) then
    Some
      (Printf.sprintf "%s missing — run `make golden-promote` and commit" path)
  else
    match first_diff (slurp path) got with
    | None -> None
    | Some (line, want, have) ->
        let field =
          match first_field_diff want have with
          | Some (w, h) -> Printf.sprintf "  field:  %s -> %s\n" w h
          | None -> ""
        in
        Some
          (Printf.sprintf
             "%s drifted from %s at line %d:\n  golden: %s\n  got:    %s\n\
              %sIf the change is intentional, re-bless with `make \
              golden-promote`."
             what path line want have field)

(* ------------------------------------------------------------------ *)
(* The validation ledger *)

(** Every SpD application the heuristic performs on [src], as
    [(func, before, application, after)] in application order: the
    SPEC chain (forwarding, arc annotation, static disambiguation, the
    NAIVE profile) with a recording checker. *)
let spec_pairs ?(mem_latency = 2) src =
  let lowered = Spd_lang.Lower.compile src in
  let cleaned = Spd_analysis.Forwarding.run lowered in
  let naive = Spd_analysis.Memarcs.annotate cleaned in
  let static = Spd_disambig.Static_disambig.run naive in
  let profile = Pipeline.profile_of static in
  let pairs = ref [] in
  let checker ~func ~before app after =
    pairs := (func, before, app, after) :: !pairs
  in
  ignore (Spd_core.Heuristic.run ~profile ~checker ~mem_latency static);
  List.rev !pairs

let validate_file = "validate.txt"

(** One line per SpD application of every paper workload plus
    matmul300, at both paper memory latencies: workload, latency,
    function, tree, arc, kind, verdict, the exploration statistics and
    both digests, then the corpus totals.  Pins the validator's
    exploration exactly: the digests cover every path's assumption set
    in DFS order. *)
let render_validate () : string =
  let module V = Spd_validate.Validate in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    "# golden validation ledger: every SpD application, SPEC heuristic\n\
     # workload latency func tree src->dst kind verdict paths splits terms \
     exit_digest store_digest\n";
  let apps = ref 0 and paths = ref 0 and splits = ref 0 and terms = ref 0 in
  List.iter
    (fun workload ->
      let src =
        (Spd_workloads.Registry.by_name workload).Spd_workloads.Workload.source
      in
      List.iter
        (fun mem_latency ->
          List.iter
            (fun (func, before, app, after) ->
              let r = V.check_application ~func ~before app after in
              let s = r.V.stats in
              incr apps;
              paths := !paths + s.V.paths;
              splits := !splits + s.V.splits;
              terms := !terms + s.V.terms;
              Printf.bprintf buf "%s %d %s %d %d->%d %s %s %d %d %d %s %s\n"
                workload mem_latency func r.V.tree_id (fst r.V.arc)
                (snd r.V.arc)
                (Spd_harness.Why.kind_name r.V.kind)
                (Spd_validate.Verdict.name r.V.verdict)
                s.V.paths s.V.splits s.V.terms r.V.exit_digest
                r.V.store_digest)
            (spec_pairs ~mem_latency src))
        latencies)
    corpus_workloads;
  Printf.bprintf buf
    "# total: %d applications, %d paths, %d splits, %d terms\n" !apps !paths
    !splits !terms;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The why, validate and explain documents *)

let documents_file = "documents.txt"

(** The [spd explain] widths the corpus pins: one FU, the paper's 5 and
    the widest Figure 6-3 machine. *)
let explain_widths = [ 1; 5; 8 ]

(* what `spd ... --format json | head -c -1 | md5sum` prints *)
let md5 json = Digest.to_hex (Digest.string (Json.to_string json))

let document_line buf session ~workload ~mem_latency =
  let why = Why.analyze ~mem_latency session workload in
  let validation = Validation.analyze ~mem_latency session workload in
  let explains =
    List.map
      (fun width ->
        (width, Explain.analyze ~width ~mem_latency session workload))
      explain_widths
  in
  let proved, refuted, unknown =
    Spd_validate.Validate.tally validation.Validation.reports
  in
  let ds = why.Why.decisions in
  Printf.bprintf buf "%s %d candidates=%d applied=%d verdicts=%d/%d/%d"
    workload mem_latency (List.length ds)
    (List.length (Spd_core.Heuristic.applied_decisions ds))
    proved refuted unknown;
  List.iter
    (fun (width, e) ->
      Printf.bprintf buf " cycles.w%d=%d" width e.Explain.total_cycles)
    explains;
  Printf.bprintf buf " why=%s validate=%s"
    (md5 (Why.to_json why))
    (md5 (Validation.to_json validation));
  List.iter
    (fun (width, e) ->
      Printf.bprintf buf " explain.w%d=%s" width (md5 (Explain.to_json e)))
    explains;
  Buffer.add_char buf '\n'

(** One line per corpus workload and latency: a rollup (ledger
    candidates, applied SpD count, verdict tally proved/refuted/unknown,
    SPEC cycles at each explain width), then the MD5 of the [spd why],
    the [spd validate] and each [spd explain] JSON document, built by
    the [analyze] and [to_json] the CLI and the daemon call.  Then one
    line per registry artefact no other golden file pins (outside the
    paper and extension sets, wall-clock [timings] aside) with the MD5
    of its tables as [spd report NAME --format json] lists them.  All
    from one fresh single-domain session without a disk cache. *)
let render_documents () : string =
  let pinned = Artefact.paper_set @ Artefact.extension_set in
  let unpinned =
    List.filter
      (fun name -> name <> "timings" && not (List.mem name pinned))
      (Artefact.names ())
  in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    "# golden documents: spd why, validate and explain as JSON (MD5) per \
     workload and memory latency, then the report artefacts no other \
     golden file pins\n\
     # workload latency candidates applied verdicts=proved/refuted/unknown \
     cycles.wN why validate explain.wN\n";
  Engine.Session.with_session
    (Engine.Session.create ~jobs:1 ~disk_cache:false ())
    (fun session ->
      List.iter
        (fun workload ->
          List.iter
            (fun mem_latency ->
              document_line buf session ~workload ~mem_latency)
            latencies)
        corpus_workloads;
      List.iter
        (fun (a : Artefact.t) ->
          Printf.bprintf buf "artefact %s md5=%s\n" a.name
            (md5 (Json.List (List.map Table.to_json (a.tables session)))))
        (Artefact.of_names unpinned));
  Buffer.contents buf
