(** paper-cold and paper-warm: [spd report]'s paper set (table6_1 …
    fig6_4) rendered to JSON from a fresh engine session, the way the
    CLI does it, with two domains and a disk cache. *)

module Json = Spd_telemetry.Json
module Engine = Spd_harness.Engine
module Artefact = Spd_harness.Artefact
open Workload

let jobs = 2
let arts () = Artefact.of_names Artefact.paper_set

(** The paper-set artefacts of the committed [BENCH_REPORT.json], as
    the text a fresh report must reproduce byte for byte. *)
let expected_artefacts () =
  let doc = Util.parse_json_file "BENCH_REPORT.json" in
  let all =
    Option.value ~default:[] (Option.bind (Json.member "artefacts" doc) Json.to_list)
  in
  let find name =
    match
      List.find_opt
        (fun a -> Json.member "name" a = Some (Json.String name))
        all
    with
    | Some a -> a
    | None -> failwith ("BENCH_REPORT.json lacks artefact " ^ name)
  in
  Json.to_string (Json.List (List.map find Artefact.paper_set))

(* One report: a fresh session over [cache_dir], every paper artefact
   built and rendered, the session closed. *)
let report ~arts ~cache_dir =
  span "op" (fun () ->
      let session =
        Engine.Session.create ~jobs ~disk_cache:true ~cache_dir ()
      in
      Fun.protect
        ~finally:(fun () -> Engine.Session.close session)
        (fun () ->
          let doc =
            span "harness.render" (fun () -> Artefact.to_json ~session arts)
          in
          let text = span "harness.render" (fun () -> Json.to_string doc) in
          (doc, text, Engine.Session.failures session)))

let instance ~fresh_cache ~cache_dir =
  let arts = arts () in
  let expected = expected_artefacts () in
  let bytes = ref 0 in
  let step () =
    if fresh_cache then Util.rm_rf cache_dir;
    let (doc, text, failures), secs =
      Util.timed (fun () -> report ~arts ~cache_dir)
    in
    bytes := !bytes + String.length text;
    let tables =
      Option.fold ~none:"" ~some:Json.to_string (Json.member "artefacts" doc)
    in
    { kind = "report"; secs; ok = failures = [] && tables = expected }
  in
  {
    jobs;
    loop = (fun ~until ~max_ops -> closed_loop ~until ~max_ops step);
    counters =
      (fun () ->
        ("harness.render.bytes", float_of_int !bytes) :: local_metrics ());
    verify = (fun () -> (0, []));
    daemon_pid = None;
    close = (fun () -> ());
  }

let cold =
  {
    name = "paper-cold";
    op = "report";
    remote = false;
    traced_ops = 5;
    setup =
      (fun ~seed:_ ~trace:_ ->
        sequential_pass ();
        instance ~fresh_cache:true ~cache_dir:(Util.in_work_dir "cold-cache"));
  }

let warm =
  {
    name = "paper-warm";
    op = "report";
    remote = false;
    traced_ops = 200;
    setup =
      (fun ~seed:_ ~trace:_ ->
        sequential_pass ();
        let dir = Util.in_work_dir "warm-cache" in
        Util.rm_rf dir;
        let _, _, failures = report ~arts:(arts ()) ~cache_dir:dir in
        if failures <> [] then failwith "paper-warm: filling the cache failed";
        instance ~fresh_cache:false ~cache_dir:dir);
  }
