(** The serve workloads: a real [spd serve --workers 2 --jobs 2
    --no-cache] child on a Unix socket, driven by two connections in a
    closed loop, one domain each.  The loop is closed because daemon
    callers ([spd call], CI) wait for each reply.

    No recorded daemon traffic exists, so no workload mixes methods by
    weight.  Three workloads send one method each on both connections
    ([query], [report], [validate]), and [serve-contended] puts
    uncached [run]s on one connection beside [query] on the other: the
    queries are the timed operations, the runs the load that competes
    with them for the daemon's workers. *)

module Json = Spd_telemetry.Json
module Protocol = Spd_serve.Protocol
module Pipeline = Spd_harness.Pipeline
module Report = Spd_harness.Report
module W = Spd_workloads
open Workload

(* The cycle cells the paper report computes: every program and
   pipeline on the 5-FU machine, and Figure 6-3's widths for STATIC
   and SPEC on the NRC programs.  The warm-up report fills them all,
   so queries read memoized cells. *)
let query_cells =
  let open Report in
  let cells ps kinds ws =
    List.concat_map
      (fun bench ->
        List.concat_map
          (fun latency ->
            List.concat_map
              (fun kind -> List.map (fun w -> (bench, latency, kind, w)) ws)
              kinds)
          latencies)
      ps
  in
  List.sort_uniq compare
    (cells (benches ()) Pipeline.all [ 5 ]
    @ cells (nrc_benches ()) [ Pipeline.Static; Pipeline.Spec ] (widths ()))
  |> Array.of_list

let programs = Array.of_list W.Registry.all
let validate_latencies = [| 2; 6 |]

let query_params (bench, latency, kind, width) =
  Json.Obj
    [
      ("bench", Json.String bench);
      ("latency", Json.Int latency);
      ("artefact", Json.String "cycles");
      ("pipeline", Json.String (String.lowercase_ascii (Pipeline.name kind)));
      ("width", Json.Int width);
    ]

let validate_params bench latency =
  Json.Obj [ ("workload", Json.String bench); ("mem_latency", Json.Int latency) ]

(* A request: its method, its parameters, and for a [run] the program
   whose source it carries. *)
type request = string * Json.t * string option

let pick rng a = a.(Random.State.int rng (Array.length a))
let query rng : request = ("query", query_params (pick rng query_cells), None)
let report _ : request = ("report", Json.Obj [], None)

let validate rng : request =
  let w = pick rng programs in
  ("validate", validate_params w.name (pick rng validate_latencies), None)

let run rng : request =
  let w = pick rng programs in
  ("run", Json.Obj [ ("source", Json.String w.source) ], Some w.name)

let str k j = Option.bind (Json.member k j) Json.to_string_opt

(* What one connection saw, checked against the references after the
   window: every value each query key returned, and every distinct
   return value and output of each program's runs. *)
type seen = {
  values : (string * string, unit) Hashtbl.t;
  runs : (string * string * string list, unit) Hashtbl.t;
}

let validate_ok resp =
  let n k = Option.bind (Json.member k resp) Json.to_number in
  n "refuted" = Some 0. && n "unknown" = Some 0. && n "proved" = n "applications"

(* Checks that can be made on the spot; [seen] collects the rest. *)
let check ~expected ~seen meth program (resp : Json.t) =
  match meth with
  | "query" -> (
      match (str "key" resp, Json.member "value" resp) with
      | Some key, Some v when Json.member "ok" resp = Some (Json.Bool true) ->
          Hashtbl.replace seen.values (key, Json.to_string v) ();
          true
      | _ -> false)
  | "report" ->
      Option.map Json.to_string (Json.member "artefacts" resp) = Some expected
  | "validate" -> validate_ok resp
  | _ -> (
      let output =
        Option.bind (Json.member "output" resp) Json.to_list
        |> Option.map (List.filter_map Json.to_string_opt)
      in
      match (program, str "return" resp, output) with
      | Some name, Some ret, Some output ->
          Hashtbl.replace seen.runs (name, ret, output) ();
          true
      | _ -> false)

let connect addr =
  let deadline = Spd_telemetry.Clock.now () +. 20. in
  let rec go () =
    match Protocol.connect addr with
    | Ok c -> c
    | Error e when Spd_telemetry.Clock.now () > deadline ->
        failwith ("serve: daemon did not start: " ^ e)
    | Error _ ->
        Unix.sleepf 0.005;
        go ()
  in
  go ()

(* Set-up requests, sent one at a time before the window. *)
type warm_up = Fill_report | Every_validation

let daemons = ref 0

let setup ~name ~clients ~warm_up ~seed ~trace =
  let call c meth params =
    match Protocol.call c meth params with
    | Ok r -> r
    | Error e -> failwith (Printf.sprintf "%s: %s: %s" name meth e)
  in
  incr daemons;
  let sock = Util.in_work_dir (Printf.sprintf "serve.%d.sock" !daemons) in
  Util.rm_rf sock;
  let log =
    Unix.openfile
      (Util.in_work_dir (name ^ ".daemon.log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let pid =
    Util.spawn ~stdout:log ~stderr:log
      (Array.of_list
         ([ Util.spd_exe (); "serve"; "--socket"; sock; "--workers"; "2";
            "--jobs"; "2"; "--no-cache" ]
         @
         if trace then [ "--trace"; Util.in_work_dir (name ^ ".daemon.trace.json") ]
         else []))
  in
  Unix.close log;
  let addr = Protocol.Unix_path sock in
  let conns = Array.map (fun _ -> connect addr) clients in
  (* One query per pipeline kind and one validation, sent one at a
     time, force the lazily registered metrics before any request fans
     out over the daemon's pool (see [Workload.sequential_pass]). *)
  List.iter
    (fun kind -> ignore (call conns.(0) "query" (query_params ("moment", 2, kind, 5))))
    Pipeline.all;
  ignore (call conns.(0) "validate" (validate_params "moment" 2));
  let expected = Paper.expected_artefacts () in
  (match warm_up with
  | Fill_report ->
      (* fills every cell the queries read *)
      if
        Option.map Json.to_string
          (Json.member "artefacts" (call conns.(0) "report" (Json.Obj [])))
        <> Some expected
      then failwith (name ^ ": warm-up report differs from BENCH_REPORT.json")
  | Every_validation ->
      Array.iter
        (fun (w : W.Workload.t) ->
          Array.iter
            (fun l ->
              let resp = call conns.(0) "validate" (validate_params w.name l) in
              if not (validate_ok resp) then
                failwith (name ^ ": warm-up validation of " ^ w.name ^ " not proved"))
            validate_latencies)
        programs);
  let seens =
    Array.map
      (fun _ -> { values = Hashtbl.create 256; runs = Hashtbl.create 16 })
      clients
  in
  let rngs = Array.mapi (fun i _ -> Random.State.make [| seed; i |]) clients in
  let step i () =
    let meth, params, program = (fst clients.(i)) rngs.(i) in
    let resp, secs =
      Util.timed (fun () ->
          span ("rpc." ^ meth) (fun () -> Protocol.call_ex conns.(i) meth params))
    in
    let ok =
      match resp with
      | Ok r -> check ~expected ~seen:seens.(i) meth program r
      | Error (Protocol.Rpc _) -> false
      | Error (Protocol.Transport _) ->
          (* the conversation is gone; carry on over a new one *)
          Protocol.close conns.(i);
          conns.(i) <- connect addr;
          false
    in
    { kind = meth; secs; ok }
  in
  (* Timed connections share [max_ops] and stop at the deadline; a load
     connection keeps sending until the last timed one has stopped. *)
  let loop ~until ~max_ops =
    let timed = Array.to_list clients |> List.filter snd |> List.length in
    let max_ops = max 1 (max_ops / timed) in
    let stop = Atomic.make false in
    let drive i () =
      if snd clients.(i) then closed_loop ~until ~max_ops (step i)
      else
        let rec go acc =
          if Atomic.get stop then List.rev acc else go (step i () :: acc)
        in
        go []
    in
    let others =
      List.init (Array.length clients - 1) (fun i -> Domain.spawn (drive (i + 1)))
    in
    let mine = drive 0 () in
    Atomic.set stop true;
    mine @ List.concat_map Domain.join others
  in
  let verify () =
    let values = Hashtbl.create 256 in
    let runs = Hashtbl.create 16 in
    Array.iter
      (fun s ->
        Hashtbl.iter (fun kv () -> Hashtbl.replace values kv ()) s.values;
        Hashtbl.iter (fun k () -> Hashtbl.replace runs k ()) s.runs)
      seens;
    let keys = Hashtbl.create 256 in
    let failures = ref [] in
    Hashtbl.iter
      (fun (k, _) () ->
        if Hashtbl.mem keys k then
          failures := ("query " ^ k ^ " returned different values") :: !failures
        else Hashtbl.replace keys k ())
      values;
    let pp_value = Fmt.str "%a" Spd_ir.Value.pp in
    Hashtbl.iter
      (fun (name, ret, output) () ->
        let w = W.Registry.by_name name in
        let ret', output' =
          Spd_sim.Interp.observe (Spd_lang.Lower.compile w.source)
        in
        if ret <> pp_value ret' || output <> List.map pp_value output' then
          failures := ("run of " ^ name ^ " differs from its source") :: !failures)
      runs;
    (Hashtbl.length keys + Hashtbl.length runs, !failures)
  in
  let closed = ref false in
  let close () =
    if not !closed then begin
      closed := true;
      ignore (Protocol.call conns.(0) "shutdown" (Json.Obj []));
      Array.iter Protocol.close conns;
      match Util.reap_within ~timeout:20. pid with
      | Unix.WEXITED 0 -> ()
      | _ -> failwith (name ^ ": daemon did not shut down cleanly")
    end
  in
  {
    jobs = 2;
    loop;
    counters = (fun () -> flatten_metrics (call conns.(0) "metrics" (Json.Obj [])));
    verify;
    daemon_pid = Some pid;
    close;
  }

(* [clients]: per connection, its request stream and whether its
   requests are the timed operations (the rest is load). *)
let workload ~name ~op ~clients ~warm_up ~traced_ops =
  { name; op; remote = true; traced_ops; setup = setup ~name ~clients ~warm_up }

let query_w =
  workload ~name:"serve-query" ~op:"query"
    ~clients:[| (query, true); (query, true) |]
    ~warm_up:Fill_report ~traced_ops:4000

let report_w =
  workload ~name:"serve-report" ~op:"report"
    ~clients:[| (report, true); (report, true) |]
    ~warm_up:Fill_report ~traced_ops:400

let validate_w =
  workload ~name:"serve-validate" ~op:"validate"
    ~clients:[| (validate, true); (validate, true) |]
    ~warm_up:Every_validation ~traced_ops:1000

(* The query connection is the main domain's, so the loop ends with
   it.  The traced queries span about a second, so that the trace holds
   some tens of runs. *)
let contended =
  workload ~name:"serve-contended" ~op:"query"
    ~clients:[| (query, true); (run, false) |]
    ~warm_up:Fill_report ~traced_ops:40000
