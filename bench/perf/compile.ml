(** compile: the SPEC compile chain, one public function at a time,
    sequentially, with the simulator out of the loop.  An operation is
    one pass over 12 programs × {2,6}-cycle memory × {plain, grafted}
    in a seeded order. *)

module W = Spd_workloads
module Prog = Spd_ir.Prog
module Static = Spd_disambig.Static_disambig
module Heuristic = Spd_core.Heuristic
module Validate = Spd_validate.Validate
module Descr = Spd_machine.Descr
open Workload

type chain = {
  program : W.Workload.t;
  latency : int;
  graft : bool;
  profile : Spd_sim.Profile.t;  (** of the STATIC program, from setup *)
}

let programs = W.Registry.all @ W.Registry.extras
let widths = List.init 8 (fun i -> Descr.Fus (i + 1))

let sum_trees f prog =
  let n = ref 0 in
  Prog.iter_trees (fun _ t -> n := !n + f t) prog;
  !n

let front ~graft source =
  let p = Spd_analysis.Forwarding.run (Spd_lang.Lower.compile source) in
  let p = if graft then Spd_analysis.Unroll.run p else p in
  Static.run (Spd_analysis.Memarcs.annotate p)

(* The chain of [Pipeline.prepare] for SPEC, each layer called and
   timed from here.  Only plain programs are validated, as in
   [spd report --validate]. *)
let compile ~count c =
  let lowered =
    span "lang.lower" (fun () -> Spd_lang.Lower.compile c.program.source)
  in
  count "lang.lower.ops" (Prog.code_size lowered);
  let p = span "analysis.forwarding" (fun () -> Spd_analysis.Forwarding.run lowered) in
  let p =
    if not c.graft then p
    else begin
      let u = span "analysis.unroll" (fun () -> Spd_analysis.Unroll.run p) in
      count "analysis.unroll.ops_added" (Prog.code_size u - Prog.code_size p);
      u
    end
  in
  let naive = span "analysis.memarcs" (fun () -> Spd_analysis.Memarcs.annotate p) in
  count "analysis.memarcs.arcs"
    (sum_trees (fun t -> List.length t.Spd_ir.Tree.arcs) naive);
  let stats = { Static.proven_no = 0; proven_must = 0; unknown = 0 } in
  let static = span "disambig.static" (fun () -> Static.run ~stats naive) in
  count "disambig.static.proven_no" stats.proven_no;
  count "disambig.static.unknown" stats.unknown;
  let proved = ref true in
  let checker ~func ~before app after =
    let r =
      span "validate" (fun () -> Validate.check_application ~func ~before app after)
    in
    count "validate.applications" 1;
    count "validate.paths" r.stats.paths;
    count "validate.splits" r.stats.splits;
    match r.verdict with
    | Spd_validate.Verdict.Proved -> count "validate.proved" 1
    | _ -> proved := false
  in
  let prog, apps, decisions =
    span "spd.heuristic" (fun () ->
        Heuristic.run ~profile:c.profile
          ?checker:(if c.graft then None else Some checker)
          ~mem_latency:c.latency static)
  in
  count "spd.heuristic.candidates" (List.length decisions);
  count "spd.heuristic.applied" (List.length apps);
  List.iter
    (fun width ->
      ignore
        (span "machine.schedule" (fun () ->
             Spd_machine.Timing_builder.program
               { Descr.width; mem_latency = c.latency }
               prog));
      count "machine.schedule.nodes" (sum_trees Spd_ir.Tree.size prog))
    widths;
  (prog, List.length apps, !proved)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let key c = (c.program.W.Workload.name, c.latency, c.graft)

let setup ~seed ~trace:_ =
  let chains =
    List.concat_map
      (fun (w : W.Workload.t) ->
        List.concat_map
          (fun graft ->
            let profile =
              Spd_harness.Pipeline.profile_of (front ~graft w.source)
            in
            List.map
              (fun latency -> { program = w; latency; graft; profile })
              [ 2; 6 ])
          [ false; true ])
      programs
  in
  let rng = Random.State.make [| seed |] in
  let counts = Hashtbl.create 16 in
  let count k n =
    Hashtbl.replace counts k
      (n + Option.value ~default:0 (Hashtbl.find_opt counts k))
  in
  (* each chain's first outputs, which every later pass must repeat *)
  let first = Hashtbl.create 64 in
  let step () =
    let order = shuffle rng chains in
    let outputs, secs =
      Util.timed (fun () ->
          span "op" (fun () -> List.map (fun c -> (c, compile ~count c)) order))
    in
    let ok =
      List.for_all
        (fun (c, (prog, applied, proved)) ->
          let fingerprint = (Prog.code_size prog, applied) in
          match Hashtbl.find_opt first (key c) with
          | None ->
              Hashtbl.replace first (key c) (prog, fingerprint);
              proved
          | Some (_, fp) -> proved && fp = fingerprint)
        outputs
    in
    { kind = "compile"; secs; ok }
  in
  (* every compiled program behaves like its source, run unoptimised *)
  let verify () =
    let reference =
      List.map
        (fun (w : W.Workload.t) ->
          (w.name, Spd_sim.Interp.observe (Spd_lang.Lower.compile w.source)))
        programs
    in
    let failures =
      Hashtbl.fold
        (fun (name, latency, graft) (prog, _) acc ->
          if Spd_sim.Interp.observe prog = List.assoc name reference then acc
          else
            Printf.sprintf "%s lat=%d graft=%b changed behaviour" name latency
              graft
            :: acc)
        first []
    in
    (Hashtbl.length first, failures)
  in
  {
    jobs = 1;
    loop = (fun ~until ~max_ops -> closed_loop ~until ~max_ops step);
    counters =
      (fun () ->
        Hashtbl.fold (fun k v acc -> (k, float_of_int v) :: acc) counts []
        @ local_metrics ());
    verify;
    daemon_pid = None;
    close = (fun () -> ());
  }

let workload =
  { name = "compile"; op = "compile"; remote = false; setup; traced_ops = 1 }
