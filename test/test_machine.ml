(** Machine model tests: description, list scheduler correctness
    (dependences and resources, checked on real and random programs),
    the ready heap's deterministic total order, bit-identity of the
    flat DDG + heap scheduler with their preserved list-based references
    (on every graph the compile benchmark schedules),
    critical-path tiling across widths, timing construction, and
    schedule plans: equal to the one-shot timing builder at every width,
    and the list schedule equal to ASAP exactly from the peak up. *)

open Util
module Ir = Spd_ir
module M = Spd_machine
module Ddg = Spd_analysis.Ddg
open Ir

let case name f = Alcotest.test_case name `Quick f
let qcase = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Description *)

let test_descr_table_matches_opcodes () =
  (* Table 6-1 as printed must agree with the authoritative encoding *)
  List.iter
    (fun mem_latency ->
      let table = M.Descr.table_6_1 ~mem_latency in
      let lat = Opcode.latency ~mem_latency in
      check_int "Integer multiplies"
        (List.assoc "Integer multiplies" table)
        (lat (Opcode.Ibin Opcode.Mul));
      check_int "Integer and FP divides"
        (List.assoc "Integer and FP divides" table)
        (lat (Opcode.Ibin Opcode.Div));
      check_int "FP compares"
        (List.assoc "FP compares" table)
        (lat (Opcode.Fcmp Opcode.Feq));
      check_int "Other ALU operations"
        (List.assoc "Other ALU operations" table)
        (lat (Opcode.Ibin Opcode.Add));
      check_int "Other FPU operations"
        (List.assoc "Other FPU operations" table)
        (lat (Opcode.Fbin Opcode.Fmul));
      check_int "Memory loads and stores"
        (List.assoc "Memory loads and stores" table)
        (lat Opcode.Load);
      check_int "Branches" (List.assoc "Branches" table) Opcode.branch_latency)
    [ 2; 6 ]

(* ------------------------------------------------------------------ *)
(* Scheduler *)

let all_trees prog =
  let acc = ref [] in
  Prog.iter_trees (fun _ t -> acc := t :: !acc) prog;
  !acc

let test_schedule_valid_on_workloads () =
  List.iter
    (fun bench ->
      let w = Spd_workloads.Registry.by_name bench in
      let spec =
        Spd_harness.Pipeline.prepare ~config:(Spd_harness.Pipeline.Config.v ~mem_latency:2 ())
          Spd_harness.Pipeline.Spec (compile w.source)
      in
      List.iter
        (fun tree ->
          let g = Ddg.build ~mem_latency:2 tree in
          List.iter
            (fun fus ->
              let s = M.Scheduler.run ~fus g in
              if not (M.Scheduler.valid ~fus g s) then
                Alcotest.failf "%s %s: invalid %d-wide schedule" bench
                  tree.Tree.name fus)
            [ 1; 2; 5; 8 ])
        (all_trees spec.prog))
    [ "adi"; "fft"; "quick" ]

let test_schedule_matches_asap_when_unlimited () =
  let w = Spd_workloads.Registry.by_name "moment" in
  let prog = compile w.source in
  List.iter
    (fun tree ->
      let g = Ddg.build ~mem_latency:6 tree in
      let s = M.Scheduler.run g in
      let asap = Ddg.asap g in
      Array.iteri
        (fun node t ->
          if s.M.Scheduler.issue.(node) <> t then
            Alcotest.failf "%s: unlimited schedule differs from ASAP"
              tree.Tree.name)
        asap)
    (all_trees prog)

let test_schedule_length_bounds () =
  (* schedule length is at least the critical path and at least
     ceil(ops / width), and a very wide machine meets ASAP *)
  let w = Spd_workloads.Registry.by_name "bcuint" in
  let prog = compile w.source in
  List.iter
    (fun tree ->
      let g = Ddg.build ~mem_latency:2 tree in
      let n = Ddg.n_nodes g in
      let asap = Ddg.asap g in
      let crit = Array.fold_left max 0 asap + 1 in
      List.iter
        (fun fus ->
          let s = M.Scheduler.run ~fus g in
          check_bool "length >= critical path" true (s.M.Scheduler.length >= crit);
          check_bool "length >= ops/width" true
            (s.M.Scheduler.length >= (n + fus - 1) / fus))
        [ 1; 2; 4 ];
      let s = M.Scheduler.run ~fus:(max 1 n) g in
      check_int "width n meets the critical path" crit s.M.Scheduler.length)
    (all_trees prog)

(* Random-program property: schedules at every width respect dependences
   and resources. *)
let prop_schedule_valid_random =
  QCheck.Test.make ~name:"scheduler valid on random programs" ~count:15
    Gen_prog.arbitrary_source (fun src ->
      let spec =
        Spd_harness.Pipeline.prepare ~config:(Spd_harness.Pipeline.Config.v ~mem_latency:2 ())
          Spd_harness.Pipeline.Spec (compile src)
      in
      List.for_all
        (fun tree ->
          let g = Ddg.build ~mem_latency:2 tree in
          List.for_all
            (fun fus ->
              M.Scheduler.valid ~fus g (M.Scheduler.run ~fus g))
            [ 1; 3 ])
        (all_trees spec.prog))

(* ------------------------------------------------------------------ *)
(* Ready heap: deterministic total order *)

(* pop a heap dry, returning the node sequence *)
let drain h =
  let rec go acc =
    if M.Scheduler.Heap.is_empty h then List.rev acc
    else go (M.Scheduler.Heap.pop h :: acc)
  in
  go []

let prop_heap_pop_order =
  QCheck.Test.make ~name:"heap pops (priority desc, node asc)" ~count:200
    QCheck.(list (pair (int_bound 20) (int_bound 1000)))
    (fun pairs ->
      let h = M.Scheduler.Heap.create 4 in
      List.iter (fun (prio, node) -> M.Scheduler.Heap.push h ~prio node) pairs;
      (* the heap is a bag: popping must enumerate exactly the pushed
         multiset, sorted by the deterministic total order *)
      let expect =
        List.sort
          (fun (p1, n1) (p2, n2) ->
            if p1 <> p2 then compare p2 p1 else compare n1 n2)
          pairs
        |> List.map snd
      in
      let got = drain h in
      got = expect)

let prop_heap_interleaved =
  (* interleaved pushes and pops agree with a sorted-list model *)
  QCheck.Test.make ~name:"heap agrees with model under interleaving"
    ~count:200
    QCheck.(list (option (pair (int_bound 10) (int_bound 100))))
    (fun ops ->
      let h = M.Scheduler.Heap.create 1 in
      let model = ref [] in
      let order (p1, n1) (p2, n2) =
        if p1 <> p2 then compare p2 p1 else compare n1 n2
      in
      List.for_all
        (fun op ->
          match op with
          | Some (prio, node) ->
              M.Scheduler.Heap.push h ~prio node;
              model := List.merge order [ (prio, node) ] (List.sort order !model);
              true
          | None -> (
              match !model with
              | [] -> M.Scheduler.Heap.is_empty h
              | (p, n) :: tl ->
                  model := tl;
                  M.Scheduler.Heap.top_prio h = p && M.Scheduler.Heap.pop h = n))
        ops
      && M.Scheduler.Heap.size h = List.length !model)

let test_heap_deterministic_ties () =
  (* equal priorities yield ascending node indices, whatever the push
     order *)
  let h = M.Scheduler.Heap.create 2 in
  List.iter
    (fun node -> M.Scheduler.Heap.push h ~prio:7 node)
    [ 9; 3; 11; 1; 5 ];
  M.Scheduler.Heap.push h ~prio:9 4;
  check_int "top_prio sees the highest priority" 9
    (M.Scheduler.Heap.top_prio h);
  let popped = drain h in
  Alcotest.(check (list int)) "ties pop in node order" [ 4; 1; 3; 5; 9; 11 ]
    popped;
  Alcotest.check_raises "pop on an empty heap"
    (Invalid_argument "Scheduler.Heap.pop: empty heap") (fun () ->
      ignore (M.Scheduler.Heap.pop h))

(* ------------------------------------------------------------------ *)
(* Rewritten hot paths vs their preserved references *)

(* [None] when [tree]'s graph equals the reference build's, else what
   differs first *)
let graph_diff ~mem_latency tree =
  Scheduler_reference.diff
    (Ddg.build ~mem_latency tree)
    (Scheduler_reference.build_ddg ~mem_latency tree)

let schedule_equal (a : M.Scheduler.t) (b : M.Scheduler.t) =
  a.M.Scheduler.issue = b.M.Scheduler.issue
  && a.M.Scheduler.fu = b.M.Scheduler.fu
  && a.M.Scheduler.length = b.M.Scheduler.length

let prop_indexed_ddg_matches_reference =
  QCheck.Test.make ~name:"indexed DDG = reference all-pairs DDG" ~count:15
    Gen_prog.arbitrary_source (fun src ->
      let spec =
        Spd_harness.Pipeline.prepare
          ~config:(Spd_harness.Pipeline.Config.v ~mem_latency:2 ())
          Spd_harness.Pipeline.Spec (compile src)
      in
      List.for_all
        (fun tree ->
          List.for_all
            (fun mem_latency -> graph_diff ~mem_latency tree = None)
            [ 2; 6 ])
        (all_trees spec.prog))

let prop_heap_schedule_matches_reference =
  QCheck.Test.make ~name:"heap schedule = reference scan schedule" ~count:15
    Gen_prog.arbitrary_source (fun src ->
      let spec =
        Spd_harness.Pipeline.prepare
          ~config:(Spd_harness.Pipeline.Config.v ~mem_latency:2 ())
          Spd_harness.Pipeline.Spec (compile src)
      in
      List.for_all
        (fun tree ->
          let g = Ddg.build ~mem_latency:2 tree in
          let r = Scheduler_reference.build_ddg ~mem_latency:2 tree in
          List.for_all
            (fun fus ->
              schedule_equal (M.Scheduler.run ~fus g)
                (Scheduler_reference.run ~fus r))
            [ 1; 2; 5 ])
        (all_trees spec.prog))

(* Every graph the compile benchmark schedules: the paper workloads and
   matmul300, 2- and 6-cycle memory, plain and grafted, NAIVE (every arc
   active) and SPEC; the graphs and their schedules at 1-8 FUs against
   the reference build and scan. *)
let test_heap_schedule_matches_reference_on_workloads () =
  let module P = Spd_harness.Pipeline in
  List.iter
    (fun (w : Spd_workloads.Workload.t) ->
      let lowered = compile w.source in
      List.iter
        (fun graft ->
          let config = P.Config.v ~check:false ~graft () in
          let front = P.front ~config lowered in
          let reference = lazy (P.reference ~config front) in
          List.iter
            (fun mem_latency ->
              List.iter
                (fun kind ->
                  let p =
                    P.prepare
                      ~config:(P.Config.v ~check:false ~graft ~mem_latency ())
                      ~front
                      ~reference:(fun () -> Lazy.force reference)
                      kind lowered
                  in
                  let where (tree : Tree.t) =
                    Fmt.str "%s %d-cycle%s %s %s" w.name mem_latency
                      (if graft then " grafted" else "")
                      (P.name kind) tree.name
                  in
                  List.iter
                    (fun tree ->
                      let g = Ddg.build ~mem_latency tree in
                      let r = Scheduler_reference.build_ddg ~mem_latency tree in
                      Option.iter
                        (Alcotest.failf "%s: graph differs from reference: %s"
                           (where tree))
                        (Scheduler_reference.diff g r);
                      for fus = 1 to 8 do
                        if
                          not
                            (schedule_equal (M.Scheduler.run ~fus g)
                               (Scheduler_reference.run ~fus r))
                        then
                          Alcotest.failf
                            "%s: %d-wide schedule differs from reference"
                            (where tree) fus
                      done)
                    (all_trees p.prog))
                [ P.Naive; P.Spec ])
            [ 2; 6 ])
        [ false; true ])
    (Spd_workloads.Registry.all @ Spd_workloads.Registry.extras)

(* ------------------------------------------------------------------ *)
(* Critical-path attribution across widths *)

let test_critpath_tiles_across_widths () =
  (* Critpath.steps must tile [0, span) exactly at every width, not only
     the width spd explain uses *)
  let w = Spd_workloads.Registry.by_name "quick" in
  let spec =
    Spd_harness.Pipeline.prepare
      ~config:(Spd_harness.Pipeline.Config.v ~mem_latency:2 ())
      Spd_harness.Pipeline.Spec (compile w.source)
  in
  List.iter
    (fun tree ->
      let g = Ddg.build ~mem_latency:2 tree in
      List.iter
        (fun width ->
          let s = M.Schedule.of_ddg ~width g in
          let cp = M.Critpath.analyze s in
          let steps =
            List.sort
              (fun (a : M.Critpath.step) b -> compare a.lo b.lo)
              cp.M.Critpath.steps
          in
          let last =
            List.fold_left
              (fun edge (st : M.Critpath.step) ->
                check_int
                  (Printf.sprintf "%s width step contiguous" tree.Tree.name)
                  edge st.lo;
                st.hi)
              0 steps
          in
          check_int
            (Printf.sprintf "%s: steps tile the makespan" tree.Tree.name)
            cp.M.Critpath.span last;
          check_int
            (Printf.sprintf "%s: category totals sum to makespan"
               tree.Tree.name)
            cp.M.Critpath.span
            (List.fold_left (fun acc (_, n) -> acc + n) 0
               cp.M.Critpath.by_category))
        [ M.Descr.Fus 1; M.Descr.Fus 3; M.Descr.Fus 8; M.Descr.Infinite ])
    (all_trees spec.prog)

(* ------------------------------------------------------------------ *)
(* Timing builder *)

let test_cycles_decrease_with_width () =
  let w = Spd_workloads.Registry.by_name "adi" in
  let prog = compile w.source in
  let naive =
    Spd_harness.Pipeline.prepare ~config:(Spd_harness.Pipeline.Config.v ~mem_latency:2 ()) Spd_harness.Pipeline.Naive
      prog
  in
  let c width = Spd_harness.Pipeline.cycles naive ~width in
  let c1 = c (M.Descr.Fus 1) in
  let c8 = c (M.Descr.Fus 8) in
  let cinf = c M.Descr.Infinite in
  check_bool "8 FUs faster than 1 FU" true (c8 < c1);
  check_bool "infinite at least as fast as 8" true (cinf <= c8)

(* ------------------------------------------------------------------ *)
(* Schedule plans *)

let widths = M.Descr.Infinite :: List.init 8 (fun i -> M.Descr.Fus (i + 1))

(* Every paper workload plus matmul300, all four pipelines, both
   latencies, as one session prepares them. *)
let iter_paper_programs f =
  let module Engine = Spd_harness.Engine in
  Engine.Session.with_session
    (Engine.Session.create ~jobs:1 ~disk_cache:false ())
    (fun s ->
      List.iter
        (fun bench ->
          List.iter
            (fun latency ->
              List.iter
                (fun kind ->
                  f ~bench ~latency kind
                    (Engine.get
                       (Engine.Session.prepared s ~bench ~latency kind)))
                Spd_harness.Pipeline.all)
            [ 2; 6 ])
        Golden_render.corpus_workloads)

let test_plan_matches_program () =
  iter_paper_programs (fun ~bench ~latency kind p ->
      let plan = Spd_harness.Pipeline.plan p in
      List.iter
        (fun width ->
          let reference =
            M.Timing_builder.program { M.Descr.width; mem_latency = latency }
              p.prog
          in
          let timing = M.Timing_builder.timing plan width in
          let where = Fmt.str "%s %d-cycle %s at %a" bench latency
              (Spd_harness.Pipeline.name kind) M.Descr.pp_width width
          in
          check_int (where ^ ": trees timed") (Hashtbl.length reference)
            (Hashtbl.length timing);
          Hashtbl.iter
            (fun (func, tree_id) tt ->
              if Spd_sim.Timing.find timing ~func ~tree_id <> tt then
                Alcotest.failf "%s: tree %s/%d differs from program's" where
                  func tree_id)
            reference)
        widths)

(* The plan's lemma: at [n >= peak] units the list schedule issues every
   node at its ASAP cycle; below the peak some cycle overflows, so some
   node issues later. *)
let schedule_is_asap_from_peak g =
  let asap = Ddg.asap g in
  let peak = M.Timing_builder.peak asap in
  let issue fus = (M.Scheduler.run ~fus g).M.Scheduler.issue in
  let from_peak =
    List.init (min 8 (Ddg.n_nodes g - peak + 1)) (fun i -> peak + i)
  in
  List.for_all (fun n -> issue n = asap) (Ddg.n_nodes g :: from_peak)
  && (peak = 1 || issue (peak - 1) <> asap)

let prop_schedule_asap_from_peak =
  QCheck.Test.make ~name:"list schedule = ASAP exactly from the peak"
    ~count:15 Gen_prog.arbitrary_source (fun src ->
      let spec =
        Spd_harness.Pipeline.prepare
          ~config:(Spd_harness.Pipeline.Config.v ~mem_latency:2 ())
          Spd_harness.Pipeline.Spec (compile src)
      in
      List.for_all
        (fun tree ->
          List.for_all
            (fun mem_latency ->
              schedule_is_asap_from_peak (Ddg.build ~mem_latency tree))
            [ 2; 6 ])
        (all_trees spec.prog))

let test_schedule_asap_from_peak_on_workloads () =
  iter_paper_programs (fun ~bench ~latency kind p ->
      List.iter
        (fun tree ->
          if not (schedule_is_asap_from_peak (Ddg.build ~mem_latency:latency tree))
          then
            Alcotest.failf "%s %d-cycle %s %s: list schedule is not ASAP \
                            exactly from the peak"
              bench latency (Spd_harness.Pipeline.name kind) tree.Tree.name)
        (all_trees p.prog))

let tests =
  [
    case "Table 6-1 matches opcode latencies" test_descr_table_matches_opcodes;
    case "schedules valid on workloads" test_schedule_valid_on_workloads;
    case "unlimited schedule = ASAP" test_schedule_matches_asap_when_unlimited;
    case "schedule length bounds" test_schedule_length_bounds;
    qcase prop_schedule_valid_random;
    qcase prop_heap_pop_order;
    qcase prop_heap_interleaved;
    case "heap breaks ties deterministically" test_heap_deterministic_ties;
    qcase prop_indexed_ddg_matches_reference;
    qcase prop_heap_schedule_matches_reference;
    case "heap schedules match reference on workloads"
      test_heap_schedule_matches_reference_on_workloads;
    case "critical path tiles the makespan at every width"
      test_critpath_tiles_across_widths;
    case "cycles decrease with width" test_cycles_decrease_with_width;
    case "schedule plan = program at every width" test_plan_matches_program;
    qcase prop_schedule_asap_from_peak;
    case "list schedule = ASAP from the peak on workloads"
      test_schedule_asap_from_peak_on_workloads;
  ]

(* ------------------------------------------------------------------ *)
(* Hardware dynamic disambiguation baseline *)

let test_dynamic_bounds () =
  (* a huge window with dynamic address checks can only relax constraints:
     cycles(dynamic) <= cycles(static timing); and a window of 0 relaxes
     nothing: cycles equal the static machine's *)
  let w = Spd_workloads.Registry.by_name "moment" in
  let static =
    Spd_harness.Pipeline.prepare ~config:(Spd_harness.Pipeline.Config.v ~mem_latency:6 ()) Spd_harness.Pipeline.Static
      (compile w.source)
  in
  let width = Spd_machine.Descr.Fus 5 in
  let base = Spd_harness.Pipeline.cycles static ~width in
  let dyn window =
    M.Dynamic.cycles ~window ~width ~mem_latency:6 static.prog
  in
  check_int "window 0 = static machine" base (dyn 0);
  check_bool "window 64 no slower" true (dyn 64 <= base);
  check_bool "monotone in window" true (dyn 64 <= dyn 2)

let test_dynamic_beats_perfect_per_traversal () =
  (* 'tree' aliases on some traversals but not others: per-traversal
     adaptivity can beat even the PERFECT static oracle *)
  let w = Spd_workloads.Registry.by_name "tree" in
  let lowered = compile w.source in
  let static =
    Spd_harness.Pipeline.prepare ~config:(Spd_harness.Pipeline.Config.v ~mem_latency:6 ()) Spd_harness.Pipeline.Static lowered
  in
  let perfect =
    Spd_harness.Pipeline.prepare ~config:(Spd_harness.Pipeline.Config.v ~mem_latency:6 ()) Spd_harness.Pipeline.Perfect lowered
  in
  let width = Spd_machine.Descr.Fus 5 in
  let hw = M.Dynamic.cycles ~window:32 ~width ~mem_latency:6 static.prog in
  check_bool "HW window-32 at least matches PERFECT on tree" true
    (hw <= Spd_harness.Pipeline.cycles perfect ~width)

let more_tests =
  [
    case "dynamic baseline bounds" test_dynamic_bounds;
    case "dynamic adaptivity vs PERFECT" test_dynamic_beats_perfect_per_traversal;
  ]

let tests = tests @ more_tests
