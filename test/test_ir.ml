(** IR tests: values, intervals, opcodes, instructions, tree validation,
    memory dependence arcs. *)

open Util
module Ir = Spd_ir
open Ir

let case name f = Alcotest.test_case name `Quick f
let qcase = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Values *)

let test_value_truth () =
  check_bool "0 false" false (Value.is_true (Value.Int 0));
  check_bool "1 true" true (Value.is_true (Value.Int 1));
  check_bool "-1 true" true (Value.is_true (Value.Int (-1)));
  check_bool "0.0 false" false (Value.is_true (Value.Float 0.0));
  check_bool "2.5 true" true (Value.is_true (Value.Float 2.5))

let test_value_conversions () =
  check_int "to_int trunc" 2 (Value.to_int (Value.Float 2.9));
  check_int "to_int neg trunc" (-2) (Value.to_int (Value.Float (-2.9)));
  check_close "to_float" 7.0 (Value.to_float (Value.Int 7));
  check_bool "of_bool" true Value.(equal (of_bool true) one);
  check_bool "int/float not equal" false
    (Value.equal (Value.Int 1) (Value.Float 1.0))

(* ------------------------------------------------------------------ *)
(* Intervals *)

let interval_gen =
  QCheck.Gen.(
    let bound = map (fun b -> if b > 90 then None else Some (b - 45)) (int_bound 100) in
    map2
      (fun lo hi ->
        match (lo, hi) with
        | Some a, Some b when a > b -> Interval.make (Some b) (Some a)
        | _ -> Interval.make lo hi)
      bound bound)

let interval_arb = QCheck.make ~print:(Fmt.to_to_string Interval.pp) interval_gen

let member_gen iv =
  let open QCheck.Gen in
  match (iv.Interval.lo, iv.Interval.hi) with
  | Some a, Some b -> map (fun x -> a + (x mod (b - a + 1))) (int_bound 10000)
  | Some a, None -> map (fun x -> a + x) (int_bound 100)
  | None, Some b -> map (fun x -> b - x) (int_bound 100)
  | None, None -> int_range (-1000) 1000

let prop_add_sound =
  QCheck.Test.make ~name:"interval add is sound" ~count:500
    QCheck.(pair interval_arb interval_arb)
    (fun (a, b) ->
      let x = QCheck.Gen.generate1 (member_gen a) in
      let y = QCheck.Gen.generate1 (member_gen b) in
      Interval.contains (Interval.add a b) (x + y))

let prop_scale_sound =
  QCheck.Test.make ~name:"interval scale is sound" ~count:500
    QCheck.(pair (int_range (-7) 7) interval_arb)
    (fun (c, a) ->
      let x = QCheck.Gen.generate1 (member_gen a) in
      Interval.contains (Interval.scale c a) (c * x))

let prop_neg_sound =
  QCheck.Test.make ~name:"interval neg is sound" ~count:500 interval_arb
    (fun a ->
      let x = QCheck.Gen.generate1 (member_gen a) in
      Interval.contains (Interval.neg a) (-x))

let test_interval_basics () =
  check_bool "point contains" true (Interval.contains (Interval.point 3) 3);
  check_bool "point excludes" false (Interval.contains (Interval.point 3) 4);
  check_int "cardinal" 5
    (Option.get (Interval.cardinal (Interval.of_bounds ~lo:2 ~hi:6)));
  check_bool "top unbounded" false (Interval.is_bounded Interval.top);
  check_bool "excludes zero pos" true
    (Interval.excludes_zero (Interval.of_bounds ~lo:1 ~hi:9));
  check_bool "excludes zero neg" true
    (Interval.excludes_zero (Interval.of_bounds ~lo:(-9) ~hi:(-1)));
  check_bool "spans zero" false
    (Interval.excludes_zero (Interval.of_bounds ~lo:(-1) ~hi:1))

(* ------------------------------------------------------------------ *)
(* Opcodes *)

let test_latencies () =
  let lat = Opcode.latency ~mem_latency:6 in
  check_int "mul" 3 (lat (Opcode.Ibin Opcode.Mul));
  check_int "div" 7 (lat (Opcode.Ibin Opcode.Div));
  check_int "fdiv" 7 (lat (Opcode.Fbin Opcode.Fdiv));
  check_int "fcmp" 1 (lat (Opcode.Fcmp Opcode.Flt));
  check_int "alu" 1 (lat (Opcode.Ibin Opcode.Add));
  check_int "fpu" 3 (lat (Opcode.Fbin Opcode.Fadd));
  check_int "load" 6 (lat Opcode.Load);
  check_int "store" 6 (lat Opcode.Store);
  check_int "branch" 2 Opcode.branch_latency

let test_opcode_classes () =
  check_bool "store has side effect" true (Opcode.has_side_effect Opcode.Store);
  check_bool "load does not" false (Opcode.has_side_effect Opcode.Load);
  check_bool "store no dst" false (Opcode.has_dst Opcode.Store);
  check_int "select arity" 3 (Opcode.arity Opcode.Select);
  check_int "const arity" 0 (Opcode.arity (Opcode.Const Value.zero))

(* ------------------------------------------------------------------ *)
(* Instructions *)

let test_insn_uses_defs () =
  let i =
    Insn.make ~id:0
      ~guard:{ Insn.greg = 9; positive = false }
      Opcode.Store ~dst:None ~srcs:[ 1; 2 ]
  in
  Alcotest.(check (list int)) "uses include guard" [ 9; 1; 2 ] (Insn.uses i);
  Alcotest.(check (list int)) "no defs" [] (Insn.defs i);
  check_int "addr" 1 (Insn.addr i);
  check_int "store value" 2 (Insn.store_value i)

(* ------------------------------------------------------------------ *)
(* Trees: validation catches broken invariants *)

let mk_tree ?(params = [ 0 ]) ?(arcs = []) insns exits =
  Tree.make ~id:0 ~name:"t" ~params
    ~insns:(Array.of_list insns)
    ~exits:(Array.of_list exits)
    ~arcs ~ranges:Reg.Map.empty ()

let ret = { Tree.xguard = None; kind = Tree.Return { value = None } }

let expect_invalid ?msg what tree =
  match Tree.validate tree with
  | () -> Alcotest.failf "expected validation failure: %s" what
  | exception Tree.Invalid got -> (
      match msg with Some m -> check_string what m got | None -> ())

let test_validate_ok () =
  let i0 = Insn.make ~id:0 (Opcode.Const (Value.Int 1)) ~dst:(Some 1) ~srcs:[] in
  let i1 = Insn.make ~id:1 (Opcode.Ibin Opcode.Add) ~dst:(Some 2) ~srcs:[ 0; 1 ] in
  Tree.validate (mk_tree [ i0; i1 ] [ ret ])

let test_validate_failures () =
  let c id dst = Insn.make ~id (Opcode.Const (Value.Int 0)) ~dst:(Some dst) ~srcs:[] in
  expect_invalid "duplicate ids" (mk_tree [ c 0 1; c 0 2 ] [ ret ]);
  expect_invalid "double assignment" (mk_tree [ c 0 1; c 1 1 ] [ ret ]);
  expect_invalid "redefined parameter" (mk_tree [ c 0 0 ] [ ret ]);
  expect_invalid "use before def"
    (mk_tree
       [ Insn.make ~id:0 Opcode.Mov ~dst:(Some 2) ~srcs:[ 1 ]; c 1 1 ]
       [ ret ]);
  expect_invalid "guarded pure op"
    (mk_tree
       [
         c 0 1;
         Insn.make ~id:1
           ~guard:{ Insn.greg = 1; positive = true }
           Opcode.Mov ~dst:(Some 2) ~srcs:[ 1 ];
       ]
       [ ret ]);
  expect_invalid "no exits" (mk_tree [ c 0 1 ] []);
  expect_invalid "guarded last exit"
    (mk_tree [ c 0 1 ]
       [ { Tree.xguard = Some { Insn.greg = 1; positive = true };
           kind = Tree.Return { value = None } } ]);
  expect_invalid "exit uses undefined"
    (mk_tree [ c 0 1 ] [ { Tree.xguard = None; kind = Tree.Return { value = Some 99 } } ]);
  (* arcs must reference memory ops in program order *)
  let ld id dst addr = Insn.make ~id Opcode.Load ~dst:(Some dst) ~srcs:[ addr ] in
  let st id addr v = Insn.make ~id Opcode.Store ~dst:None ~srcs:[ addr; v ] in
  let insns = [ c 0 1; ld 1 2 1; st 2 1 2 ] in
  let arc src dst kind =
    { Memdep.src; dst; kind; status = Memdep.Ambiguous None; why = None }
  in
  Tree.validate (mk_tree ~arcs:[ arc 1 2 Memdep.War ] insns [ ret ]);
  expect_invalid "arc not in program order"
    ~msg:"tree t: arc #2 -> #1 not in program order"
    (mk_tree ~arcs:[ arc 2 1 Memdep.Raw ] insns [ ret ]);
  expect_invalid "arc endpoint not a memory op"
    ~msg:"tree t: arc endpoint #0 is not a memory op"
    (mk_tree ~arcs:[ arc 0 2 Memdep.Raw ] insns [ ret ]);
  expect_invalid "arc references unknown insn"
    ~msg:"tree t: arc references unknown insn #7"
    (mk_tree ~arcs:[ arc 1 7 Memdep.War ] insns [ ret ])

let test_tree_size_and_regs () =
  let c id dst = Insn.make ~id (Opcode.Const (Value.Int 0)) ~dst:(Some dst) ~srcs:[] in
  let t = mk_tree [ c 0 1; c 1 2 ] [ ret ] in
  check_int "size counts exits" 3 (Tree.size t);
  check_bool "all_regs" true
    (Reg.Set.equal (Tree.all_regs t) (Reg.Set.of_list [ 0; 1; 2 ]))

(* ------------------------------------------------------------------ *)
(* Memory dependence arcs *)

let test_memdep () =
  check_bool "kind raw" true
    (Memdep.kind_of_ops ~src_is_store:true ~dst_is_store:false = Memdep.Raw);
  check_bool "kind war" true
    (Memdep.kind_of_ops ~src_is_store:false ~dst_is_store:true = Memdep.War);
  check_bool "kind waw" true
    (Memdep.kind_of_ops ~src_is_store:true ~dst_is_store:true = Memdep.Waw);
  (match Memdep.kind_of_ops ~src_is_store:false ~dst_is_store:false with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "load-load pair accepted");
  let arc kind status = { Memdep.src = 0; dst = 1; kind; status; why = None } in
  check_int "raw weight is the memory latency" 6
    (Memdep.weight ~mem_latency:6 (arc Memdep.Raw Memdep.Must));
  check_int "war weight is issue-order only" 1
    (Memdep.weight ~mem_latency:6 (arc Memdep.War Memdep.Must));
  check_bool "removed is inactive" false
    (Memdep.is_active (arc Memdep.Raw (Memdep.Removed Memdep.By_spd)));
  check_bool "must is not ambiguous" false
    (Memdep.is_ambiguous (arc Memdep.Raw Memdep.Must))

let tests =
  [
    case "value truth" test_value_truth;
    case "value conversions" test_value_conversions;
    case "interval basics" test_interval_basics;
    qcase prop_add_sound;
    qcase prop_scale_sound;
    qcase prop_neg_sound;
    case "latencies (Table 6-1)" test_latencies;
    case "opcode classes" test_opcode_classes;
    case "insn uses/defs" test_insn_uses_defs;
    case "tree validate accepts" test_validate_ok;
    case "tree validate rejects" test_validate_failures;
    case "tree size and regs" test_tree_size_and_regs;
    case "memdep arcs" test_memdep;
  ]
