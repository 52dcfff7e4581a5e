(** Analysis tests: affine forms, arc construction, DDG/ASAP, forwarding. *)

open Util
module Ir = Spd_ir
module A = Spd_analysis
open Ir

let case name f = Alcotest.test_case name `Quick f
let qcase = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Affine algebra *)

let sym_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun r -> A.Affine.Sreg r) (int_bound 6);
        return (A.Affine.Sglobal "g");
        return A.Affine.Sframe;
      ])

(* Symbols that stress the order: negative registers, the empty global
   name and names sharing a prefix. *)
let wide_sym_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun r -> A.Affine.Sreg r) (int_range (-50) 50);
        map (fun r -> A.Affine.Sreg r) int;
        map
          (fun g -> A.Affine.Sglobal g)
          (oneof
             [
               oneofl [ ""; "a"; "ab"; "abc"; "b"; "g"; "g1"; "g10"; "g2" ];
               string_size ~gen:(oneofl [ 'a'; 'b'; '\000'; '\255' ])
                 (int_bound 3);
             ]);
        return A.Affine.Sframe;
      ])

let affine_gen_of ?(coeff = QCheck.Gen.int_range (-5) 5) sym_gen =
  QCheck.Gen.(
    let term = pair sym_gen coeff in
    map2
      (fun c terms ->
        List.fold_left
          (fun acc (s, k) -> A.Affine.add acc (A.Affine.scale k (A.Affine.sym s)))
          (A.Affine.const c) terms)
      (int_range (-20) 20)
      (list_size (int_bound 4) term))

let affine_gen = affine_gen_of sym_gen
let affine_arb = QCheck.make ~print:(Fmt.to_to_string A.Affine.pp) affine_gen

let prop_sub_self =
  QCheck.Test.make ~name:"affine: a - a = 0" ~count:300 affine_arb (fun a ->
      A.Affine.equal (A.Affine.sub a a) (A.Affine.const 0))

let prop_add_comm =
  QCheck.Test.make ~name:"affine: a + b = b + a" ~count:300
    QCheck.(pair affine_arb affine_arb)
    (fun (a, b) -> A.Affine.equal (A.Affine.add a b) (A.Affine.add b a))

let prop_compare_sym_order =
  QCheck.Test.make ~name:"affine: compare_sym has the sign of compare"
    ~count:1000
    (QCheck.make
       ~print:
         QCheck.Print.(
           pair (Fmt.to_to_string A.Affine.pp_sym)
             (Fmt.to_to_string A.Affine.pp_sym))
       QCheck.Gen.(
         (* a shared pool makes equal and near-equal pairs common *)
         list_repeat 6 wide_sym_gen >>= fun pool ->
         pair (oneofl pool) (oneofl pool)))
    (fun (x, y) ->
      Int.compare (A.Affine.compare_sym x y) 0
      = Int.compare (Stdlib.compare x y) 0)

let prop_sub_one_pass =
  QCheck.Test.make ~name:"affine: sub a b = add a (neg b)" ~count:500
    (let gen =
       affine_gen_of
         ~coeff:QCheck.Gen.(oneof [ int_range (-5) 5; int ])
         QCheck.Gen.(
           oneof
             [
               map (fun r -> A.Affine.Sreg r) (int_range (-3) 3);
               return (A.Affine.Sglobal "");
               return A.Affine.Sframe;
             ])
     in
     QCheck.make
       ~print:
         QCheck.Print.(
           pair (Fmt.to_to_string A.Affine.pp) (Fmt.to_to_string A.Affine.pp))
       QCheck.Gen.(
         (* b often shares a's terms, so coefficients cancel *)
         gen >>= fun a ->
         map
           (fun (b, shared) -> (a, if shared then A.Affine.add a b else b))
           (pair gen bool)))
    (fun (a, b) ->
      A.Affine.equal (A.Affine.sub a b) (A.Affine.add a (A.Affine.neg b)))

let prop_scale_distributes =
  QCheck.Test.make ~name:"affine: k(a+b) = ka + kb" ~count:300
    QCheck.(triple (int_range (-5) 5) affine_arb affine_arb)
    (fun (k, a, b) ->
      A.Affine.equal
        (A.Affine.scale k (A.Affine.add a b))
        (A.Affine.add (A.Affine.scale k a) (A.Affine.scale k b)))

(* Affine analysis recovers the subscript math of a compiled loop. *)
let test_affine_analyze () =
  let prog =
    compile
      {|
double a[300];
int main() {
  int i; double y;
  y = 0.0;
  for (i = 1; i <= 100; i = i + 1) {
    a[2 * i] = y;
    y = y + a[i + 4];
  }
  return (int)y;
}
|}
  in
  let main = Prog.find_func prog "main" in
  let loop =
    List.find
      (fun (t : Tree.t) ->
        Array.exists (fun i -> Insn.is_store i) t.insns)
      main.trees
  in
  let env = A.Affine.analyze loop in
  let store = List.find Insn.is_store (Tree.mem_insns loop) in
  let load = List.find Insn.is_load (Tree.mem_insns loop) in
  let diff =
    A.Affine.sub
      (A.Affine.form_of env (Insn.addr store))
      (A.Affine.form_of env (Insn.addr load))
  in
  (* a[2i] - a[i+4]: the global base cancels, leaving i - 4 *)
  check_bool "difference is i - 4 (single symbol, coeff 1, const -4)" true
    (diff.A.Affine.const = -4
    && List.length (A.Affine.Sym_map.bindings diff.A.Affine.terms) = 1
    && List.for_all
         (fun (_, c) -> c = 1)
         (A.Affine.Sym_map.bindings diff.A.Affine.terms));
  (* and the range of the difference under i in [1, 101] is [-3, 97] *)
  let r = A.Affine.range loop diff in
  check_bool "range lo" true (r.Interval.lo = Some (-3));
  check_bool "range hi" true (r.Interval.hi = Some 97)

(* ------------------------------------------------------------------ *)
(* Memory arc construction *)

let test_memarcs_pairs () =
  (* two stores and two loads: arcs = all pairs with >= 1 store *)
  let prog =
    compile
      {|
double a[10];
double b[10];
int main() {
  double x; double y;
  a[1] = 1.0;
  x = b[2];
  b[3] = 2.0;
  y = a[4];
  return (int)(x + y);
}
|}
  in
  let prog = A.Memarcs.annotate prog in
  let main = Prog.find_func prog "main" in
  let tree =
    List.find (fun (t : Tree.t) -> Tree.mem_insns t <> []) main.trees
  in
  (* pairs: (s1,l1) (s1,s2) (s1,l2) (l1,s2) (s2,l2) = 5; the load-load
     pair is skipped *)
  check_int "arc count" 5 (List.length tree.arcs);
  check_bool "all start ambiguous" true
    (List.for_all Memdep.is_ambiguous tree.arcs)

(* ------------------------------------------------------------------ *)
(* DDG and ASAP *)

let test_ddg_asap () =
  (* hand-built chain: c = const; ld = load c; add = ld + c; store *)
  let c = Insn.make ~id:0 (Opcode.Const (Value.Int 100)) ~dst:(Some 1) ~srcs:[] in
  let ld = Insn.make ~id:1 Opcode.Load ~dst:(Some 2) ~srcs:[ 1 ] in
  let add = Insn.make ~id:2 (Opcode.Ibin Opcode.Add) ~dst:(Some 3) ~srcs:[ 2; 1 ] in
  let st = Insn.make ~id:3 Opcode.Store ~dst:None ~srcs:[ 1; 3 ] in
  let tree =
    Tree.make ~id:0 ~name:"chain" ~params:[]
      ~insns:[| c; ld; add; st |]
      ~exits:[| { Tree.xguard = None; kind = Tree.Return { value = None } } |]
      ~arcs:[] ~ranges:Reg.Map.empty ()
  in
  let g = A.Ddg.build ~mem_latency:6 tree in
  let asap = A.Ddg.asap g in
  check_int "const at 0" 0 asap.(0);
  check_int "load waits const" 1 asap.(1);
  check_int "add waits load" 7 asap.(2);
  check_int "store waits add" 8 asap.(3);
  let insn_c, exit_c = A.Ddg.asap_completion g in
  check_int "store completion" 14 insn_c.(3);
  check_int "exit completion" 2 exit_c.(0)

let test_ddg_arc_weights () =
  (* a RAW arc forces the load after store completion; removing it frees
     the load *)
  let c = Insn.make ~id:0 (Opcode.Const (Value.Int 100)) ~dst:(Some 1) ~srcs:[] in
  let st = Insn.make ~id:1 Opcode.Store ~dst:None ~srcs:[ 1; 1 ] in
  let ld = Insn.make ~id:2 Opcode.Load ~dst:(Some 2) ~srcs:[ 1 ] in
  let arc =
    { Memdep.src = 1; dst = 2; kind = Memdep.Raw;
      status = Memdep.Ambiguous None; why = None }
  in
  let tree =
    Tree.make ~id:0 ~name:"raw" ~params:[]
      ~insns:[| c; st; ld |]
      ~exits:[| { Tree.xguard = None; kind = Tree.Return { value = None } } |]
      ~arcs:[ arc ] ~ranges:Reg.Map.empty ()
  in
  let asap_with = A.Ddg.asap (A.Ddg.build ~mem_latency:6 tree) in
  check_int "load waits full store latency" 7 asap_with.(2);
  let tree' =
    { tree with arcs = [ { arc with status = Memdep.Removed Memdep.By_spd } ] }
  in
  let asap_without = A.Ddg.asap (A.Ddg.build ~mem_latency:6 tree') in
  check_int "load free once arc removed" 1 asap_without.(2)

let test_ddg_height () =
  let c = Insn.make ~id:0 (Opcode.Const (Value.Int 100)) ~dst:(Some 1) ~srcs:[] in
  let ld = Insn.make ~id:1 Opcode.Load ~dst:(Some 2) ~srcs:[ 1 ] in
  let tree =
    Tree.make ~id:0 ~name:"h" ~params:[]
      ~insns:[| c; ld |]
      ~exits:[| { Tree.xguard = None; kind = Tree.Return { value = Some 2 } } |]
      ~arcs:[] ~ranges:Reg.Map.empty ()
  in
  let g = A.Ddg.build ~mem_latency:2 tree in
  let h = A.Ddg.height g in
  (* const -> load -> exit: 1 + 2 + 2 *)
  check_int "height of const" 5 h.(0);
  check_int "height of load" 4 h.(1);
  check_int "height of exit" 2 h.(2)

(* ------------------------------------------------------------------ *)
(* Forwarding *)

let count_loads prog =
  let n = ref 0 in
  Prog.iter_trees
    (fun _ (t : Tree.t) ->
      Array.iter (fun i -> if Insn.is_load i then incr n) t.insns)
    prog;
  !n

let test_frontend_forwards_reload () =
  (* the frontend's store-to-load forwarding already removes the reload
     of a[3] during lowering *)
  let src =
    {|
double a[10];
int main() {
  double x;
  a[3] = 1.5;
  x = a[3];
  return (int)(x * 2.0);
}
|}
  in
  check_int "no load survives lowering" 0 (count_loads (compile src));
  check_int "still computes the right value" 3 (ret_int src)

let test_forwarding_pass_removes_reload () =
  (* the IR-level pass catches reloads the frontend cannot see; build the
     tree by hand: store then reload through the same address register *)
  let addr = Insn.make ~id:0 (Opcode.Addrof (Opcode.Global "g")) ~dst:(Some 1) ~srcs:[] in
  let v = Insn.make ~id:1 (Opcode.Const (Value.Int 7)) ~dst:(Some 2) ~srcs:[] in
  let st = Insn.make ~id:2 Opcode.Store ~dst:None ~srcs:[ 1; 2 ] in
  let ld = Insn.make ~id:3 Opcode.Load ~dst:(Some 3) ~srcs:[ 1 ] in
  let tree =
    Tree.make ~id:0 ~name:"main.t0" ~params:[]
      ~insns:[| addr; v; st; ld |]
      ~exits:[| { Tree.xguard = None; kind = Tree.Return { value = Some 3 } } |]
      ~arcs:[] ~ranges:Reg.Map.empty ()
  in
  let prog =
    {
      Prog.funcs =
        [ ("main", { Prog.fname = "main"; fparams = []; frame_words = 0; entry = 0; trees = [ tree ] }) ];
      globals = [ { Prog.gname = "g"; words = 1; ginit = [||] } ];
      main = "main";
    }
  in
  Prog.validate prog;
  let fwd = A.Forwarding.run prog in
  check_int "load removed" 0 (count_loads fwd);
  check_bool "same behaviour" true
    (Spd_sim.Interp.observe prog = Spd_sim.Interp.observe fwd);
  check_int "returns stored value" 7
    (Value.to_int (fst (Spd_sim.Interp.observe fwd)))

let test_forwarding_respects_clobbers () =
  (* the intervening may-alias store must kill the forwarded value *)
  let src =
    {|
int a[10];
int touch(int v[], int i, int j) {
  int x;
  v[i] = 7;
  v[j] = 9;
  x = v[i];
  return x;
}
int main() { return touch(a, 2, 2); }
|}
  in
  let prog = compile src in
  let fwd = A.Forwarding.run prog in
  check_bool "same behaviour (aliased clobber)" true
    (Spd_sim.Interp.observe prog = Spd_sim.Interp.observe fwd);
  check_int "result is the clobbered value" 9
    (Value.to_int (fst (Spd_sim.Interp.observe fwd)))

let test_forwarding_preserves_workloads () =
  List.iter
    (fun (w : Spd_workloads.Workload.t) ->
      let prog = compile w.source in
      check_bool (w.name ^ " behaviour preserved") true
        (Spd_sim.Interp.observe prog
        = Spd_sim.Interp.observe (A.Forwarding.run prog)))
    Spd_workloads.Registry.all

let tests =
  [
    qcase prop_sub_self;
    qcase prop_add_comm;
    qcase prop_scale_distributes;
    qcase prop_compare_sym_order;
    qcase prop_sub_one_pass;
    case "affine analysis of subscripts" test_affine_analyze;
    case "memarcs pair construction" test_memarcs_pairs;
    case "ddg asap chain" test_ddg_asap;
    case "ddg arc weights" test_ddg_arc_weights;
    case "ddg height" test_ddg_height;
    case "frontend forwards reload" test_frontend_forwards_reload;
    case "forwarding pass removes reload" test_forwarding_pass_removes_reload;
    case "forwarding respects clobbers" test_forwarding_respects_clobbers;
    case "forwarding preserves all workloads" test_forwarding_preserves_workloads;
  ]

(* ------------------------------------------------------------------ *)
(* Grafting (loop unrolling) *)

let test_unroll_shape () =
  let prog =
    compile
      {|
int a[64];
int main() {
  int i; int s;
  s = 0;
  for (i = 0; i < 50; i = i + 1) { a[i] = i; s = s + a[i]; }
  return s;
}
|}
  in
  let prog = A.Forwarding.run prog in
  let main = Prog.find_func prog "main" in
  let loop =
    List.find
      (fun (t : Tree.t) ->
        match A.Unroll.self_loop t with Some _ -> true | None -> false)
      main.trees
  in
  match A.Unroll.unroll_once loop with
  | None -> Alcotest.fail "expected the loop tree to unroll"
  | Some t' ->
      check_bool "roughly doubled" true
        (Array.length t'.insns >= (2 * Array.length loop.insns) - 2);
      check_int "three exits" 3 (Array.length t'.exits);
      (* still a valid self-loop on the combined condition *)
      (match t'.exits.(0).kind with
      | Tree.Jump { target; _ } -> check_int "back edge" loop.id target
      | _ -> Alcotest.fail "first exit should be the back edge")

let test_unroll_preserves_workloads () =
  (* grafting must never change behaviour: the grafted NAIVE and SPEC
     programs must behave like the ungrafted program (prepare ~check:true
     also raises when grafted SPEC departs from grafted NAIVE) *)
  let module P = Spd_harness.Pipeline in
  List.iter
    (fun (w : Spd_workloads.Workload.t) ->
      let lowered = compile w.source in
      let expected = Spd_sim.Interp.observe lowered in
      let config = P.Config.v ~graft:true ~mem_latency:2 () in
      let spec = P.prepare ~config P.Spec lowered in
      List.iter
        (fun (what, prog) ->
          if Spd_sim.Interp.observe prog <> expected then
            Alcotest.failf "%s: grafted %s behaves unlike the ungrafted program"
              w.name what)
        [ ("NAIVE", P.naive ~config lowered); ("SPEC", spec.prog) ])
    Spd_workloads.Registry.all

let test_unroll_respects_size_cap () =
  let prog = compile (Spd_workloads.Registry.by_name "bcuint").source in
  let prog = A.Forwarding.run prog in
  let small_cap = A.Unroll.run ~max_tree_size:1 prog in
  check_int "cap 1 leaves the program unchanged"
    (Prog.code_size prog) (Prog.code_size small_cap)

let more_tests =
  [
    case "unroll shape" test_unroll_shape;
    case "unroll preserves all workloads" test_unroll_preserves_workloads;
    case "unroll size cap" test_unroll_respects_size_cap;
  ]

let tests = tests @ more_tests
