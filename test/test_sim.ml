(** Simulator tests: pure evaluation, guarded commit semantics, calls and
    recursion frames, non-faulting speculative loads, timing accumulation,
    profiling, and pricing from path histograms (the packed path key
    and the dot product that must equal a timed run's cycles). *)

open Util
module Ir = Spd_ir
module Sim = Spd_sim
open Ir

let case name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Pure evaluation *)

let test_eval_int () =
  let e op a b = Sim.Eval.eval_pure (Opcode.Ibin op) [ Value.Int a; Value.Int b ] in
  check_bool "add" true (Value.equal (e Opcode.Add 2 3) (Value.Int 5));
  check_bool "div trunc" true (Value.equal (e Opcode.Div 7 2) (Value.Int 3));
  check_bool "neg div" true (Value.equal (e Opcode.Div (-7) 2) (Value.Int (-3)));
  check_bool "rem sign" true (Value.equal (e Opcode.Rem (-7) 2) (Value.Int (-1)));
  check_bool "xor" true (Value.equal (e Opcode.Xor 12 10) (Value.Int 6));
  (match e Opcode.Div 1 0 with
  | exception Sim.Eval.Runtime_error _ -> ()
  | _ -> Alcotest.fail "division by zero accepted")

let test_eval_select_not () =
  let sel p = Sim.Eval.eval_pure Opcode.Select [ p; Value.Int 1; Value.Int 2 ] in
  check_bool "select true" true (Value.equal (sel (Value.Int 5)) (Value.Int 1));
  check_bool "select false" true (Value.equal (sel (Value.Int 0)) (Value.Int 2));
  check_bool "not" true
    (Value.equal (Sim.Eval.eval_pure Opcode.Not [ Value.Int 7 ]) Value.zero)

(* ------------------------------------------------------------------ *)
(* Guarded commit semantics through the frontend *)

let test_guarded_store_commit () =
  (* only the taken branch's store commits *)
  check_int "guarded stores" 5
    (ret_int
       {|
int a[2];
int main() {
  int flag;
  flag = 1;
  if (flag) a[0] = 5; else a[0] = 9;
  return a[0];
}
|})

let test_speculative_load_is_harmless () =
  (* the else-branch load executes speculatively from a wild index but is
     never observed *)
  check_int "wild speculative load" 1
    (ret_int
       {|
int a[4];
int main() {
  int flag; int x;
  flag = 1;
  if (flag) x = 1; else x = a[123456789];
  return x;
}
|})

let test_deep_recursion_frames () =
  (* each activation gets its own locals; 40 frames deep *)
  check_int "frame isolation" 820
    (ret_int
       {|
int sum_to(int n) {
  int local[4];
  int r;
  local[0] = n;
  if (n == 0) return 0;
  r = sum_to(n - 1);
  return r + local[0];
}
int main() { return sum_to(40); }
|})

let test_traversal_budget () =
  let prog =
    compile
      "int main() { int i; i = 0; while (i < 1) { i = i * 1; } return 0; }"
  in
  match Sim.Interp.run ~mem_words:1024 ~fuel:10_000 prog with
  | exception Sim.Interp.Sim_error (Sim.Interp.Fuel_exhausted 10_000, ctx)
    ->
      check_bool "context names the function" true (ctx.in_func = Some "main")
  | exception e ->
      Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "infinite loop not caught"

let test_eval_error_context () =
  (* a division by zero reaches the caller as a structured Sim_error
     carrying the faulting function and operation *)
  match run_src "int main() { int x; x = 0; return 1 / x; }" with
  | exception Sim.Interp.Sim_error (Sim.Interp.Eval_error _, ctx) ->
      check_bool "context names the function" true (ctx.in_func = Some "main");
      check_bool "context names the op" true (ctx.at_op <> None)
  | exception e ->
      Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "division by zero accepted"

(* ------------------------------------------------------------------ *)
(* Timing: hand-built table, checked against a known trace *)

let test_timing_accumulates () =
  let prog = compile "int main() { int i; int s; s = 0; for (i = 0; i < 10; i = i + 1) s = s + i; return s; }" in
  let descr = Spd_machine.Descr.infinite ~mem_latency:2 in
  let timing = Spd_machine.Timing_builder.program descr prog in
  let r = Sim.Interp.run ~timing prog in
  check_int "result" 45 (Value.to_int r.ret);
  check_bool "cycles positive" true (r.cycles > 0);
  (* tighter machine cannot be faster *)
  let narrow =
    Spd_machine.Timing_builder.program (Spd_machine.Descr.fus 1 ~mem_latency:2) prog
  in
  let r1 = Sim.Interp.run ~timing:narrow prog in
  check_bool "1 FU no faster than infinite" true (r1.cycles >= r.cycles)

let test_memory_latency_hurts () =
  let prog =
    compile
      {|
double a[64];
int main() {
  int i; double s;
  s = 0.0;
  for (i = 0; i < 64; i = i + 1) a[i] = i;
  for (i = 0; i < 64; i = i + 1) s = s + a[i];
  return (int)s;
}
|}
  in
  let cycles lat =
    (Sim.Interp.run
       ~timing:
         (Spd_machine.Timing_builder.program
            (Spd_machine.Descr.infinite ~mem_latency:lat)
            prog)
       prog)
      .cycles
  in
  check_bool "6-cycle memory slower than 2-cycle" true (cycles 6 > cycles 2)

(* ------------------------------------------------------------------ *)
(* Profiling *)

let test_profile_exit_counts () =
  let prog =
    compile
      "int main() { int i; int s; s = 0; for (i = 0; i < 10; i = i + 1) s = s + i; return s; }"
  in
  let profile = Sim.Profile.create () in
  ignore (Sim.Interp.run ~profile prog);
  (* the loop tree: 10 back-edge traversals, 1 exit *)
  let main = Prog.find_func prog "main" in
  let loop =
    List.find
      (fun (t : Tree.t) ->
        Array.exists
          (fun (e : Tree.exit) ->
            match e.kind with
            | Tree.Jump { target; _ } -> target = t.id
            | _ -> false)
          t.exits)
      main.trees
  in
  match Sim.Profile.find profile ~func:"main" ~tree_id:loop.id with
  | None -> Alcotest.fail "loop tree not profiled"
  | Some stat ->
      check_int "traversals" 11 stat.traversals;
      check_int "back edge taken" 10 stat.exit_taken.(0);
      check_int "fall through taken" 1 stat.exit_taken.(1);
      check_close "exit probability"
        (10.0 /. 11.0)
        (Sim.Profile.exit_probability profile ~func:"main" ~tree:loop 0)

let test_profile_alias_counts () =
  (* i and j sweep together: a[i] and a[j] alias on every traversal where
     i = j, i.e. always; a[i] and a[i+1] never *)
  let prog =
    compile
      {|
int a[40];
int main() {
  int i;
  for (i = 0; i < 20; i = i + 1) {
    a[i] = i;
    a[i + 1] = a[i] + 1;
  }
  return a[10];
}
|}
  in
  let prog = Spd_analysis.Memarcs.annotate prog in
  let profile = Sim.Profile.create () in
  ignore (Sim.Interp.run ~profile prog);
  let checked = ref 0 in
  Prog.iter_trees
    (fun func (t : Tree.t) ->
      List.iter
        (fun (arc : Memdep.t) ->
          match
            Sim.Profile.alias_probability profile ~func ~tree_id:t.id
              ~src:arc.src ~dst:arc.dst
          with
          | None -> ()
          | Some p ->
              incr checked;
              check_bool "alias probability in [0,1]" true (p >= 0.0 && p <= 1.0))
        t.arcs)
    prog;
  check_bool "some arcs profiled" true (!checked > 0)

let test_output_order () =
  let out =
    output
      {|
int main() {
  int i;
  for (i = 0; i < 3; i = i + 1) print_int(i * i);
  return 0;
}
|}
  in
  Alcotest.(check (list value))
    "squares in order"
    [ Value.Int 0; Value.Int 1; Value.Int 4 ]
    out

(* ------------------------------------------------------------------ *)
(* The packed path key of the histogram *)

let test_histogram_key_packing () =
  let open Sim.Histogram in
  (* distinct (taken, gmask) pairs pack to distinct keys *)
  let keys = Hashtbl.create 64 in
  for taken = 0 to 3 do
    for gmask = 0 to 15 do
      let k = key ~taken ~gmask ~n_guarded_stores:4 in
      if Hashtbl.mem keys k then Alcotest.failf "key collision at %d" k;
      Hashtbl.add keys k ()
    done
  done;
  check_int "all pairs distinct" 64 (Hashtbl.length keys)

let test_histogram_key_bounds () =
  let open Sim.Histogram in
  (* at the bound a full commit mask and a large exit index still fit a
     non-negative int and unpack to themselves *)
  let n = max_guarded_stores in
  let gmask = (1 lsl n) - 1 in
  let k = key ~taken:1000 ~gmask ~n_guarded_stores:n in
  check_bool "boundary key non-negative" true (k >= 0);
  check_int "exit unpacks" 1000 (k lsr n);
  check_int "mask unpacks" gmask (k land gmask)

(* ------------------------------------------------------------------ *)
(* Pricing: cycles folded from one run's path histogram *)

let widths =
  Spd_machine.Descr.Infinite
  :: List.map (fun n -> Spd_machine.Descr.Fus n) [ 1; 2; 4; 8 ]

(* priced cycles must equal a timed run's on every machine; returns the
   run and its histogram *)
let check_priced name prog =
  let histogram = Sim.Histogram.create () in
  let r = Sim.Interp.run ~histogram prog in
  List.iter
    (fun mem_latency ->
      List.iter
        (fun width ->
          let timing =
            Spd_machine.Timing_builder.program
              { Spd_machine.Descr.width; mem_latency } prog
          in
          check_int
            (Fmt.str "%s: priced = timed (%a, lat %d)" name
               Spd_machine.Descr.pp_width width mem_latency)
            (Sim.Interp.run ~timing prog).cycles
            (Sim.Histogram.price histogram timing))
        widths)
    [ 2; 6 ];
  (r, histogram)

let guarded_stores (t : Tree.t) =
  Array.fold_left
    (fun n (i : Insn.t) ->
      if Insn.is_store i && i.guard <> None then n + 1 else n)
    0 t.insns

let max_guarded prog =
  let m = ref 0 in
  Prog.iter_trees (fun _ t -> m := max !m (guarded_stores t)) prog;
  !m

(* 45 guarded stores in one tree: more than a packed key holds, so its
   paths are counted under their exact commit sets *)
let test_price_wide_tree () =
  let stores sign =
    String.concat " "
      (List.init 45 (fun k -> Printf.sprintf "a[%d] = i %s %d;" k sign k))
  in
  let prog =
    compile
      (Printf.sprintf
         {|
int a[64];
int main() {
  int i; int s;
  s = 0;
  for (i = 0; i < 30; i = i + 1) {
    if (i %% 3 == 0) { %s } else { %s }
    s = s + a[i %% 45];
  }
  return s;
}
|}
         (stores "+") (stores "-"))
  in
  check_bool "a tree holds more than a packed key's guarded stores" true
    (max_guarded prog > Sim.Histogram.max_guarded_stores);
  ignore (check_priced "wide tree" prog)

(* a shape the interpreter does not execute fails the run before the
   first traversal, naming its function and tree: a guarded store that
   also names a destination, and a jump to a tree that does not exist *)
let test_malformed_rejected () =
  let prog =
    compile
      {|
int a[8];
int main() {
  int i; int s;
  s = 0;
  for (i = 0; i < 20; i = i + 1) {
    if (i % 3 == 0) a[i % 8] = i; else a[(i + 1) % 8] = s;
    s = s + a[i % 8];
  }
  return s;
}
|}
  in
  (* rewrite the first tree of [main] that [edit] changes *)
  let rewrite edit =
    let edited = ref None in
    let prog =
      Prog.map_trees
        (fun fname (t : Tree.t) ->
          match !edited with
          | None when fname = "main" -> (
              match edit t with
              | Some t' ->
                  edited := Some t.id;
                  t'
              | None -> t)
          | _ -> t)
        prog
    in
    (prog, Option.get !edited)
  in
  let rejected what (prog, tree_id) =
    match Sim.Interp.run prog with
    | exception Sim.Interp.Sim_error (Sim.Interp.Malformed _, ctx) ->
        check_bool (what ^ ": names main") true (ctx.in_func = Some "main");
        check_bool (what ^ ": names the tree") true
          (ctx.in_tree = Some tree_id);
        check_bool (what ^ ": names the shape") true (ctx.at_op <> None)
    | exception e ->
        Alcotest.failf "%s: wrong exception: %s" what (Printexc.to_string e)
    | _ -> Alcotest.failf "%s: ran" what
  in
  rejected "store with a destination"
    (rewrite (fun t ->
         let spare = Reg.Set.fold max (Tree.all_regs t) 0 + 1 in
         match
           Array.find_index
             (fun (i : Insn.t) -> Insn.is_store i && i.guard <> None)
             t.insns
         with
         | None -> None
         | Some pos ->
             let insns = Array.copy t.insns in
             insns.(pos) <- { (insns.(pos)) with dst = Some spare };
             Some { t with insns }));
  rejected "jump to a missing tree"
    (rewrite (fun t ->
         let retarget (e : Tree.exit) =
           match e.kind with
           | Tree.Jump j ->
               { e with kind = Tree.Jump { j with target = 1_000_000 } }
           | _ -> e
         in
         let exits = Array.map retarget t.exits in
         if exits = t.exits then None else Some { t with exits }))

let tests =
  [
    case "eval int ops" test_eval_int;
    case "eval select/not" test_eval_select_not;
    case "guarded store commit" test_guarded_store_commit;
    case "speculative load non-faulting" test_speculative_load_is_harmless;
    case "recursion frames" test_deep_recursion_frames;
    case "traversal budget" test_traversal_budget;
    case "eval error context" test_eval_error_context;
    case "timing accumulates" test_timing_accumulates;
    case "memory latency hurts" test_memory_latency_hurts;
    case "profile exit counts" test_profile_exit_counts;
    case "profile alias counts" test_profile_alias_counts;
    case "output order" test_output_order;
    case "histogram key packing is injective" test_histogram_key_packing;
    case "histogram key bounds" test_histogram_key_bounds;
    case "pricing: tree beyond the packed key" test_price_wide_tree;
    case "malformed instruction and exit are rejected"
      test_malformed_rejected;
  ]
