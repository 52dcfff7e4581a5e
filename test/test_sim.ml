(** Simulator tests: pure evaluation, guarded commit semantics, calls and
    recursion frames, the call path's error exits, non-faulting
    speculative loads, timing accumulation, profiling, and pricing from
    path histograms (the packed path key, and the dot product that must
    equal a timed run's cycles in every representation of the counts).
    IR-level programs pin the unboxed run state: staged exit copies,
    constructors carried through loads, memory and calls, the pooled
    image's re-zeroing, register files that cover every register a
    function mentions, the globals check, and a traversal that
    allocates nothing. *)

open Util
module Ir = Spd_ir
module Sim = Spd_sim
open Ir

let case name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Pure evaluation *)

let test_eval_int () =
  let e op a b =
    Sim.Interp.eval_pure (Opcode.Ibin op) [ Value.Int a; Value.Int b ]
  in
  check_bool "add" true (Value.equal (e Opcode.Add 2 3) (Value.Int 5));
  check_bool "div trunc" true (Value.equal (e Opcode.Div 7 2) (Value.Int 3));
  check_bool "neg div" true (Value.equal (e Opcode.Div (-7) 2) (Value.Int (-3)));
  check_bool "rem sign" true (Value.equal (e Opcode.Rem (-7) 2) (Value.Int (-1)));
  check_bool "xor" true (Value.equal (e Opcode.Xor 12 10) (Value.Int 6));
  (match e Opcode.Div 1 0 with
  | exception Sim.Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "division by zero accepted")

let test_eval_select_not () =
  let sel p =
    Sim.Interp.eval_pure Opcode.Select [ p; Value.Int 1; Value.Int 2 ]
  in
  check_bool "select true" true (Value.equal (sel (Value.Int 5)) (Value.Int 1));
  check_bool "select false" true (Value.equal (sel (Value.Int 0)) (Value.Int 2));
  check_bool "not" true
    (Value.equal (Sim.Interp.eval_pure Opcode.Not [ Value.Int 7 ]) Value.zero)

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
(* The call path's error exits: each names the call site, the caller's
   function and tree *)

(* the id of the tree of [caller] whose exit calls [callee] *)
let call_site prog ~caller ~callee =
  let f = Prog.find_func prog caller in
  match
    List.find_opt
      (fun (t : Tree.t) ->
        Array.exists
          (fun (e : Tree.exit) ->
            match e.kind with
            | Tree.Call c -> c.callee = callee
            | _ -> false)
          t.exits)
      f.trees
  with
  | Some t -> t.id
  | None -> Alcotest.failf "%s does not call %s" caller callee

let check_call_site what prog ~caller ~callee (ctx : Sim.Interp.error_context)
    =
  check_bool (what ^ ": names the caller") true (ctx.in_func = Some caller);
  check_bool (what ^ ": names the calling tree") true
    (ctx.in_tree = Some (call_site prog ~caller ~callee))

let test_call_depth_exceeded () =
  let prog =
    compile
      {|
int down(int n) {
  int r;
  r = down(n + 1);
  return r;
}
int main() { return down(0); }
|}
  in
  match Sim.Interp.run prog with
  | exception
      Sim.Interp.Sim_error (Sim.Interp.Call_depth_exceeded 100_000, ctx) ->
      check_call_site "unbounded recursion" prog ~caller:"down" ~callee:"down"
        ctx
  | exception e ->
      Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "unbounded recursion ran to completion"

(* every return pops its frame: more calls than the depth bound, one
   frame deep each, run to completion *)
let test_sequential_calls () =
  check_int "100005 calls" 100_005
    (ret_int
       {|
int inc(int x) { return x + 1; }
int main() {
  int i; int s;
  s = 0;
  for (i = 0; i < 100005; i = i + 1) s = inc(s);
  return s;
}
|})

let test_stack_overflow_context () =
  let prog =
    compile
      {|
int big(int x) {
  int local[5000];
  local[0] = x;
  return local[0];
}
int main() {
  int i; int s;
  s = 0;
  for (i = 0; i < 3; i = i + 1) s = s + i;
  return big(s);
}
|}
  in
  match Sim.Interp.run ~mem_words:4096 prog with
  | exception Sim.Interp.Sim_error (Sim.Interp.Stack_overflow, ctx) ->
      check_call_site "stack overflow" prog ~caller:"main" ~callee:"big" ctx
  | exception e ->
      Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "a 5000-word frame fit in 4096 words"

(* a callee the program does not define fails when the call executes,
   not when its tree is compiled *)
let test_unknown_function () =
  let prog flag =
    compile
      (Printf.sprintf
         {|
int flag;
int helper(int x) { return x + 1; }
int main() {
  int s;
  s = 0;
  flag = %d;
  if (flag == 1) s = helper(s);
  return s + 7;
}
|}
         flag)
    |> Prog.map_trees (fun _ (t : Tree.t) ->
           let rename (e : Tree.exit) =
             match e.kind with
             | Tree.Call c when c.callee = "helper" ->
                 { e with kind = Tree.Call { c with callee = "missing" } }
             | _ -> e
           in
           { t with exits = Array.map rename t.exits })
  in
  check_int "never taken" 7 (Value.to_int (Sim.Interp.run (prog 0)).ret);
  let taken = prog 1 in
  match Sim.Interp.run taken with
  | exception Sim.Interp.Sim_error (Sim.Interp.Unknown_function "missing", ctx)
    ->
      check_call_site "unknown function" taken ~caller:"main"
        ~callee:"missing" ctx
  | exception e ->
      Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "a call of an undefined function ran"

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

(* The paths of one run counted as the histogram once counted every
   tree that packs: a table per tree from packed key to traversals,
   filled from the traversal-cost callback.  The reference the
   histogram's representations are held to. *)
let keyed_paths prog : Sim.Histogram.path list =
  let trees = Hashtbl.create 16 in
  let traversal_cost ~func ~(tree : Tree.t) ~addrs:_ ~active ~taken =
    let gstores, counts =
      match Hashtbl.find_opt trees (func, tree.id) with
      | Some t -> t
      | None ->
          let guarded pos =
            Insn.is_store tree.insns.(pos) && tree.insns.(pos).guard <> None
          in
          let gstores =
            List.filter guarded (List.init (Array.length tree.insns) Fun.id)
          in
          let t = (gstores, Hashtbl.create 8) in
          Hashtbl.add trees (func, tree.id) t;
          t
    in
    let gmask =
      List.fold_left
        (fun m (i, pos) -> if active.(pos) then m lor (1 lsl i) else m)
        0
        (List.mapi (fun i pos -> (i, pos)) gstores)
    in
    let key = (taken lsl List.length gstores) lor gmask in
    (match Hashtbl.find_opt counts key with
    | Some n -> incr n
    | None -> Hashtbl.add counts key (ref 1));
    0
  in
  ignore (Sim.Interp.run ~traversal_cost prog);
  Hashtbl.fold
    (fun (func, tree_id) (gstores, counts) acc ->
      let n = List.length gstores in
      Hashtbl.fold
        (fun key count acc ->
          {
            Sim.Histogram.func;
            tree_id;
            taken = key lsr n;
            committed =
              List.filteri (fun i _ -> key land (1 lsl i) <> 0) gstores;
            count = !count;
          }
          :: acc)
        counts acc)
    trees []
  |> List.sort compare

(* One tree whose keys fit the dense array and one, with 16 guarded
   stores, whose keys do not but still pack: each prices like a timed
   run, and their paths equal the keyed reference's. *)
let test_price_dense_and_keyed () =
  let stores base sign =
    String.concat " "
      (List.init 8 (fun k ->
           Printf.sprintf "a[%d] = i %s %d;" (base + k) sign k))
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
    s = s + a[i %% 16];
  }
  for (i = 0; i < 30; i = i + 1) {
    if (i %% 2 == 0) a[i] = s; else a[i + 1] = i;
    s = s + a[i];
  }
  return s;
}
|}
         (stores 0 "+") (stores 8 "-"))
  in
  let keys (t : Tree.t) = Array.length t.exits lsl guarded_stores t in
  let has p =
    let found = ref false in
    Prog.iter_trees (fun _ t -> if p t then found := true) prog;
    !found
  in
  check_bool "a tree with guarded stores fits the dense array" true
    (has (fun t -> guarded_stores t > 0 && keys t <= Sim.Histogram.dense_keys));
  check_bool "a tree packs but does not fit the dense array" true
    (has (fun t ->
         keys t > Sim.Histogram.dense_keys
         && guarded_stores t <= Sim.Histogram.max_guarded_stores));
  let _, histogram = check_priced "dense and keyed" prog in
  check_bool "paths equal the keyed reference's" true
    (Sim.Histogram.paths histogram = keyed_paths prog)

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

(* ------------------------------------------------------------------ *)
(* IR-level programs: shapes and values the front end never produces.
   Instruction ids follow positions; no tree carries arcs. *)

let tree ?(params = []) id insns exits =
  Tree.make ~id ~name:(Printf.sprintf "t%d" id) ~params
    ~insns:
      (Array.of_list
         (List.mapi (fun k (op, dst, srcs) -> Insn.make ~id:k op ~dst ~srcs) insns))
    ~exits:(Array.of_list exits) ~arcs:[] ~ranges:Reg.Map.empty ()

let op o d srcs = (o, Some d, srcs)
let const d v = op (Opcode.Const v) d []
let int d n = const d (Value.Int n)
let flt d f = const d (Value.Float f)
let add d a b = op (Opcode.Ibin Opcode.Add) d [ a; b ]
let lt d a b = op (Opcode.Icmp Opcode.Lt) d [ a; b ]
let load d a = op Opcode.Load d [ a ]
let store a v = (Opcode.Store, None, [ a; v ])
let addr d g = op (Opcode.Addrof (Opcode.Global g)) d []

let tree_exit ?guard kind =
  {
    Tree.xguard = Option.map (fun greg -> { Insn.greg; positive = true }) guard;
    kind;
  }

let jump ?guard target args = tree_exit ?guard (Tree.Jump { target; args })
let return r = tree_exit (Tree.Return { value = Some r })

let call callee args ?ret return_to cont =
  tree_exit
    (Tree.Call { callee; call_args = args; ret; return_to; cont_args = cont })

let func ?(params = []) name trees =
  (name, { Prog.fname = name; fparams = params; frame_words = 0; entry = 0; trees })

let global gname ginit = { Prog.gname; words = Array.length ginit; ginit }
let prog ?(globals = []) funcs = { Prog.funcs; globals; main = "main" }

let check_value msg want got = Alcotest.check value msg want got

(* Exits whose arguments rotate and then swap the target's parameters:
   a destination is read by a later argument, so only a staged copy is
   right (no exit of the paper programs needs one). *)
let test_parallel_copies () =
  let p =
    prog
      [
        func "main"
          [
            tree 0 [ int 0 1; int 1 2; int 2 3; int 3 0 ] [ jump 1 [ 0; 1; 2; 3 ] ];
            tree 1 ~params:[ 0; 1; 2; 3 ]
              [ int 5 1; add 4 3 5; int 6 4; lt 7 3 6 ]
              [ jump ~guard:7 1 [ 1; 2; 0; 4 ]; jump 2 [ 1; 0; 2 ] ];
            tree 2 ~params:[ 0; 1; 2 ]
              [
                int 8 100;
                int 9 10;
                op (Opcode.Ibin Opcode.Mul) 10 [ 0; 8 ];
                op (Opcode.Ibin Opcode.Mul) 11 [ 1; 9 ];
                add 12 10 11;
                add 13 12 2;
              ]
              [ return 13 ];
          ];
      ]
  in
  (* four rotations of (1, 2, 3) give (2, 3, 1); the swap (3, 2, 1) *)
  check_value "rotated four times, then swapped" (Value.Int 321)
    (Sim.Interp.run p).ret

(* A loop that loads, per traversal, the word at [w + offs.(i)] into one
   register, sums its int and float views, prints both sums and returns
   the last word loaded. *)
let loads offs =
  prog
    ~globals:
      [
        global "w" [| Value.Int 7; Value.Float 2.5 |];
        global "offs" (Array.of_list (List.map (fun o -> Value.Int o) offs));
      ]
    [
      func "main"
        [
          tree 0 [ int 0 0; int 1 0; flt 2 0.0; int 3 0 ] [ jump 1 [ 0; 1; 2; 3 ] ];
          tree 1 ~params:[ 0; 1; 2; 3 ]
            [
              addr 4 "offs";
              add 5 4 0;
              load 6 5;
              addr 7 "w";
              add 8 7 6;
              load 9 8;
              add 10 1 9;
              op (Opcode.Fbin Opcode.Fadd) 11 [ 2; 9 ];
              int 12 1;
              add 13 0 12;
              int 14 (List.length offs);
              lt 15 13 14;
            ]
            [ jump ~guard:15 1 [ 13; 10; 11; 9 ]; jump 2 [ 10; 11; 9 ] ];
          tree 2 ~params:[ 1; 2; 3 ] [] [ call "print_int" [ 1 ] 3 [ 2; 3 ] ];
          tree 3 ~params:[ 2; 3 ] [] [ call "print_float" [ 2 ] 4 [ 3 ] ];
          tree 4 ~params:[ 3 ] [] [ return 3 ];
        ];
    ]

let check_loads what offs ~sums ~last =
  let r = Sim.Interp.run (loads offs) in
  Alcotest.(check (list value)) (what ^ ": int and float sums") sums r.output;
  check_value (what ^ ": the last word, constructor included") last r.ret

(* one load destination holds an [Int] on one traversal and a [Float]
   on the next, in either order; a wild address yields [Int 0] *)
let test_load_tags () =
  let sums i f = [ Value.Int i; Value.Float f ] in
  check_loads "Int, then Float" [ 0; 1 ] ~sums:(sums 9 9.5)
    ~last:(Value.Float 2.5);
  check_loads "Float, then Int" [ 1; 0 ] ~sums:(sums 9 9.5) ~last:(Value.Int 7);
  check_loads "Float, then past memory" [ 1; 1 lsl 40 ] ~sums:(sums 2 2.5)
    ~last:(Value.Int 0);
  check_loads "Float, then below memory" [ 1; -100 ] ~sums:(sums 2 2.5)
    ~last:Value.zero

(* A [Float] stored and loaded back, chosen by [Select] on either
   predicate, moved, passed to a call and returned keeps its
   constructor. *)
let test_float_round_trip () =
  let p =
    prog
      ~globals:[ global "g" [| Value.Int 0 |] ]
      [
        func "main"
          [
            tree 0
              [
                flt 0 1.5;
                addr 1 "g";
                store 1 0;
                load 2 1;
                int 3 1;
                int 4 0;
                op Opcode.Select 5 [ 3; 2; 4 ];
                op Opcode.Mov 6 [ 5 ];
              ]
              [ call "ident" [ 6 ] ~ret:7 1 [] ];
            tree 1 ~params:[ 7 ]
              [ int 8 0; int 9 5; op Opcode.Select 10 [ 8; 9; 7 ] ]
              [ call "print_float" [ 10 ] 2 [ 10 ] ];
            tree 2 ~params:[ 10 ] [] [ return 10 ];
          ];
        func "ident" ~params:[ 0 ]
          [
            tree 0 ~params:[ 0 ]
              [ op Opcode.Mov 1 [ 0 ]; addr 2 "g"; store 2 1; load 3 2 ]
              [ return 3 ];
          ];
      ]
  in
  let r = Sim.Interp.run p in
  check_value "returned as a Float" (Value.Float 1.5) r.ret;
  Alcotest.(check (list value)) "printed" [ Value.Float 1.5 ] r.output

(* [fill n] stores [Float (a + 0.5)] at every address [a] of
   [base, base + n) and returns the word at [base]; [scan ~from n]
   counts the words of [from, from + n) whose int or float view is
   nonzero (twice per dirty word); [peek a] returns the word at [a].
   The span starts below a multiple of 4096 words, so it crosses a page
   of the image. *)
let base = 4000

let fill n =
  prog
    [
      func "main"
        [
          tree 0 [ int 0 base; int 1 (base + n) ] [ jump 1 [ 0; 1 ] ];
          tree 1 ~params:[ 0; 1 ]
            [
              op Opcode.Itof 2 [ 0 ];
              flt 3 0.5;
              op (Opcode.Fbin Opcode.Fadd) 4 [ 2; 3 ];
              store 0 4;
              int 5 1;
              add 6 0 5;
              lt 7 6 1;
            ]
            [ jump ~guard:7 1 [ 6; 1 ]; jump 2 [] ];
          tree 2 [ int 8 base; load 9 8 ] [ return 9 ];
        ];
    ]

let scan ?globals ~from n =
  prog ?globals
    [
      func "main"
        [
          tree 0 [ int 0 from; int 1 (from + n); int 2 0 ] [ jump 1 [ 0; 1; 2 ] ];
          tree 1 ~params:[ 0; 1; 2 ]
            [
              load 3 0;
              int 4 0;
              op (Opcode.Icmp Opcode.Ne) 5 [ 3; 4 ];
              flt 6 0.0;
              op (Opcode.Fcmp Opcode.Fne) 7 [ 3; 6 ];
              add 8 2 5;
              add 9 8 7;
              int 10 1;
              add 11 0 10;
              lt 12 11 1;
            ]
            [ jump ~guard:12 1 [ 11; 1; 9 ]; return 9 ];
        ];
    ]

let peek a = prog [ func "main" [ tree 0 [ int 0 a; load 1 0 ] [ return 1 ] ] ]

(* A pooled memory image that one run dirtied reads zero in the next,
   whether the run's stores were re-zeroed one by one (the dirty list,
   grown once past its first 256 entries) or, past [mem_words / 8]
   stores, wholesale; so does a page no run wrote. *)
let test_pooled_image_reuse () =
  let mem_words = 16384 in
  let run p = (Sim.Interp.run ~mem_words p).ret in
  (* the scan sees nonzero words: 40 initialised globals from address 16 *)
  check_value "the scan counts a nonzero word twice" (Value.Int 80)
    (run (scan ~globals:[ global "g" (Array.make 40 (Value.Float 1.5)) ] ~from:16 40));
  List.iter
    (fun (path, n) ->
      check_value (path ^ ": the fill stored")
        (Value.Float (float_of_int base +. 0.5))
        (run (fill n));
      check_value (path ^ ": no word left dirty") (Value.Int 0)
        (run (scan ~from:base n));
      List.iter
        (fun a ->
          check_value (Printf.sprintf "%s: word %d is Int 0" path a) Value.zero
            (run (peek a)))
        [ base; base + n - 1; mem_words - 100 ])
    [ ("dirty list", 300); ("overflow", (mem_words / 8) + 88) ]

(* The register file covers every register a function mentions: here a
   callee parameter and a call's receiving register that nothing else
   mentions. *)
let test_register_file_bounds () =
  let p =
    prog
      [
        func "main"
          [
            tree 0 [ int 0 5 ] [ call "f" [ 0 ] ~ret:77 1 [] ];
            tree 1 [ int 1 42 ] [ call "print_int" [ 1 ] 2 [] ];
            tree 2 [ int 2 43 ] [ return 2 ];
          ];
        func "f" ~params:[ 50 ] [ tree 0 [ int 0 9 ] [ return 0 ] ];
      ]
  in
  let r = Sim.Interp.run p in
  Alcotest.(check (list value)) "output" [ Value.Int 42 ] r.output;
  check_value "result" (Value.Int 43) r.ret

(* an SpD watch whose predicate lies outside its function's registers
   fails the run before the first traversal *)
let test_watch_outside_file () =
  let p = prog [ func "main" [ tree 0 [ int 0 1 ] [ return 0 ] ] ] in
  let spd = Sim.Profile.Spd.create () in
  ignore (Sim.Profile.Spd.watch spd ~func:"main" ~tree_id:0 ~predicate:9);
  match Sim.Interp.run ~spd p with
  | exception Sim.Interp.Sim_error (Sim.Interp.Malformed _, ctx) ->
      check_bool "names the tree" true
        (ctx.in_func = Some "main" && ctx.in_tree = Some 0)
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "a predicate outside the file was read"

(* globals that do not fit fail before any of them is written *)
let test_globals_exceed_memory () =
  let prog = compile "int a[100]; int x = 5; int main() { return x; }" in
  check_int "fits" 5 (Value.to_int (Sim.Interp.run ~mem_words:1024 prog).ret);
  List.iter
    (fun mem_words ->
      match Sim.Interp.run ~mem_words prog with
      | exception Sim.Interp.Sim_error (Sim.Interp.Globals_exceed_memory, _) -> ()
      | exception e ->
          Alcotest.failf "%d words: wrong exception: %s" mem_words
            (Printexc.to_string e)
      | _ -> Alcotest.failf "%d words: ran" mem_words)
    [ 64; 116 ]

(* A call-free loop allocates the same minor words at 1,000 and 11,000
   iterations, with and without a profile and a histogram: a traversal
   allocates nothing. *)
let test_no_allocation_per_traversal () =
  let loop n =
    compile
      (Printf.sprintf
         {|
int a[16];
double f[16];
int main() {
  int i; int s; double t;
  s = 0; t = 0.5;
  for (i = 0; i < %d; i = i + 1) {
    a[i %% 16] = s;
    f[i %% 16] = t;
    if (i %% 3 == 0) s = s + a[(i + 5) %% 16]; else s = s - 1;
    t = t * 0.5 + f[(i + 1) %% 16] + (double)s;
  }
  return s + (int)t;
}
|}
         n)
  in
  let short = loop 1_000 and long = loop 11_000 in
  List.iter
    (fun instrumented ->
      let words p =
        let m0 = Gc.minor_words () in
        (if instrumented then
           ignore
             (Sim.Interp.run ~profile:(Sim.Profile.create ())
                ~histogram:(Sim.Histogram.create ()) p)
         else ignore (Sim.Interp.run p));
        Gc.minor_words () -. m0
      in
      ignore (words short);
      let a = words short in
      let b = words long in
      check_int
        (Printf.sprintf "minor words, %s"
           (if instrumented then "profile + histogram" else "plain"))
        (int_of_float a) (int_of_float b))
    [ false; true ]

let tests =
  [
    case "eval int ops" test_eval_int;
    case "eval select/not" test_eval_select_not;
    case "guarded store commit" test_guarded_store_commit;
    case "speculative load non-faulting" test_speculative_load_is_harmless;
    case "recursion frames" test_deep_recursion_frames;
    case "traversal budget" test_traversal_budget;
    case "eval error context" test_eval_error_context;
    case "call depth exceeded names the call site" test_call_depth_exceeded;
    case "sequential calls beyond the depth bound" test_sequential_calls;
    case "stack overflow names the call site" test_stack_overflow_context;
    case "unknown function fails when called" test_unknown_function;
    case "timing accumulates" test_timing_accumulates;
    case "memory latency hurts" test_memory_latency_hurts;
    case "profile exit counts" test_profile_exit_counts;
    case "profile alias counts" test_profile_alias_counts;
    case "output order" test_output_order;
    case "histogram key packing is injective" test_histogram_key_packing;
    case "histogram key bounds" test_histogram_key_bounds;
    case "pricing: tree beyond the packed key" test_price_wide_tree;
    case "pricing: dense and keyed path counts" test_price_dense_and_keyed;
    case "malformed instruction and exit are rejected"
      test_malformed_rejected;
    case "exit arguments that rotate and swap parameters" test_parallel_copies;
    case "a load destination holds Int, then Float" test_load_tags;
    case "a Float keeps its constructor through memory and calls"
      test_float_round_trip;
    case "a pooled image reads zero after a dirty run" test_pooled_image_reuse;
    case "the register file covers unmentioned params and receivers"
      test_register_file_bounds;
    case "a watch predicate outside the register file is rejected"
      test_watch_outside_file;
    case "globals past memory fail before any write"
      test_globals_exceed_memory;
    case "a traversal allocates nothing" test_no_allocation_per_traversal;
  ]
