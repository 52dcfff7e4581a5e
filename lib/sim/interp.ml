(** Cycle-level simulator.

    The interpreter executes decision trees traversal by traversal with
    sequential (original program order) semantics: every instruction is
    evaluated, stores commit only when their guard holds, and the first
    exit whose guard holds is taken.  This is the ground-truth semantics
    against which all disambiguator pipelines are validated.

    Orthogonally, when a {!Timing} table is supplied (built from a machine
    schedule or from the infinite-machine ASAP analysis), each traversal is
    charged [max(taken-exit completion, committed store completions)]
    cycles, and the total is the program's execution time on that machine —
    the paper's measurement methodology.  The harness prices pipeline
    cycles from a {!Histogram} instead ({!Histogram.price}, per tree
    {!Histogram.breakdown}); the timed run is the reference the tests
    hold that pricing to, and the loop the throughput gate times.

    The interpreter also fills in a {!Profile}: exit frequencies and
    dynamic alias counts per memory dependence arc (the PERFECT
    disambiguator's input); and a {!Histogram} of paths, which prices
    the run on every machine without running it again.

    Internally each run compiles every function once, before the first
    traversal, into one record: its trees as flat arrays of specialized
    operations (register numbers resolved, store guards encoded as ints,
    memory/store positions pre-indexed) and its call exits resolved to
    the callee's record.  A traversal therefore looks nothing up by
    name, hashes nothing and dispatches one shallow match per
    instruction; it allocates only the values it computes, and a call
    its frame.  An instruction or exit with no specialized form fails
    the run there, with [Malformed].

    Each opcode's semantics is defined once, in this unit, and shared by
    the traversal loop and {!eval_pure}.  It lives here rather than in a
    module of its own because a dev-profile build compiles every module
    with [-opaque], so no call across compilation units is inlined. *)

open Spd_ir

(* ------------------------------------------------------------------ *)
(* Structured simulator errors.  Every abnormal termination of a run
   carries a machine-readable kind plus the execution context (function,
   tree, faulting operation) at the point of failure, so harness layers
   can render and classify failures without parsing strings. *)

type error_kind =
  | Fuel_exhausted of int  (** the traversal budget that ran out *)
  | Deadline_exceeded of float  (** the wall-clock budget, seconds *)
  | Call_depth_exceeded of int
  | Stack_overflow
  | Store_out_of_bounds of int
  | Unknown_global of string
  | Unknown_function of string
  | No_such_tree of int
  | Globals_exceed_memory
  | Eval_error of string  (** a pure-evaluation fault, e.g. division by zero *)
  | Malformed of string
      (** an instruction or exit of a shape the interpreter does not
          execute, found when its tree is compiled *)

type error_context = {
  in_func : string option;
  in_tree : int option;
  at_op : string option;
}

let no_context = { in_func = None; in_tree = None; at_op = None }

exception Sim_error of error_kind * error_context

let pp_error_kind ppf = function
  | Fuel_exhausted n -> Fmt.pf ppf "fuel exhausted (%d traversals)" n
  | Deadline_exceeded s -> Fmt.pf ppf "deadline exceeded (%.3gs)" s
  | Call_depth_exceeded n -> Fmt.pf ppf "call depth exceeded (%d frames)" n
  | Stack_overflow -> Fmt.pf ppf "stack overflow"
  | Store_out_of_bounds a -> Fmt.pf ppf "store out of bounds: %d" a
  | Unknown_global g -> Fmt.pf ppf "unknown global %s" g
  | Unknown_function f -> Fmt.pf ppf "unknown function %s" f
  | No_such_tree id -> Fmt.pf ppf "no such tree %d" id
  | Globals_exceed_memory -> Fmt.pf ppf "globals exceed memory"
  | Eval_error msg -> Fmt.pf ppf "%s" msg
  | Malformed what -> Fmt.pf ppf "malformed %s" what

let pp_error ppf (kind, ctx) =
  pp_error_kind ppf kind;
  (match ctx.in_func with Some f -> Fmt.pf ppf " in %s" f | None -> ());
  (match ctx.in_tree with Some t -> Fmt.pf ppf ", tree %d" t | None -> ());
  match ctx.at_op with Some op -> Fmt.pf ppf ", at %s" op | None -> ()

let () =
  Printexc.register_printer (function
    | Sim_error (kind, ctx) ->
        Some (Fmt.str "Sim_error: %a" pp_error (kind, ctx))
    | _ -> None)

let fail ?(ctx = no_context) kind = raise (Sim_error (kind, ctx))

(** The default traversal budget of {!run} when no [fuel] is given. *)
let default_fuel = 60_000_000

(* frames a run may hold on its call stack *)
let max_call_depth = 100_000

type result = {
  ret : Value.t;  (** return value of [main] *)
  output : Value.t list;  (** values printed by the builtins, in order *)
  cycles : int;  (** total cycles; 0 when no timing table was given *)
  traversals : int;  (** number of tree traversals executed *)
}

(* ------------------------------------------------------------------ *)
(* Pure operations: the one definition of each opcode's semantics, used
   by the traversal loop and by [eval_pure].  Operands of the expected
   type decode in place; the others convert through [Value]. *)

exception Runtime_error of string

let[@inline] int_of = function Value.Int i -> i | v -> Value.to_int v
let[@inline] float_of = function Value.Float f -> f | v -> Value.to_float v
let[@inline] holds = function Value.Int i -> i <> 0 | v -> Value.is_true v
let[@inline] of_bool b = if b then Value.one else Value.zero

let[@inline] ibin (op : Opcode.ibin) a b =
  let x = int_of a and y = int_of b in
  Value.Int
    (match op with
    | Add -> x + y
    | Sub -> x - y
    | Mul -> x * y
    | Div ->
        if y = 0 then raise (Runtime_error "integer division by zero")
        else x / y
    | Rem ->
        if y = 0 then raise (Runtime_error "integer remainder by zero")
        else x mod y
    | And -> x land y
    | Or -> x lor y
    | Xor -> x lxor y
    | Shl -> x lsl (y land 63)
    | Shr -> x asr (y land 63))

let[@inline] icmp (op : Opcode.icmp) a b =
  let x = int_of a and y = int_of b in
  of_bool
    (match op with
    | Eq -> x = y
    | Ne -> x <> y
    | Lt -> x < y
    | Le -> x <= y
    | Gt -> x > y
    | Ge -> x >= y)

let[@inline] fbin (op : Opcode.fbin) a b =
  let x = float_of a and y = float_of b in
  Value.Float
    (match op with
    | Fadd -> x +. y
    | Fsub -> x -. y
    | Fmul -> x *. y
    | Fdiv -> x /. y)

let[@inline] fcmp (op : Opcode.fcmp) a b =
  let x = float_of a and y = float_of b in
  of_bool
    (match op with
    | Feq -> x = y
    | Fne -> x <> y
    | Flt -> x < y
    | Fle -> x <= y
    | Fgt -> x > y
    | Fge -> x >= y)

let[@inline] not_ a = of_bool (not (holds a))
let[@inline] ineg a = Value.Int (-int_of a)
let[@inline] fneg a = Value.Float (-.float_of a)
let[@inline] select p a b = if holds p then a else b
let[@inline] itof a = Value.Float (float_of a)
let[@inline] ftoi a = Value.Int (int_of a)

let eval_pure (op : Opcode.t) (srcs : Value.t list) : Value.t =
  match (op, srcs) with
  | Opcode.Ibin o, [ a; b ] -> ibin o a b
  | Opcode.Icmp o, [ a; b ] -> icmp o a b
  | Opcode.Fbin o, [ a; b ] -> fbin o a b
  | Opcode.Fcmp o, [ a; b ] -> fcmp o a b
  | Opcode.Not, [ a ] -> not_ a
  | Opcode.Ineg, [ a ] -> ineg a
  | Opcode.Fneg, [ a ] -> fneg a
  | Opcode.Mov, [ a ] -> a
  | Opcode.Select, [ p; a; b ] -> select p a b
  | Opcode.Const v, [] -> v
  | Opcode.Itof, [ a ] -> itof a
  | Opcode.Ftoi, [ a ] -> ftoi a
  | (Opcode.Load | Opcode.Store | Opcode.Addrof _), _ ->
      invalid_arg "Interp.eval_pure: not a pure operation"
  | _ -> invalid_arg "Interp.eval_pure: arity mismatch"

(* Lay out globals in low memory; returns the address map and the first
   free address.  Address 0 is reserved so that a stray null-ish pointer
   faults loudly in bounds checks of size-0 accesses. *)
let layout (prog : Prog.t) =
  let tbl = Hashtbl.create 16 in
  let next = ref 16 in
  List.iter
    (fun (g : Prog.global) ->
      Hashtbl.replace tbl g.gname !next;
      next := !next + g.words)
    prog.globals;
  ((fun name ->
     match Hashtbl.find_opt tbl name with
     | Some a -> a
     | None -> fail (Unknown_global name)),
   !next)

type traversal_cost =
  func:string ->
  tree:Tree.t ->
  addrs:int array ->
  active:bool array ->
  taken:int ->
  int
(** Per-traversal cost callback for dynamic timing models: receives the
    traversal's concrete memory addresses ([addrs], indexed by instruction
    position, [-1] for non-memory ops), which guarded operations committed
    ([active]) and the taken exit, and returns the traversal's cycles.
    Used by the hardware dynamic-disambiguation baseline, which resolves
    aliases with run-time address compares. *)

(* ------------------------------------------------------------------ *)
(* Compiled functions and trees.

   Register numbers, guard polarities, memory-op positions and callees
   are resolved once per run so the traversal loop looks nothing up.  A
   guard is one int: 0 = unguarded, [g+1] = positive on register [g],
   [-(g+1)] = negative.  The shapes below are the ones {!Insn.make} and
   {!Prog.validate} admit; any other raises [Malformed] with the tree's
   context. *)

type cop =
  | CLoad of { pos : int; addr : int; dst : int }
  | CStore of {
      pos : int;
      addr : int;
      src : int;
      guard : int;
      gidx : int;  (** index into the guarded-store mask; -1 unguarded *)
    }
  | CAddr_global of { dst : int; name : string; mutable cached : int }
  | CAddr_frame of { dst : int; off : int }
  | CConst of { dst : int; v : Value.t }
  | CMov of { dst : int; a : int }
  | CIbin of { op : Opcode.ibin; dst : int; a : int; b : int }
  | CIdiv of { op : Opcode.ibin; pos : int; dst : int; a : int; b : int }
      (** Div/Rem: the only pure ops that can fault, kept apart so the
          others dispatch without an exception handler *)
  | CIcmp of { op : Opcode.icmp; dst : int; a : int; b : int }
  | CFbin of { op : Opcode.fbin; dst : int; a : int; b : int }
  | CFcmp of { op : Opcode.fcmp; dst : int; a : int; b : int }
  | CNot of { dst : int; a : int }
  | CIneg of { dst : int; a : int }
  | CFneg of { dst : int; a : int }
  | CSelect of { dst : int; p : int; a : int; b : int }
  | CItof of { dst : int; a : int }
  | CFtoi of { dst : int; a : int }

type carc = {
  arc : Memdep.t;
  spos : int;  (** source position in the tree *)
  dpos : int;
}

type cfunc = {
  func : Prog.func;
  nregs : int;
  params : int array;  (** the registers a call fills, in argument order *)
  trees : ctree option array;  (** by tree id *)
}

and ctree = {
  tree : Tree.t;
  code : cop array;
  xguards : int array;  (** per exit, encoded guard *)
  cexits : cexit array;
  store_pos : int array;  (** positions of stores, for the timing walk *)
  gstore_pos : int array;  (** positions of guarded stores *)
  mem_pos : int array;  (** positions of memory ops, for scratch resets *)
  carcs : carc array;  (** the tree's memory dependence arcs, indexed *)
  parc : Profile.arc_stat option array;
      (** per arc, its profile counters once first resolved — created on
          demand exactly like the historical hashtable path *)
  mutable pstat : Profile.tree_stat option;  (** resolved on first use *)
  mutable watch : Profile.Spd.tree_watch option;
  mutable watch_resolved : bool;
  mutable ttime : Timing.tree_timing option;  (** resolved on first use *)
  mutable hist : Histogram.tree option;  (** resolved on first use *)
}

and cexit =
  | XJump of {
      target : int;
      dsts : int array;  (** target params, truncated to the args *)
      srcs : int array;
      scratch : Value.t array;  (** staging for the parallel copy *)
    }
  | XPrint of {
      as_float : bool;
      arg : int;
      return_to : int;
      dsts : int array;
      srcs : int array;
      scratch : Value.t array;
    }
  | XCall of {
      callee : string;
      target : cfunc option;
          (** [None] for a callee the program does not define: the call
              fails when it executes *)
      call_srcs : int array;
      ret : int;  (** receiving register; -1 none *)
      return_to : int;
      dsts : int array;
      srcs : int array;
      scratch : Value.t array;
    }
  | XRet of { value : int (** -1 none *) }

(* The call stack: each frame saves what its caller resumes with. *)
type stack =
  | Bottom
  | Frame of {
      regs : Value.t array;
      fp : int;
      caller : cfunc;
      ret_reg : int;  (** -1 none *)
      resume : int;  (** tree id to resume at *)
      up : stack;
    }

let enc_guard = function
  | None -> 0
  | Some { Insn.greg; positive } -> if positive then greg + 1 else -(greg + 1)

let[@inline] guard_ok (rf : Value.t array) g =
  g = 0
  ||
  let v = holds rf.(abs g - 1) in
  if g > 0 then v else not v

let compile_exit cfuncs (by_id : Tree.t option array) ctx (e : Tree.exit) :
    cexit =
  let malformed fmt =
    Fmt.kstr
      (fun what ->
        fail
          ~ctx:{ ctx with at_op = Some (Fmt.str "%a" Tree.pp_exit e) }
          (Malformed what))
      fmt
  in
  let params_of target =
    match
      if target >= 0 && target < Array.length by_id then by_id.(target)
      else None
    with
    | Some (t : Tree.t) -> t.params
    | None -> malformed "exit to unknown tree %d" target
  in
  (* each arg is copied to the target param of the same rank; a call's
     continuation has one param more, receiving the return value *)
  let copy_pairs params args =
    let n = List.length args in
    if n > List.length params then
      malformed "exit with %d arguments for %d parameters" n
        (List.length params);
    let dsts = Array.make n 0 in
    List.iteri (fun i p -> if i < n then dsts.(i) <- p) params;
    (dsts, Array.of_list args, Array.make n Value.zero)
  in
  match e.kind with
  | Tree.Jump { target; args } ->
      let dsts, srcs, scratch = copy_pairs (params_of target) args in
      XJump { target; dsts; srcs; scratch }
  | Tree.Call
      {
        callee = ("print_int" | "print_float") as callee;
        call_args;
        return_to;
        cont_args;
        _;
      } ->
      let arg =
        match call_args with
        | arg :: _ -> arg
        | [] -> malformed "call of %s without an argument" callee
      in
      let dsts, srcs, scratch = copy_pairs (params_of return_to) cont_args in
      XPrint
        {
          as_float = String.equal callee "print_float";
          arg;
          return_to;
          dsts;
          srcs;
          scratch;
        }
  | Tree.Call { callee; call_args; ret; return_to; cont_args } ->
      let target = Hashtbl.find_opt cfuncs callee in
      (match target with
      | Some g when Array.length g.params <> List.length call_args ->
          malformed "call of %s with %d arguments for %d parameters" callee
            (List.length call_args) (Array.length g.params)
      | _ -> ());
      let dsts, srcs, scratch = copy_pairs (params_of return_to) cont_args in
      XCall
        {
          callee;
          target;
          call_srcs = Array.of_list call_args;
          ret = (match ret with Some r -> r | None -> -1);
          return_to;
          dsts;
          srcs;
          scratch;
        }
  | Tree.Return { value } ->
      XRet { value = (match value with Some r -> r | None -> -1) }

let compile_tree cfuncs (func : Prog.func) by_id (tree : Tree.t) : ctree =
  let ctx =
    { in_func = Some func.fname; in_tree = Some tree.id; at_op = None }
  in
  let gctr = ref 0 in
  let stores = ref [] and gstores = ref [] and mems = ref [] in
  let compile_insn pos (insn : Insn.t) : cop =
    match (insn.op, insn.srcs, insn.dst) with
    | Opcode.Load, [ a ], Some dst ->
        mems := pos :: !mems;
        CLoad { pos; addr = a; dst }
    | Opcode.Store, [ a; v ], None ->
        mems := pos :: !mems;
        stores := pos :: !stores;
        let guard = enc_guard insn.guard in
        let gidx =
          if guard = 0 then -1
          else begin
            gstores := pos :: !gstores;
            let i = !gctr in
            incr gctr;
            i
          end
        in
        CStore { pos; addr = a; src = v; guard; gidx }
    | Opcode.Addrof (Opcode.Global g), [], Some dst ->
        CAddr_global { dst; name = g; cached = -1 }
    | Opcode.Addrof (Opcode.Frame off), [], Some dst ->
        CAddr_frame { dst; off }
    | Opcode.Const v, [], Some dst -> CConst { dst; v }
    | Opcode.Mov, [ a ], Some dst -> CMov { dst; a }
    | Opcode.Ibin ((Opcode.Div | Opcode.Rem) as op), [ a; b ], Some dst ->
        CIdiv { op; pos; dst; a; b }
    | Opcode.Ibin op, [ a; b ], Some dst -> CIbin { op; dst; a; b }
    | Opcode.Icmp op, [ a; b ], Some dst -> CIcmp { op; dst; a; b }
    | Opcode.Fbin op, [ a; b ], Some dst -> CFbin { op; dst; a; b }
    | Opcode.Fcmp op, [ a; b ], Some dst -> CFcmp { op; dst; a; b }
    | Opcode.Not, [ a ], Some dst -> CNot { dst; a }
    | Opcode.Ineg, [ a ], Some dst -> CIneg { dst; a }
    | Opcode.Fneg, [ a ], Some dst -> CFneg { dst; a }
    | Opcode.Select, [ p; a; b ], Some dst -> CSelect { dst; p; a; b }
    | Opcode.Itof, [ a ], Some dst -> CItof { dst; a }
    | Opcode.Ftoi, [ a ], Some dst -> CFtoi { dst; a }
    | _ ->
        fail
          ~ctx:{ ctx with at_op = Some (Fmt.str "%a" Insn.pp insn) }
          (Malformed "instruction")
  in
  let code = Array.mapi compile_insn tree.insns in
  (* positions were consed in reverse *)
  let rev_array l = Array.of_list (List.rev l) in
  let pos_of_id = Array.make (Tree.max_insn_id tree + 1) (-1) in
  Array.iteri (fun pos (i : Insn.t) -> pos_of_id.(i.id) <- pos) tree.insns;
  let carcs =
    Array.of_list
      (List.map
         (fun (arc : Memdep.t) ->
           { arc; spos = pos_of_id.(arc.src); dpos = pos_of_id.(arc.dst) })
         tree.arcs)
  in
  {
    tree;
    code;
    xguards = Array.map (fun (e : Tree.exit) -> enc_guard e.xguard) tree.exits;
    cexits = Array.map (compile_exit cfuncs by_id ctx) tree.exits;
    store_pos = rev_array !stores;
    gstore_pos = rev_array !gstores;
    mem_pos = rev_array !mems;
    carcs;
    parc = Array.make (Array.length carcs) None;
    pstat = None;
    watch = None;
    watch_resolved = false;
    ttime = None;
    hist = None;
  }

(* Every function's record, keyed by name, with its trees compiled and
   its call exits resolved to their callees' records. *)
let compile_prog (prog : Prog.t) : (string, cfunc) Hashtbl.t =
  let cfuncs = Hashtbl.create 8 in
  let pending =
    List.map
      (fun (name, (func : Prog.func)) ->
        let max_id =
          List.fold_left (fun m (t : Tree.t) -> max m t.id) 0 func.trees
        in
        let by_id = Array.make (max_id + 1) None in
        List.iter (fun (t : Tree.t) -> by_id.(t.id) <- Some t) func.trees;
        let nregs =
          List.fold_left
            (fun m (t : Tree.t) -> Reg.Set.fold max (Tree.all_regs t) m)
            0 func.trees
          + 1
        in
        let cf =
          {
            func;
            nregs;
            params = Array.of_list func.fparams;
            trees = Array.make (max_id + 1) None;
          }
        in
        Hashtbl.replace cfuncs name cf;
        (cf, by_id))
      prog.funcs
  in
  List.iter
    (fun (cf, by_id) ->
      Array.iteri
        (fun id t ->
          cf.trees.(id) <- Option.map (compile_tree cfuncs cf.func by_id) t)
        by_id)
    pending;
  cfuncs

(* staged parallel copy: read every source, then write every target *)
let[@inline] copy_args rf dsts srcs scratch =
  let n = Array.length srcs in
  for i = 0 to n - 1 do
    scratch.(i) <- rf.(srcs.(i))
  done;
  for i = 0 to n - 1 do
    rf.(dsts.(i)) <- scratch.(i)
  done

(* SpD dynamics: each watched region's traversal goes to its alias or
   no-alias version by its predicate register *)
let rec attribute_regions rf = function
  | [] -> ()
  | (r : Profile.Spd.region) :: rest ->
      if holds rf.(r.predicate) then r.alias_commits <- r.alias_commits + 1
      else r.noalias_commits <- r.noalias_commits + 1;
      attribute_regions rf rest

(* ------------------------------------------------------------------ *)
(* Pooled memory images.

   Allocating and zeroing a megaword [Value.t array] dominated the cost
   of short runs.  Each domain instead keeps a pool of cleared images,
   keyed by size; a run checks one out, records every word it dirties
   (global initialization as contiguous ranges, committed stores as
   single addresses) and the release hook re-zeroes exactly those words.
   If a run dirties too many individual words to be worth tracking, the
   image is re-zeroed wholesale — never worse than the historical
   allocate-per-run.  Checkout removes the image from the pool, so
   re-entrant or concurrent runs in one domain each get their own. *)

module Mempool = struct
  type image = {
    mem : Value.t array;
    mutable dirty : int array;  (** dirtied single addresses *)
    mutable n_dirty : int;
    mutable ranges : (int * int) list;  (** dirtied (base, len) spans *)
    mutable overflow : bool;  (** too many to track: full re-zero *)
  }

  let pool : (int, image) Hashtbl.t Domain.DLS.key =
    Domain.DLS.new_key (fun () -> Hashtbl.create 4)

  let acquire words : image =
    let tbl = Domain.DLS.get pool in
    match Hashtbl.find_opt tbl words with
    | Some img ->
        Hashtbl.remove tbl words;
        img
    | None ->
        {
          mem = Array.make words Value.zero;
          dirty = Array.make 256 0;
          n_dirty = 0;
          ranges = [];
          overflow = false;
        }

  let touch img addr =
    if not img.overflow then begin
      let cap = Array.length img.dirty in
      if img.n_dirty = cap then
        if cap >= Array.length img.mem / 8 then img.overflow <- true
        else begin
          let d = Array.make (2 * cap) 0 in
          Array.blit img.dirty 0 d 0 cap;
          img.dirty <- d
        end;
      if not img.overflow then begin
        img.dirty.(img.n_dirty) <- addr;
        img.n_dirty <- img.n_dirty + 1
      end
    end

  let touch_range img base len =
    if len > 0 then img.ranges <- (base, len) :: img.ranges

  let release img =
    (if img.overflow then Array.fill img.mem 0 (Array.length img.mem) Value.zero
     else begin
       for i = 0 to img.n_dirty - 1 do
         img.mem.(img.dirty.(i)) <- Value.zero
       done;
       List.iter
         (fun (base, len) -> Array.fill img.mem base len Value.zero)
         img.ranges
     end);
    img.n_dirty <- 0;
    img.ranges <- [];
    img.overflow <- false;
    let tbl = Domain.DLS.get pool in
    Hashtbl.replace tbl (Array.length img.mem) img
end

(* bumped once per run, outside the traversal loop *)
module M = Spd_telemetry.Metrics

let m_runs = M.counter_handle "spd.sim.runs"
let m_traversals = M.counter_handle "spd.sim.traversals"

let register_metrics () =
  List.iter (fun h -> ignore (M.get h)) [ m_runs; m_traversals ]

let run ?timing ?(traversal_cost : traversal_cost option)
    ?(profile : Profile.t option) ?(spd : Profile.Spd.t option)
    ?(histogram : Histogram.t option)
    ?(mem_words = 1 lsl 20) ?(fuel = default_fuel)
    ?(deadline : float option) (prog : Prog.t) : result =
  let deadline_abs =
    Option.map (fun d -> Spd_telemetry.Clock.now () +. d) deadline
  in
  let global_addr, globals_end = layout prog in
  let image = Mempool.acquire mem_words in
  let mem = image.mem in
  Fun.protect ~finally:(fun () -> Mempool.release image) @@ fun () ->
  List.iter
    (fun (g : Prog.global) ->
      let base = global_addr g.gname in
      if base < mem_words then
        Mempool.touch_range image base
          (min (Array.length g.ginit) (mem_words - base));
      Array.iteri (fun i v -> mem.(base + i) <- v) g.ginit)
    prog.globals;
  if globals_end >= mem_words then fail Globals_exceed_memory;
  (* compile every function once for this run *)
  let cfuncs = compile_prog prog in
  let main =
    match Hashtbl.find_opt cfuncs prog.main with
    | Some cf -> cf
    | None -> fail (Unknown_function prog.main)
  in
  (* scratch buffers sized to the largest tree *)
  let max_insns =
    List.fold_left
      (fun m (_, (f : Prog.func)) ->
        List.fold_left
          (fun m (t : Tree.t) -> max m (Array.length t.insns))
          m f.trees)
      1 prog.funcs
  in
  let addr_buf = Array.make max_insns (-1) in
  let active_buf = Array.make max_insns false in
  let output = ref [] in
  let cycles = ref 0 in
  let traversals = ref 0 in
  (* current activation; its stack pointer is its frame pointer *)
  let cur = ref main in
  let regs = ref (Array.make main.nregs Value.zero) in
  let fp = ref (mem_words - main.func.frame_words) in
  if !fp <= globals_end then fail Stack_overflow;
  let stack = ref Bottom and depth = ref 0 in
  let tree_id = ref main.func.entry in
  let running = ref true and returned = ref Value.zero in
  (* context-carrying failure for everything inside the traversal loop *)
  let ctx ?op () =
    { in_func = Some !cur.func.fname; in_tree = Some !tree_id; at_op = op }
  in
  let failc ?op kind = fail ~ctx:(ctx ?op ()) kind in
  let store addr v =
    if addr < 0 || addr >= mem_words then failc (Store_out_of_bounds addr)
    else begin
      Mempool.touch image addr;
      mem.(addr) <- v
    end
  in
  (* per-tree lazily resolved bookkeeping handles *)
  let pstat (ct : ctree) p =
    match ct.pstat with
    | Some s -> s
    | None ->
        let s = Profile.tree_stat p ~func:!cur.func.fname ~tree:ct.tree in
        ct.pstat <- Some s;
        s
  in
  let watch (ct : ctree) w =
    if not ct.watch_resolved then begin
      ct.watch <-
        Profile.Spd.find w ~func:!cur.func.fname ~tree_id:ct.tree.id;
      ct.watch_resolved <- true
    end;
    ct.watch
  in
  let ttime (ct : ctree) tbl =
    match ct.ttime with
    | Some tt -> tt
    | None ->
        let tt = Timing.find tbl ~func:!cur.func.fname ~tree_id:ct.tree.id in
        ct.ttime <- Some tt;
        tt
  in
  let hist (ct : ctree) h =
    match ct.hist with
    | Some th -> th
    | None ->
        let th =
          Histogram.tree h ~func:!cur.func.fname ~tree_id:ct.tree.id
            ~n_exits:(Array.length ct.cexits) ~store_pos:ct.store_pos
            ~gstore_pos:ct.gstore_pos
        in
        ct.hist <- Some th;
        th
  in
  while !running do
    incr traversals;
    if !traversals > fuel then failc (Fuel_exhausted fuel);
    (match deadline_abs with
    | Some dl
      when !traversals land 0x3fff = 0 && Spd_telemetry.Clock.now () > dl ->
        failc (Deadline_exceeded (Option.get deadline))
    | _ -> ());
    let ct =
      match !cur.trees.(!tree_id) with
      | Some ct -> ct
      | None -> failc (No_such_tree !tree_id)
    in
    let rf = !regs in
    (* evaluate instructions in program order *)
    let gmask = ref 0 in
    let code = ct.code in
    for i = 0 to Array.length code - 1 do
      match Array.unsafe_get code i with
      | CIbin { op; dst; a; b } -> rf.(dst) <- ibin op rf.(a) rf.(b)
      | CIcmp { op; dst; a; b } -> rf.(dst) <- icmp op rf.(a) rf.(b)
      | CFbin { op; dst; a; b } -> rf.(dst) <- fbin op rf.(a) rf.(b)
      | CFcmp { op; dst; a; b } -> rf.(dst) <- fcmp op rf.(a) rf.(b)
      | CLoad { pos; addr; dst } ->
          let a = int_of rf.(addr) in
          addr_buf.(pos) <- a;
          active_buf.(pos) <- true;
          (* Loads are non-faulting (the paper's machine model, section
             4.6: LIFE loads are dismissible): a speculative load from a
             wild address yields zero instead of trapping.  Committed
             stores are still checked. *)
          rf.(dst) <- (if a < 0 || a >= mem_words then Value.zero else mem.(a))
      | CStore { pos; addr; src; guard; gidx } ->
          let a = int_of rf.(addr) in
          addr_buf.(pos) <- a;
          let active = guard_ok rf guard in
          active_buf.(pos) <- active;
          if active then begin
            if gidx >= 0 then gmask := !gmask lor (1 lsl gidx);
            store a rf.(src)
          end
      | CConst { dst; v } -> rf.(dst) <- v
      | CMov { dst; a } -> rf.(dst) <- rf.(a)
      | CSelect { dst; p; a; b } -> rf.(dst) <- select rf.(p) rf.(a) rf.(b)
      | CNot { dst; a } -> rf.(dst) <- not_ rf.(a)
      | CIneg { dst; a } -> rf.(dst) <- ineg rf.(a)
      | CFneg { dst; a } -> rf.(dst) <- fneg rf.(a)
      | CItof { dst; a } -> rf.(dst) <- itof rf.(a)
      | CFtoi { dst; a } -> rf.(dst) <- ftoi rf.(a)
      | CAddr_frame { dst; off } -> rf.(dst) <- Value.Int (!fp + off)
      | CAddr_global g ->
          if g.cached < 0 then g.cached <- global_addr g.name;
          rf.(g.dst) <- Value.Int g.cached
      | CIdiv { op; pos; dst; a; b } -> (
          match ibin op rf.(a) rf.(b) with
          | v -> rf.(dst) <- v
          | exception Runtime_error msg ->
              failc
                ~op:(Fmt.str "%a" Opcode.pp ct.tree.insns.(pos).Insn.op)
                (Eval_error msg))
    done;
    let gmask = !gmask in
    (* the taken exit: the first whose guard holds, else the last *)
    let xguards = ct.xguards in
    let taken = ref 0 in
    while
      !taken < Array.length xguards - 1 && not (guard_ok rf xguards.(!taken))
    do
      incr taken
    done;
    let taken = !taken in
    (* profile *)
    (match profile with
    | None -> ()
    | Some p ->
        let stat = pstat ct p in
        stat.traversals <- stat.traversals + 1;
        stat.exit_taken.(taken) <- stat.exit_taken.(taken) + 1;
        let carcs = ct.carcs in
        for i = 0 to Array.length carcs - 1 do
          let ca = carcs.(i) in
          if active_buf.(ca.spos) && active_buf.(ca.dpos) then begin
            let a =
              match ct.parc.(i) with
              | Some a -> a
              | None ->
                  let a =
                    Profile.arc_stat stat ~src:ca.arc.src ~dst:ca.arc.dst
                  in
                  ct.parc.(i) <- Some a;
                  a
            in
            a.both_active <- a.both_active + 1;
            if addr_buf.(ca.spos) = addr_buf.(ca.dpos) then
              a.aliased <- a.aliased + 1
          end
        done);
    (* SpD run-time dynamics: attribute the traversal of each watched
       region to its alias or no-alias version via the predicate
       register (single-assignment within the tree, so reading it after
       instruction evaluation is exact), and count squashed guarded
       stores. *)
    (match spd with
    | None -> ()
    | Some w -> (
        match watch ct w with
        | None -> ()
        | Some tw ->
            tw.traversals <- tw.traversals + 1;
            attribute_regions rf tw.watched;
            let gstore_pos = ct.gstore_pos in
            for j = 0 to Array.length gstore_pos - 1 do
              if not active_buf.(gstore_pos.(j)) then
                tw.squashed <- tw.squashed + 1
            done));
    (* timing *)
    (match timing with
    | None -> ()
    | Some tbl ->
        let tt = ttime ct tbl in
        let t = ref tt.exit_completion.(taken) in
        let store_pos = ct.store_pos in
        for j = 0 to Array.length store_pos - 1 do
          let pos = store_pos.(j) in
          if active_buf.(pos) then begin
            let c = tt.insn_completion.(pos) in
            if c > !t then t := c
          end
        done;
        cycles := !cycles + !t);
    (match histogram with
    | None -> ()
    | Some h -> Histogram.add (hist ct h) ~taken ~gmask ~active:active_buf);
    (match traversal_cost with
    | None -> ()
    | Some cost ->
        cycles :=
          !cycles
          + cost ~func:!cur.func.fname ~tree:ct.tree ~addrs:addr_buf
              ~active:active_buf ~taken;
        (* the callback contract promises -1/false outside this tree's
           memory ops, so restore the buffers to their pristine state *)
        let mem_pos = ct.mem_pos in
        for j = 0 to Array.length mem_pos - 1 do
          addr_buf.(mem_pos.(j)) <- -1;
          active_buf.(mem_pos.(j)) <- false
        done);
    (* transition *)
    match ct.cexits.(taken) with
    | XJump { target; dsts; srcs; scratch } ->
        copy_args rf dsts srcs scratch;
        tree_id := target
    | XPrint { as_float; arg; return_to; dsts; srcs; scratch } ->
        output :=
          (if as_float then Value.Float (float_of rf.(arg))
           else Value.Int (int_of rf.(arg)))
          :: !output;
        copy_args rf dsts srcs scratch;
        tree_id := return_to
    | XCall { callee; target; call_srcs; ret; return_to; dsts; srcs; scratch }
      ->
        copy_args rf dsts srcs scratch;
        (* the call site's errors name the caller's function and tree *)
        let cf =
          match target with
          | Some cf -> cf
          | None -> failc (Unknown_function callee)
        in
        if !depth >= max_call_depth then
          failc (Call_depth_exceeded max_call_depth);
        let callee_fp = !fp - cf.func.frame_words in
        if callee_fp <= globals_end then failc Stack_overflow;
        stack :=
          Frame
            {
              regs = rf;
              fp = !fp;
              caller = !cur;
              ret_reg = ret;
              resume = return_to;
              up = !stack;
            };
        incr depth;
        let callee_regs = Array.make cf.nregs Value.zero in
        let params = cf.params in
        for i = 0 to Array.length params - 1 do
          callee_regs.(params.(i)) <- rf.(call_srcs.(i))
        done;
        cur := cf;
        regs := callee_regs;
        fp := callee_fp;
        tree_id := cf.func.entry
    | XRet { value } -> (
        let v = if value < 0 then Value.zero else rf.(value) in
        match !stack with
        | Bottom ->
            returned := v;
            running := false
        | Frame f ->
            stack := f.up;
            decr depth;
            cur := f.caller;
            regs := f.regs;
            fp := f.fp;
            if f.ret_reg >= 0 then f.regs.(f.ret_reg) <- v;
            tree_id := f.resume)
  done;
  M.incr (M.get m_runs);
  M.incr ~by:!traversals (M.get m_traversals);
  {
    ret = !returned;
    output = List.rev !output;
    cycles = !cycles;
    traversals = !traversals;
  }

(** Run and return just the observable behaviour (return value and output),
    used for semantic-equivalence checks between pipelines. *)
let observe ?mem_words ?fuel ?deadline prog =
  let r = run ?mem_words ?fuel ?deadline prog in
  (r.ret, r.output)
