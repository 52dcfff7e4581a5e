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
    memory/store positions pre-indexed), its call exits resolved to the
    callee's record, and the size of its register file, folded from
    every register it mentions.  An instruction or exit with no
    specialized form fails the run there, with [Malformed].

    Registers and memory words are held unboxed: an int view, a float
    view and the constructor per word.  Each call depth has one
    register file, reused by every activation at that depth.  A
    traversal therefore looks nothing up by name, hashes nothing,
    dispatches one shallow match per instruction and allocates nothing.
    It reads and writes registers without bounds checks, since
    compilation proved every register index in range; memory addresses
    are checked at each access.  An exit copies its arguments directly,
    through a staging file only when a later argument reads an earlier
    destination.

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
(* Words.  Every register file, and the pooled memory image, holds each
   word unboxed as three parallel views: its int view ([Value.to_int]),
   its float view ([Value.to_float]) and its constructor.  An operation
   reads the view its opcode takes and writes all three, so a write
   allocates nothing and passes no write barrier; a [Value.t] is built
   only where one leaves the run ([ret], output).

   The accessors are unchecked: a register index is proven in range
   when its function is compiled (see [file_size]), a memory address before
   each access.  Only [clear] checks its range. *)

module Words = struct
  type t = {
    ints : int array;
    flts : Float.Array.t;
    tags : Bytes.t;  (** [int_tag] or [float_tag] *)
  }

  let int_tag = '\000'
  let float_tag = '\001'

  (* [n] words of [Int 0] *)
  let create n =
    {
      ints = Array.make n 0;
      flts = Float.Array.make n 0.0;
      tags = Bytes.make n int_tag;
    }

  let length w = Array.length w.ints
  let[@inline] int w i = Array.unsafe_get w.ints i
  let[@inline] flt w i = Float.Array.unsafe_get w.flts i

  let[@inline] set_int w i x =
    Array.unsafe_set w.ints i x;
    Float.Array.unsafe_set w.flts i (float_of_int x);
    Bytes.unsafe_set w.tags i int_tag

  let[@inline] set_float w i f =
    Array.unsafe_set w.ints i (int_of_float f);
    Float.Array.unsafe_set w.flts i f;
    Bytes.unsafe_set w.tags i float_tag

  let[@inline] set w i (v : Value.t) =
    match v with Int x -> set_int w i x | Float f -> set_float w i f

  (* word [i] of [src] into word [j] of [dst] *)
  let[@inline] copy src i dst j =
    Array.unsafe_set dst.ints j (Array.unsafe_get src.ints i);
    Float.Array.unsafe_set dst.flts j (Float.Array.unsafe_get src.flts i);
    Bytes.unsafe_set dst.tags j (Bytes.unsafe_get src.tags i)

  let get w i : Value.t =
    if Bytes.unsafe_get w.tags i = float_tag then Value.Float (flt w i)
    else Value.Int (int w i)

  (* [len] words from [base] back to [Int 0]; checked *)
  let clear w base len =
    Array.fill w.ints base len 0;
    Float.Array.fill w.flts base len 0.0;
    Bytes.fill w.tags base len int_tag
end

(* ------------------------------------------------------------------ *)
(* Pure operations: the one definition of each opcode's semantics, over
   the views it reads, used by the traversal loop and by [eval_pure].
   A comparison yields [Int 0] or [Int 1]; [holds] is [Value.is_true]
   on the float view, which is nonzero exactly when the word is. *)

exception Runtime_error of string

let[@inline] holds (f : float) = f <> 0.0
let[@inline] int_of_bool b = if b then 1 else 0

let[@inline] ibin (op : Opcode.ibin) x y =
  match op with
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
  | Shr -> x asr (y land 63)

let[@inline] icmp (op : Opcode.icmp) (x : int) y =
  match op with
  | Eq -> x = y
  | Ne -> x <> y
  | Lt -> x < y
  | Le -> x <= y
  | Gt -> x > y
  | Ge -> x >= y

let[@inline] fbin (op : Opcode.fbin) x y =
  match op with
  | Fadd -> x +. y
  | Fsub -> x -. y
  | Fmul -> x *. y
  | Fdiv -> x /. y

let[@inline] fcmp (op : Opcode.fcmp) (x : float) y =
  match op with
  | Feq -> x = y
  | Fne -> x <> y
  | Flt -> x < y
  | Fle -> x <= y
  | Fgt -> x > y
  | Fge -> x >= y

let[@inline] not_ p = not (holds p)
let[@inline] ineg x = -x
let[@inline] fneg x = -.x
let[@inline] select p a b = if holds p then a else b

(* the conversions are views: [Itof a] is [Float] of a's float view,
   [Ftoi a] is [Int] of its int view *)
let[@inline] itof (x : float) = x
let[@inline] ftoi (x : int) = x

(* a [Value.t]'s views, as [Value.to_int] and [Value.to_float] define
   them, decoded in place: a call into [Value] is not inlined under
   [-opaque] *)
let[@inline] int_view = function
  | Value.Int i -> i
  | Value.Float f -> int_of_float f

let[@inline] float_view = function
  | Value.Int i -> float_of_int i
  | Value.Float f -> f

let[@inline] value_of_bool b = if b then Value.one else Value.zero

let eval_pure (op : Opcode.t) (srcs : Value.t list) : Value.t =
  match (op, srcs) with
  | Opcode.Ibin o, [ a; b ] -> Value.Int (ibin o (int_view a) (int_view b))
  | Opcode.Icmp o, [ a; b ] ->
      value_of_bool (icmp o (int_view a) (int_view b))
  | Opcode.Fbin o, [ a; b ] ->
      Value.Float (fbin o (float_view a) (float_view b))
  | Opcode.Fcmp o, [ a; b ] ->
      value_of_bool (fcmp o (float_view a) (float_view b))
  | Opcode.Not, [ a ] -> value_of_bool (not_ (float_view a))
  | Opcode.Ineg, [ a ] -> Value.Int (ineg (int_view a))
  | Opcode.Fneg, [ a ] -> Value.Float (fneg (float_view a))
  | Opcode.Mov, [ a ] -> a
  | Opcode.Select, [ p; a; b ] -> select (float_view p) a b
  | Opcode.Const v, [] -> v
  | Opcode.Itof, [ a ] -> Value.Float (itof (float_view a))
  | Opcode.Ftoi, [ a ] -> Value.Int (ftoi (int_view a))
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
  index : int;  (** position in the run's function array *)
  nregs : int;  (** one more than the largest register it mentions *)
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
  watch : Profile.Spd.tree_watch option;
      (** its SpD watch, resolved and range-checked before the run *)
  mutable ttime : Timing.tree_timing option;  (** resolved on first use *)
  mutable hist : Histogram.tree option;  (** resolved on first use *)
}

(* An exit's block arguments: [srcs.(i)] into [dsts.(i)], the target
   param of the same rank.  A copy one of whose destinations a later
   argument reads is staged (every source read, then every destination
   written); the others copy directly. *)
and copy = {
  dsts : int array;
  srcs : int array;  (** as long as [dsts] *)
  stage : Words.t option;
}

and cexit =
  | XJump of { target : int; copy : copy }
  | XPrint of { as_float : bool; arg : int; return_to : int; copy : copy }
  | XCall of {
      callee : string;
      target : cfunc option;
          (** [None] for a callee the program does not define: the call
              fails when it executes *)
      call_srcs : int array;  (** as long as the callee's [params] *)
      ret : int;  (** receiving register; -1 none *)
      return_to : int;
      copy : copy;
    }
  | XRet of { value : int (** -1 none *) }

let enc_guard = function
  | None -> 0
  | Some { Insn.greg; positive } -> if positive then greg + 1 else -(greg + 1)

let[@inline] guard_ok rf g =
  g = 0
  ||
  let v = holds (Words.flt rf (abs g - 1)) in
  if g > 0 then v else not v

(* The size of [func]'s register file: one fold over every register it
   mentions — its parameters, and in every tree the parameters,
   operands, destinations, guards and exit registers, a call's
   receiving register included — keeping only the largest.  Every
   register the loop reads or writes is one of these, so a file of that
   size is the range proof that lets the loop access registers
   unchecked.  A negative register is [Malformed]. *)
let file_size (func : Prog.func) =
  let top = ref (-1) in
  let reg tree r =
    if r < 0 then
      fail
        ~ctx:{ in_func = Some func.fname; in_tree = tree; at_op = None }
        (Malformed (Fmt.str "register %d" r));
    if r > !top then top := r
  in
  List.iter (reg None) func.fparams;
  List.iter
    (fun (t : Tree.t) ->
      let reg = reg (Some t.id) in
      let guard = Option.iter (fun (g : Insn.guard) -> reg g.greg) in
      List.iter reg t.params;
      Array.iter
        (fun (i : Insn.t) ->
          Option.iter reg i.dst;
          List.iter reg i.srcs;
          guard i.guard)
        t.insns;
      Array.iter
        (fun (e : Tree.exit) ->
          guard e.xguard;
          match e.kind with
          | Tree.Jump { args; _ } -> List.iter reg args
          | Tree.Call { call_args; ret; cont_args; _ } ->
              List.iter reg call_args;
              Option.iter reg ret;
              List.iter reg cont_args
          | Tree.Return { value } -> Option.iter reg value)
        t.exits)
    func.trees;
  !top + 1

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
  let copy_of params args =
    let n = List.length args in
    if n > List.length params then
      malformed "exit with %d arguments for %d parameters" n
        (List.length params);
    let dsts = Array.of_list (List.filteri (fun i _ -> i < n) params) in
    let srcs = Array.of_list args in
    let staged = ref false in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if srcs.(j) = dsts.(i) then staged := true
      done
    done;
    { dsts; srcs; stage = (if !staged then Some (Words.create n) else None) }
  in
  match e.kind with
  | Tree.Jump { target; args } ->
      XJump { target; copy = copy_of (params_of target) args }
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
      XPrint
        {
          as_float = String.equal callee "print_float";
          arg;
          return_to;
          copy = copy_of (params_of return_to) cont_args;
        }
  | Tree.Call { callee; call_args; ret; return_to; cont_args } ->
      let target = Hashtbl.find_opt cfuncs callee in
      (match target with
      | Some g when Array.length g.params <> List.length call_args ->
          malformed "call of %s with %d arguments for %d parameters" callee
            (List.length call_args) (Array.length g.params)
      | _ -> ());
      XCall
        {
          callee;
          target;
          call_srcs = Array.of_list call_args;
          ret = (match ret with Some r -> r | None -> -1);
          return_to;
          copy = copy_of (params_of return_to) cont_args;
        }
  | Tree.Return { value } ->
      XRet { value = (match value with Some r -> r | None -> -1) }

(* SpD dynamics: the watch on [tree], if any.  Its predicates are read
   unchecked by the loop, so each must lie in the function's file. *)
let resolve_watch spd (cf : cfunc) ctx (tree : Tree.t) =
  match spd with
  | None -> None
  | Some w ->
      let found = Profile.Spd.find w ~func:cf.func.fname ~tree_id:tree.id in
      Option.iter
        (fun (tw : Profile.Spd.tree_watch) ->
          List.iter
            (fun (r : Profile.Spd.region) ->
              if r.predicate < 0 || r.predicate >= cf.nregs then
                fail
                  ~ctx:{ ctx with at_op = Some (Fmt.str "watch on r%d" r.predicate) }
                  (Malformed "watch predicate outside the register file"))
            tw.watched)
        found;
      found

let compile_tree cfuncs spd (cf : cfunc) by_id (tree : Tree.t) : ctree =
  let ctx =
    { in_func = Some cf.func.fname; in_tree = Some tree.id; at_op = None }
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
    watch = resolve_watch spd cf ctx tree;
    ttime = None;
    hist = None;
  }

(* Every function's record, in program order and by name, with its
   trees compiled and its call exits resolved to their callees'
   records. *)
let compile_prog spd (prog : Prog.t) : cfunc array * (string, cfunc) Hashtbl.t
    =
  let cfuncs = Hashtbl.create 8 in
  let pending =
    List.mapi
      (fun index (name, (func : Prog.func)) ->
        let max_id =
          List.fold_left (fun m (t : Tree.t) -> max m t.id) 0 func.trees
        in
        let by_id = Array.make (max_id + 1) None in
        List.iter (fun (t : Tree.t) -> by_id.(t.id) <- Some t) func.trees;
        let cf =
          {
            func;
            index;
            nregs = file_size func;
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
          cf.trees.(id) <- Option.map (compile_tree cfuncs spd cf by_id) t)
        by_id)
    pending;
  (Array.of_list (List.map fst pending), cfuncs)

let[@inline] copy_args rf { dsts; srcs; stage } =
  match stage with
  | None ->
      for i = 0 to Array.length srcs - 1 do
        Words.copy rf (Array.unsafe_get srcs i) rf (Array.unsafe_get dsts i)
      done
  | Some staged ->
      for i = 0 to Array.length srcs - 1 do
        Words.copy rf (Array.unsafe_get srcs i) staged i
      done;
      for i = 0 to Array.length srcs - 1 do
        Words.copy staged i rf (Array.unsafe_get dsts i)
      done

(* SpD dynamics: each watched region's traversal goes to its alias or
   no-alias version by its predicate register *)
let rec attribute_regions rf = function
  | [] -> ()
  | (r : Profile.Spd.region) :: rest ->
      if holds (Words.flt rf r.predicate) then
        r.alias_commits <- r.alias_commits + 1
      else r.noalias_commits <- r.noalias_commits + 1;
      attribute_regions rf rest

(* ------------------------------------------------------------------ *)
(* Pooled memory images.

   Allocating and zeroing a megaword image dominated the cost of short
   runs.  Each domain instead keeps a pool of cleared images, keyed by
   size; a run checks one out, records every word it dirties (global
   initialization as contiguous ranges, committed stores as single
   addresses) and the release hook re-zeroes exactly those words.  If a
   run dirties too many individual words to be worth tracking, the image
   is re-zeroed wholesale — never worse than allocating one per run.
   Checkout removes the image from the pool, so re-entrant or concurrent
   runs in one domain each get their own.

   An image is paged: a page is allocated on the first write into it
   and until then reads as one shared zero page, so a domain pays only
   for the pages its runs write.  A flat image of unboxed words, 17
   bytes each, cost a fresh domain's first run 16–27 ms to allocate and
   touch. *)

module Mempool = struct
  let page_bits = 12
  let page_words = 1 lsl page_bits
  let[@inline] offset a = a land (page_words - 1)

  (* what every page not yet written reads as; never written itself *)
  let zero_page = Words.create page_words

  type image = {
    words : int;
    pages : Words.t array;  (** by [a lsr page_bits] *)
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
          words;
          pages =
            Array.make ((words + page_words - 1) lsr page_bits) zero_page;
          dirty = Array.make 256 0;
          n_dirty = 0;
          ranges = [];
          overflow = false;
        }

  (* the page holding address [a], for reading *)
  let[@inline] page img a = Array.unsafe_get img.pages (a lsr page_bits)

  (* the page holding address [a], allocated on its first write *)
  let[@inline] writable img a =
    let p = page img a in
    if p != zero_page then p
    else begin
      let p = Words.create page_words in
      Array.unsafe_set img.pages (a lsr page_bits) p;
      p
    end

  let touch img addr =
    if not img.overflow then begin
      let cap = Array.length img.dirty in
      if img.n_dirty = cap then
        if cap >= img.words / 8 then img.overflow <- true
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

  (* word [src] of [rf] into address [a], which the caller checked *)
  let[@inline] store img a rf src =
    touch img a;
    Words.copy rf src (writable img a) (offset a)

  let init img a v =
    if a < 0 || a >= img.words then invalid_arg "index out of bounds";
    Words.set (writable img a) (offset a) v

  let zero img a =
    let p = page img a in
    if p != zero_page then Words.set_int p (offset a) 0

  let release img =
    (if img.overflow then
       Array.iter
         (fun p -> if p != zero_page then Words.clear p 0 page_words)
         img.pages
     else begin
       for i = 0 to img.n_dirty - 1 do
         zero img img.dirty.(i)
       done;
       List.iter
         (fun (base, len) ->
           for a = base to base + len - 1 do
             zero img a
           done)
         img.ranges
     end);
    img.n_dirty <- 0;
    img.ranges <- [];
    img.overflow <- false;
    let tbl = Domain.DLS.get pool in
    Hashtbl.replace tbl img.words img
end

(* ------------------------------------------------------------------ *)
(* The call stack, by depth.  Frames are strictly last-in first-out, so
   the register file of depth [d] is reused by every activation at that
   depth (zeroed on entry, grown when a function needs more), and a
   waiting activation's state is four ints: nothing is allocated per
   call once the stack has reached its depth. *)

module Stack = struct
  type t = {
    mutable files : Words.t array;  (** the register file of each depth *)
    mutable func : int array;
        (** of each waiting activation: its function's index *)
    mutable fp : int array;  (** its frame pointer *)
    mutable ret_reg : int array;  (** its receiving register; -1 none *)
    mutable resume : int array;  (** the tree it resumes at *)
  }

  let empty = Words.create 0

  let create () =
    {
      files = Array.make 16 empty;
      func = Array.make 16 0;
      fp = Array.make 16 0;
      ret_reg = Array.make 16 0;
      resume = Array.make 16 0;
    }

  (* the file of depth [d], holding [nregs] words of [Int 0] *)
  let file st d nregs =
    if d >= Array.length st.files then begin
      let grow a fill = Array.append a (Array.make (Array.length a) fill) in
      st.files <- grow st.files empty;
      st.func <- grow st.func 0;
      st.fp <- grow st.fp 0;
      st.ret_reg <- grow st.ret_reg 0;
      st.resume <- grow st.resume 0
    end;
    let f = st.files.(d) in
    if Words.length f >= nregs then begin
      Words.clear f 0 nregs;
      f
    end
    else begin
      let f = Words.create nregs in
      st.files.(d) <- f;
      f
    end
end

(* bumped once per run, outside the traversal loop *)
module M = Spd_telemetry.Metrics

let m_runs = M.counter_handle "spd.sim.runs"
let m_traversals = M.counter_handle "spd.sim.traversals"

let register_metrics () =
  List.iter (fun h -> ignore (M.get h)) [ m_runs; m_traversals ]

(* a failure inside the traversal loop names its function and tree *)
let fail_at (cf : cfunc) tree_id ?op kind =
  fail ~ctx:{ in_func = Some cf.func.fname; in_tree = Some tree_id; at_op = op }
    kind

(* per-tree bookkeeping handles, resolved on first use *)
let pstat (cf : cfunc) (ct : ctree) p =
  match ct.pstat with
  | Some s -> s
  | None ->
      let s = Profile.tree_stat p ~func:cf.func.fname ~tree:ct.tree in
      ct.pstat <- Some s;
      s

let ttime (cf : cfunc) (ct : ctree) tbl =
  match ct.ttime with
  | Some tt -> tt
  | None ->
      let tt = Timing.find tbl ~func:cf.func.fname ~tree_id:ct.tree.id in
      ct.ttime <- Some tt;
      tt

let hist (cf : cfunc) (ct : ctree) h =
  match ct.hist with
  | Some th -> th
  | None ->
      let th =
        Histogram.tree h ~func:cf.func.fname ~tree_id:ct.tree.id
          ~n_exits:(Array.length ct.cexits) ~store_pos:ct.store_pos
          ~gstore_pos:ct.gstore_pos
      in
      ct.hist <- Some th;
      th

let run ?timing ?(traversal_cost : traversal_cost option)
    ?(profile : Profile.t option) ?(spd : Profile.Spd.t option)
    ?(histogram : Histogram.t option)
    ?(mem_words = 1 lsl 20) ?(fuel = default_fuel)
    ?(deadline : float option) (prog : Prog.t) : result =
  let deadline_abs =
    Option.map (fun d -> Spd_telemetry.Clock.now () +. d) deadline
  in
  let global_addr, globals_end = layout prog in
  (* before any write: every initialised word then lies in memory *)
  if globals_end >= mem_words then fail Globals_exceed_memory;
  let image = Mempool.acquire mem_words in
  Fun.protect ~finally:(fun () -> Mempool.release image) @@ fun () ->
  List.iter
    (fun (g : Prog.global) ->
      let base = global_addr g.gname in
      Mempool.touch_range image base
        (min (Array.length g.ginit) (mem_words - base));
      Array.iteri (fun i v -> Mempool.init image (base + i) v) g.ginit)
    prog.globals;
  (* compile every function once for this run *)
  let funcs, by_name = compile_prog spd prog in
  let main =
    match Hashtbl.find_opt by_name prog.main with
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
  let st = Stack.create () in
  (* the current activation: its function, depth, register file and
     frame pointer, which is also its stack pointer *)
  let cur = ref main and depth = ref 0 in
  let regs = ref (Stack.file st 0 main.nregs) in
  let fp = ref (mem_words - main.func.frame_words) in
  if !fp <= globals_end then fail Stack_overflow;
  let tree_id = ref main.func.entry in
  let running = ref true and returned = ref Value.zero in
  while !running do
    incr traversals;
    if !traversals > fuel then fail_at !cur !tree_id (Fuel_exhausted fuel);
    (match deadline_abs with
    | Some dl
      when !traversals land 0x3fff = 0 && Spd_telemetry.Clock.now () > dl ->
        fail_at !cur !tree_id (Deadline_exceeded (Option.get deadline))
    | _ -> ());
    let cf = !cur in
    let ct =
      match cf.trees.(!tree_id) with
      | Some ct -> ct
      | None -> fail_at cf !tree_id (No_such_tree !tree_id)
    in
    let rf = !regs in
    (* evaluate instructions in program order *)
    let gmask = ref 0 in
    let code = ct.code in
    for i = 0 to Array.length code - 1 do
      match Array.unsafe_get code i with
      | CIbin { op; dst; a; b } ->
          Words.set_int rf dst (ibin op (Words.int rf a) (Words.int rf b))
      | CIcmp { op; dst; a; b } ->
          Words.set_int rf dst
            (int_of_bool (icmp op (Words.int rf a) (Words.int rf b)))
      | CFbin { op; dst; a; b } ->
          Words.set_float rf dst (fbin op (Words.flt rf a) (Words.flt rf b))
      | CFcmp { op; dst; a; b } ->
          Words.set_int rf dst
            (int_of_bool (fcmp op (Words.flt rf a) (Words.flt rf b)))
      | CLoad { pos; addr; dst } ->
          let a = Words.int rf addr in
          addr_buf.(pos) <- a;
          active_buf.(pos) <- true;
          (* Loads are non-faulting (the paper's machine model, section
             4.6: LIFE loads are dismissible): a speculative load from a
             wild address yields zero instead of trapping.  Committed
             stores are still checked. *)
          if a < 0 || a >= mem_words then Words.set_int rf dst 0
          else Words.copy (Mempool.page image a) (Mempool.offset a) rf dst
      | CStore { pos; addr; src; guard; gidx } ->
          let a = Words.int rf addr in
          addr_buf.(pos) <- a;
          let active = guard_ok rf guard in
          active_buf.(pos) <- active;
          if active then begin
            if gidx >= 0 then gmask := !gmask lor (1 lsl gidx);
            if a < 0 || a >= mem_words then
              fail_at cf !tree_id (Store_out_of_bounds a);
            Mempool.store image a rf src
          end
      | CConst { dst; v } -> Words.set rf dst v
      | CMov { dst; a } -> Words.copy rf a rf dst
      | CSelect { dst; p; a; b } ->
          Words.copy rf (select (Words.flt rf p) a b) rf dst
      | CNot { dst; a } -> Words.set_int rf dst (int_of_bool (not_ (Words.flt rf a)))
      | CIneg { dst; a } -> Words.set_int rf dst (ineg (Words.int rf a))
      | CFneg { dst; a } -> Words.set_float rf dst (fneg (Words.flt rf a))
      | CItof { dst; a } -> Words.set_float rf dst (itof (Words.flt rf a))
      | CFtoi { dst; a } -> Words.set_int rf dst (ftoi (Words.int rf a))
      | CAddr_frame { dst; off } -> Words.set_int rf dst (!fp + off)
      | CAddr_global g ->
          if g.cached < 0 then g.cached <- global_addr g.name;
          Words.set_int rf g.dst g.cached
      | CIdiv { op; pos; dst; a; b } -> (
          match ibin op (Words.int rf a) (Words.int rf b) with
          | v -> Words.set_int rf dst v
          | exception Runtime_error msg ->
              fail_at cf !tree_id
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
        let stat = pstat cf ct p in
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
    (match ct.watch with
    | None -> ()
    | Some tw ->
        tw.traversals <- tw.traversals + 1;
        attribute_regions rf tw.watched;
        let gstore_pos = ct.gstore_pos in
        for j = 0 to Array.length gstore_pos - 1 do
          if not active_buf.(gstore_pos.(j)) then
            tw.squashed <- tw.squashed + 1
        done);
    (* timing *)
    (match timing with
    | None -> ()
    | Some tbl ->
        let tt = ttime cf ct tbl in
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
    | Some h -> Histogram.add (hist cf ct h) ~taken ~gmask ~active:active_buf);
    (match traversal_cost with
    | None -> ()
    | Some cost ->
        cycles :=
          !cycles
          + cost ~func:cf.func.fname ~tree:ct.tree ~addrs:addr_buf
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
    | XJump { target; copy } ->
        copy_args rf copy;
        tree_id := target
    | XPrint { as_float; arg; return_to; copy } ->
        output :=
          (if as_float then Value.Float (Words.flt rf arg)
           else Value.Int (Words.int rf arg))
          :: !output;
        copy_args rf copy;
        tree_id := return_to
    | XCall { callee; target; call_srcs; ret; return_to; copy } ->
        copy_args rf copy;
        (* the call site's errors name the caller's function and tree *)
        let callee_cf =
          match target with
          | Some g -> g
          | None -> fail_at cf !tree_id (Unknown_function callee)
        in
        let d = !depth in
        if d >= max_call_depth then
          fail_at cf !tree_id (Call_depth_exceeded max_call_depth);
        let callee_fp = !fp - callee_cf.func.frame_words in
        if callee_fp <= globals_end then fail_at cf !tree_id Stack_overflow;
        let callee_rf = Stack.file st (d + 1) callee_cf.nregs in
        st.func.(d) <- cf.index;
        st.fp.(d) <- !fp;
        st.ret_reg.(d) <- ret;
        st.resume.(d) <- return_to;
        let params = callee_cf.params in
        for i = 0 to Array.length params - 1 do
          Words.copy rf (Array.unsafe_get call_srcs i) callee_rf
            (Array.unsafe_get params i)
        done;
        depth := d + 1;
        cur := callee_cf;
        fp := callee_fp;
        tree_id := callee_cf.func.entry;
        regs := callee_rf
    | XRet { value } ->
        if !depth = 0 then begin
          returned := (if value < 0 then Value.zero else Words.get rf value);
          running := false
        end
        else begin
          let d = !depth - 1 in
          let caller_rf = st.files.(d) in
          let r = st.ret_reg.(d) in
          if r >= 0 then
            if value < 0 then Words.set_int caller_rf r 0
            else Words.copy rf value caller_rf r;
          depth := d;
          cur := funcs.(st.func.(d));
          fp := st.fp.(d);
          tree_id := st.resume.(d);
          regs := caller_rf
        end
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
