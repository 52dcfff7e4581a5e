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

    Internally each tree is compiled once per run, before the first
    traversal, into a flat array of specialized operations (register
    numbers resolved, store guards encoded as ints, memory/store
    positions pre-indexed) so the traversal loop allocates nothing and
    dispatches one shallow match per instruction.  An instruction or
    exit with no specialized form fails the run there, with
    [Malformed]. *)

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

type result = {
  ret : Value.t;  (** return value of [main] *)
  output : Value.t list;  (** values printed by the builtins, in order *)
  cycles : int;  (** total cycles; 0 when no timing table was given *)
  traversals : int;  (** number of tree traversals executed *)
}

(* Per-function runtime metadata. *)
type finfo = {
  func : Prog.func;
  by_id : Tree.t option array;  (** tree lookup by id *)
  nregs : int;
}

type frame = {
  saved_regs : Value.t array;
  saved_fp : int;
  saved_sp : int;
  saved_fi : finfo;
  ret_reg : Reg.t option;
  resume : int;  (** tree id to resume at *)
}

let build_finfo (func : Prog.func) : finfo =
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
  { func; by_id; nregs }

(** Lay out globals in low memory; returns the address map and the first
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
(* Compiled trees.

   Register numbers, guard polarities and memory-op positions are
   resolved once per run so the traversal loop is allocation free.  A
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

type cexit =
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
      call_srcs : int array;
      ret : int;  (** receiving register; -1 none *)
      return_to : int;
      dsts : int array;
      srcs : int array;
      scratch : Value.t array;
    }
  | XRet of { value : int (** -1 none *) }

type carc = {
  arc : Memdep.t;
  spos : int;  (** source position in the tree *)
  dpos : int;
}

type ctree = {
  tree : Tree.t;
  code : cop array;
  xguards : int array;  (** per exit, encoded guard *)
  cexits : cexit array;
  store_pos : int array;  (** positions of stores, for the timing walk *)
  gstore_pos : int array;  (** positions of guarded stores *)
  mem_pos : int array;  (** positions of memory ops, for scratch resets *)
  n_gstores : int;
  carcs : carc array;  (** the tree's memory dependence arcs, indexed *)
  parc : Profile.arc_stat option array;
      (** per arc, its profile counters once first resolved — created on
          demand exactly like the historical hashtable path *)
  mutable pstat : Profile.tree_stat option;  (** resolved on first use *)
  mutable watch : Profile.Spd.tree_watch option;
  mutable watch_resolved : bool;
  mutable ttime : Timing.tree_timing option;  (** resolved on first use *)
  mutable hist : Histogram.tree option;  (** resolved on first use *)
  packed : bool;
      (** the commit outcome packs into a {!Histogram.key}: at most
          {!Histogram.max_guarded_stores} guarded stores *)
}

let enc_guard = function
  | None -> 0
  | Some { Insn.greg; positive } -> if positive then greg + 1 else -(greg + 1)

let guard_ok (rf : Value.t array) g =
  g = 0
  ||
  let v = Value.is_true rf.(abs g - 1) in
  if g > 0 then v else not v

let compile_exit finfos (fi : finfo) ctx (e : Tree.exit) : cexit =
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
      if target >= 0 && target < Array.length fi.by_id then fi.by_id.(target)
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
      (* an unknown callee fails when the call executes *)
      (match Hashtbl.find_opt finfos callee with
      | Some (g : finfo)
        when List.compare_lengths g.func.fparams call_args <> 0 ->
          malformed "call of %s with %d arguments for %d parameters" callee
            (List.length call_args) (List.length g.func.fparams)
      | _ -> ());
      let dsts, srcs, scratch = copy_pairs (params_of return_to) cont_args in
      XCall
        {
          callee;
          call_srcs = Array.of_list call_args;
          ret = (match ret with Some r -> r | None -> -1);
          return_to;
          dsts;
          srcs;
          scratch;
        }
  | Tree.Return { value } ->
      XRet { value = (match value with Some r -> r | None -> -1) }

let compile_tree finfos (fi : finfo) (tree : Tree.t) : ctree =
  let ctx =
    { in_func = Some fi.func.fname; in_tree = Some tree.id; at_op = None }
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
    cexits = Array.map (compile_exit finfos fi ctx) tree.exits;
    store_pos = rev_array !stores;
    gstore_pos = rev_array !gstores;
    mem_pos = rev_array !mems;
    n_gstores = !gctr;
    carcs;
    parc = Array.make (Array.length carcs) None;
    pstat = None;
    watch = None;
    watch_resolved = false;
    ttime = None;
    hist = None;
    packed = !gctr <= Histogram.max_guarded_stores;
  }

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
  let finfos = Hashtbl.create 8 in
  List.iter
    (fun (name, f) -> Hashtbl.replace finfos name (build_finfo f))
    prog.funcs;
  let finfo name =
    match Hashtbl.find_opt finfos name with
    | Some fi -> fi
    | None -> fail (Unknown_function name)
  in
  (* compile every tree once for this run *)
  let cts_of : (string, ctree option array) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (name, _) ->
      let fi = Hashtbl.find finfos name in
      let arr =
        Array.map (Option.map (fun t -> compile_tree finfos fi t)) fi.by_id
      in
      Hashtbl.replace cts_of name arr)
    prog.funcs;
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
  (* current activation *)
  let fi = ref (finfo prog.main) in
  let cts = ref (Hashtbl.find cts_of prog.main) in
  let regs = ref (Array.make !fi.nregs Value.zero) in
  let sp = ref mem_words in
  let fp = ref (mem_words - !fi.func.frame_words) in
  sp := !fp;
  if !sp <= globals_end then fail Stack_overflow;
  let stack : frame list ref = ref [] in
  let tree_id = ref !fi.func.entry in
  let finished = ref None in
  (* context-carrying failure for everything inside the traversal loop *)
  let ctx ?op () =
    { in_func = Some !fi.func.fname; in_tree = Some !tree_id; at_op = op }
  in
  let failc ?op kind = fail ~ctx:(ctx ?op ()) kind in
  (* Loads are non-faulting (the paper's machine model, section 4.6: LIFE
     loads are dismissible): a speculative load from a wild address yields
     zero instead of trapping.  Committed stores are still checked. *)
  let load addr =
    if addr < 0 || addr >= mem_words then Value.zero else mem.(addr)
  in
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
        let s = Profile.tree_stat p ~func:!fi.func.fname ~tree:ct.tree in
        ct.pstat <- Some s;
        s
  in
  let watch (ct : ctree) w =
    if not ct.watch_resolved then begin
      ct.watch <-
        Profile.Spd.find w ~func:!fi.func.fname ~tree_id:ct.tree.id;
      ct.watch_resolved <- true
    end;
    ct.watch
  in
  let ttime (ct : ctree) tbl =
    match ct.ttime with
    | Some tt -> tt
    | None ->
        let tt = Timing.find tbl ~func:!fi.func.fname ~tree_id:ct.tree.id in
        ct.ttime <- Some tt;
        tt
  in
  let hist (ct : ctree) h =
    match ct.hist with
    | Some th -> th
    | None ->
        let th =
          Histogram.tree h ~func:!fi.func.fname ~tree_id:ct.tree.id
            ~store_pos:ct.store_pos ~gstore_pos:ct.gstore_pos
        in
        ct.hist <- Some th;
        th
  in
  let attribute_regions rf (tw : Profile.Spd.tree_watch) =
    List.iter
      (fun (r : Profile.Spd.region) ->
        if Value.is_true rf.(r.predicate) then
          r.alias_commits <- r.alias_commits + 1
        else r.noalias_commits <- r.noalias_commits + 1)
      tw.watched
  in
  (* staged parallel copy: read every source, then write every target *)
  let do_copy rf dsts srcs scratch =
    let n = Array.length srcs in
    for i = 0 to n - 1 do
      scratch.(i) <- rf.(srcs.(i))
    done;
    for i = 0 to n - 1 do
      rf.(dsts.(i)) <- scratch.(i)
    done
  in
  while !finished = None do
    incr traversals;
    if !traversals > fuel then failc (Fuel_exhausted fuel);
    (match deadline_abs with
    | Some dl
      when !traversals land 0x3fff = 0 && Spd_telemetry.Clock.now () > dl ->
        failc (Deadline_exceeded (Option.get deadline))
    | _ -> ());
    let ct =
      match !cts.(!tree_id) with
      | Some ct -> ct
      | None -> failc (No_such_tree !tree_id)
    in
    let rf = !regs in
    (* evaluate instructions in program order *)
    let gmask = ref 0 in
    let code = ct.code in
    for i = 0 to Array.length code - 1 do
      match Array.unsafe_get code i with
      | CIbin { op; dst; a; b } -> rf.(dst) <- Eval.eval_ibin op rf.(a) rf.(b)
      | CIcmp { op; dst; a; b } -> rf.(dst) <- Eval.eval_icmp op rf.(a) rf.(b)
      | CFbin { op; dst; a; b } -> rf.(dst) <- Eval.eval_fbin op rf.(a) rf.(b)
      | CFcmp { op; dst; a; b } -> rf.(dst) <- Eval.eval_fcmp op rf.(a) rf.(b)
      | CLoad { pos; addr; dst } ->
          let a = Value.to_int rf.(addr) in
          addr_buf.(pos) <- a;
          active_buf.(pos) <- true;
          rf.(dst) <- load a
      | CStore { pos; addr; src; guard; gidx } ->
          let a = Value.to_int rf.(addr) in
          addr_buf.(pos) <- a;
          let active = guard_ok rf guard in
          active_buf.(pos) <- active;
          if active then begin
            if gidx >= 0 then gmask := !gmask lor (1 lsl gidx);
            store a rf.(src)
          end
      | CConst { dst; v } -> rf.(dst) <- v
      | CMov { dst; a } -> rf.(dst) <- rf.(a)
      | CSelect { dst; p; a; b } ->
          rf.(dst) <- (if Value.is_true rf.(p) then rf.(a) else rf.(b))
      | CNot { dst; a } -> rf.(dst) <- Value.of_bool (not (Value.is_true rf.(a)))
      | CIneg { dst; a } -> rf.(dst) <- Value.Int (-Value.to_int rf.(a))
      | CFneg { dst; a } -> rf.(dst) <- Value.Float (-.Value.to_float rf.(a))
      | CItof { dst; a } -> rf.(dst) <- Value.Float (Value.to_float rf.(a))
      | CFtoi { dst; a } -> rf.(dst) <- Value.Int (Value.to_int rf.(a))
      | CAddr_frame { dst; off } -> rf.(dst) <- Value.Int (!fp + off)
      | CAddr_global g ->
          if g.cached < 0 then g.cached <- global_addr g.name;
          rf.(g.dst) <- Value.Int g.cached
      | CIdiv { op; pos; dst; a; b } -> (
          match Eval.eval_ibin op rf.(a) rf.(b) with
          | v -> rf.(dst) <- v
          | exception Eval.Runtime_error msg ->
              failc
                ~op:(Fmt.str "%a" Opcode.pp ct.tree.insns.(pos).Insn.op)
                (Eval_error msg))
    done;
    (* choose the taken exit *)
    let n_exits = Array.length ct.xguards in
    let taken = ref (n_exits - 1) in
    (try
       for k = 0 to n_exits - 1 do
         if guard_ok rf ct.xguards.(k) then begin
           taken := k;
           raise Exit
         end
       done
     with Exit -> ());
    (* profile *)
    (match profile with
    | None -> ()
    | Some p ->
        let stat = pstat ct p in
        stat.traversals <- stat.traversals + 1;
        stat.exit_taken.(!taken) <- stat.exit_taken.(!taken) + 1;
        Array.iteri
          (fun i (ca : carc) ->
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
            end)
          ct.carcs);
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
            attribute_regions rf tw;
            Array.iter
              (fun pos ->
                if not active_buf.(pos) then tw.squashed <- tw.squashed + 1)
              ct.gstore_pos));
    (* timing *)
    (match timing with
    | None -> ()
    | Some tbl ->
        let tt = ttime ct tbl in
        let t = ref tt.exit_completion.(!taken) in
        Array.iter
          (fun pos ->
            if active_buf.(pos) then t := max !t tt.insn_completion.(pos))
          ct.store_pos;
        cycles := !cycles + !t);
    (* the path histogram: the packed key, or the exact commit set where
       the key cannot pack it *)
    (match histogram with
    | None -> ()
    | Some h ->
        if ct.packed then
          Histogram.add (hist ct h)
            (Histogram.key ~taken:!taken ~gmask:!gmask
               ~n_guarded_stores:ct.n_gstores)
        else Histogram.add_exact (hist ct h) ~taken:!taken ~active:active_buf);
    (match traversal_cost with
    | None -> ()
    | Some cost ->
        cycles :=
          !cycles
          + cost ~func:!fi.func.fname ~tree:ct.tree ~addrs:addr_buf
              ~active:active_buf ~taken:!taken;
        (* the callback contract promises -1/false outside this tree's
           memory ops, so restore the buffers to their pristine state *)
        Array.iter
          (fun pos ->
            addr_buf.(pos) <- -1;
            active_buf.(pos) <- false)
          ct.mem_pos);
    (* transition *)
    match ct.cexits.(!taken) with
    | XJump { target; dsts; srcs; scratch } ->
        do_copy rf dsts srcs scratch;
        tree_id := target
    | XPrint { as_float; arg; return_to; dsts; srcs; scratch } ->
        output :=
          (if as_float then Value.Float (Value.to_float rf.(arg))
           else Value.Int (Value.to_int rf.(arg)))
          :: !output;
        do_copy rf dsts srcs scratch;
        tree_id := return_to
    | XCall { callee; call_srcs; ret; return_to; dsts; srcs; scratch } ->
        do_copy rf dsts srcs scratch;
        let callee_fi = finfo callee in
        stack :=
          {
            saved_regs = rf;
            saved_fp = !fp;
            saved_sp = !sp;
            saved_fi = !fi;
            ret_reg = (if ret < 0 then None else Some ret);
            resume = return_to;
          }
          :: !stack;
        if List.length !stack > 100_000 then
          failc (Call_depth_exceeded 100_000);
        let newregs = Array.make callee_fi.nregs Value.zero in
        List.iteri
          (fun i p -> newregs.(p) <- rf.(call_srcs.(i)))
          callee_fi.func.fparams;
        fi := callee_fi;
        cts := Hashtbl.find cts_of callee;
        regs := newregs;
        fp := !sp - callee_fi.func.frame_words;
        sp := !fp;
        if !sp <= globals_end then failc Stack_overflow;
        tree_id := callee_fi.func.entry
    | XRet { value } -> (
        let v = if value < 0 then Value.zero else rf.(value) in
        match !stack with
        | [] -> finished := Some v
        | frame :: rest ->
            stack := rest;
            regs := frame.saved_regs;
            fp := frame.saved_fp;
            sp := frame.saved_sp;
            fi := frame.saved_fi;
            cts := Hashtbl.find cts_of frame.saved_fi.func.fname;
            (match frame.ret_reg with
            | Some r -> !regs.(r) <- v
            | None -> ());
            tree_id := frame.resume)
  done;
  M.incr (M.get m_runs);
  M.incr ~by:!traversals (M.get m_traversals);
  {
    ret = Option.get !finished;
    output = List.rev !output;
    cycles = !cycles;
    traversals = !traversals;
  }

(** Run and return just the observable behaviour (return value and output),
    used for semantic-equivalence checks between pipelines. *)
let observe ?mem_words ?fuel ?deadline prog =
  let r = run ?mem_words ?fuel ?deadline prog in
  (r.ret, r.output)
