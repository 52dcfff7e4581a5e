(** Path-wise symbolic execution of decision trees.

    The evaluator runs a tree under the sequential ("original program
    order") semantics with symbolic inputs: every tree parameter is an
    opaque term, memory is a symbolic store chain rooted at one initial
    memory, and pure operations build hash-consed terms.  Control is
    made concrete per path: whenever the truth of a guard, a select
    predicate or an address comparison cannot be decided from the terms'
    affine forms, the evaluator raises {!Need_atom} and the exploration
    driver explores the path once under each truth value of that atom —
    this is how the speculated alias predicate of an SpD application is
    split into its alias and no-alias cases.  Each tree runs on a
    cursor that stops at the instruction that raised, so a child whose
    assumptions leave the path's equality basis unchanged resumes from
    a copy of its parent's state; only an assumed-true equality, which
    rebuilds the basis, replays both trees from their first
    instruction.

    Address equality is decided with the same machinery the static
    disambiguator uses ({!Spd_analysis.Affine}): a constant difference
    decides the compare outright, a GCD test refutes unsatisfiable
    equalities, and references whose affine forms sit on distinct known
    objects (different globals, or a global versus the frame) are taken
    to be distinct — the no-cross-object-aliasing model every
    disambiguator in this code base already assumes.  Opaque pointers
    (address parameters) separate nothing; comparisons involving them
    become case-split atoms, which is precisely the situation SpD
    speculates on. *)

open Spd_ir
module Affine = Spd_analysis.Affine

(* ------------------------------------------------------------------ *)
(* Terms and symbolic memory *)

type term = { tid : int; node : node }

and node =
  | Const of Value.t
  | Param of Reg.t  (** initial value of a tree parameter *)
  | App of Opcode.t * term list
  | Load of mem * term  (** residual read of the initial memory *)

and mem = { mid : int; mnode : mnode }
and mnode = Init | Store of { prev : mem; addr : term; value : term }

type tkey =
  | Kconst of Value.t
  | Kparam of Reg.t
  | Kapp of Opcode.t * int list
  | Kload of int * int

type mkey = int * int * int

(* the object an address term is based on, as [base_of] classifies it *)
type obase = Obj of Affine.sym | Opaque | Nobase | Mixed

module Itbl = Hashtbl.Make (Int)

type ctx = {
  terms : (tkey, term) Hashtbl.t;
  mems : (mkey, mem) Hashtbl.t;
  by_tid : (int, term) Hashtbl.t;
  aff : (int, Affine.t) Hashtbl.t;
  bases : obase Itbl.t;  (* [base_of] answers, by term id *)
  mutable next_tid : int;
  mutable next_mid : int;
  is_addr_param : Reg.t -> bool;
}

let init_mem = { mid = 0; mnode = Init }

let create ~is_addr_param =
  {
    terms = Hashtbl.create 256;
    mems = Hashtbl.create 64;
    by_tid = Hashtbl.create 256;
    aff = Hashtbl.create 256;
    bases = Itbl.create 64;
    next_tid = 0;
    next_mid = 1;
    is_addr_param;
  }

let aff_term ctx (t : term) = Hashtbl.find ctx.aff t.tid

(* Term-level affine forms, mirroring [Affine.analyze]'s opcode
   coverage.  Opaque terms become their own symbols keyed by term id;
   hash-consing guarantees the same symbolic value maps to the same
   symbol no matter which tree computed it. *)
let affine_of_node ctx tid node =
  let opaque () = Affine.sym (Affine.Sreg tid) in
  match node with
  | Const (Value.Int v) -> Affine.const v
  | Const (Value.Float _) -> opaque ()
  | Param _ -> opaque ()
  | App (Opcode.Addrof (Opcode.Global g), []) -> Affine.sym (Affine.Sglobal g)
  | App (Opcode.Addrof (Opcode.Frame off), []) ->
      Affine.add (Affine.sym Affine.Sframe) (Affine.const off)
  | App (Opcode.Ibin Opcode.Add, [ a; b ]) ->
      Affine.add (aff_term ctx a) (aff_term ctx b)
  | App (Opcode.Ibin Opcode.Sub, [ a; b ]) ->
      Affine.sub (aff_term ctx a) (aff_term ctx b)
  | App (Opcode.Ineg, [ a ]) -> Affine.neg (aff_term ctx a)
  | App (Opcode.Ibin Opcode.Mul, [ a; b ]) -> (
      let fa = aff_term ctx a and fb = aff_term ctx b in
      match (Affine.const_value fa, Affine.const_value fb) with
      | Some k, _ -> Affine.scale k fb
      | _, Some k -> Affine.scale k fa
      | None, None -> opaque ())
  | App (Opcode.Ibin Opcode.Shl, [ a; b ]) -> (
      match Affine.const_value (aff_term ctx b) with
      | Some k when k >= 0 && k < 62 -> Affine.scale (1 lsl k) (aff_term ctx a)
      | _ -> opaque ())
  | App _ | Load _ -> opaque ()

let intern ctx key node =
  match Hashtbl.find_opt ctx.terms key with
  | Some t -> t
  | None ->
      let tid = ctx.next_tid in
      ctx.next_tid <- tid + 1;
      let t = { tid; node } in
      Hashtbl.add ctx.terms key t;
      Hashtbl.add ctx.by_tid tid t;
      Hashtbl.add ctx.aff tid (affine_of_node ctx tid node);
      t

let const ctx v = intern ctx (Kconst v) (Const v)
let param ctx r = intern ctx (Kparam r) (Param r)

let is_commutative (op : Opcode.t) =
  match op with
  | Opcode.Ibin (Opcode.Add | Opcode.Mul | Opcode.And | Opcode.Or | Opcode.Xor)
    ->
      true
  | Opcode.Icmp (Opcode.Eq | Opcode.Ne) -> true
  | Opcode.Fbin (Opcode.Fadd | Opcode.Fmul) -> true
  | Opcode.Fcmp (Opcode.Feq | Opcode.Fne) -> true
  | _ -> false

exception Unsupported of string

(* Build an application term.  Only assumption-independent
   simplification is allowed here — the term table is shared by every
   explored path. *)
let app ctx (op : Opcode.t) (args : term list) : term =
  match (op, args) with
  | Opcode.Mov, [ a ] -> a
  | _ -> (
      let op, args =
        match (op, args) with
        | Opcode.Icmp Opcode.Gt, [ a; b ] -> (Opcode.Icmp Opcode.Lt, [ b; a ])
        | Opcode.Icmp Opcode.Ge, [ a; b ] -> (Opcode.Icmp Opcode.Le, [ b; a ])
        | Opcode.Fcmp Opcode.Fgt, [ a; b ] ->
            (Opcode.Fcmp Opcode.Flt, [ b; a ])
        | Opcode.Fcmp Opcode.Fge, [ a; b ] ->
            (Opcode.Fcmp Opcode.Fle, [ b; a ])
        | _ -> (op, args)
      in
      let args =
        if is_commutative op then
          List.sort (fun a b -> Int.compare a.tid b.tid) args
        else args
      in
      let all_const =
        List.for_all
          (fun a -> match a.node with Const _ -> true | _ -> false)
          args
      in
      let foldable =
        match op with
        | Opcode.Load | Opcode.Store | Opcode.Addrof _ -> false
        | _ -> true
      in
      if all_const && foldable then
        let vals =
          List.map
            (fun a -> match a.node with Const v -> v | _ -> assert false)
            args
        in
        match Spd_sim.Interp.eval_pure op vals with
        | v -> const ctx v
        | exception Spd_sim.Interp.Runtime_error msg ->
            raise (Unsupported msg)
      else intern ctx (Kapp (op, List.map (fun a -> a.tid) args)) (App (op, args)))

let store ctx prev ~addr ~value =
  let key = (prev.mid, addr.tid, value.tid) in
  match Hashtbl.find_opt ctx.mems key with
  | Some m -> m
  | None ->
      let mid = ctx.next_mid in
      ctx.next_mid <- mid + 1;
      let m = { mid; mnode = Store { prev; addr; value } } in
      Hashtbl.add ctx.mems key m;
      m

let load_term ctx m a = intern ctx (Kload (m.mid, a.tid)) (Load (m, a))

let pp_term ppf (t : term) =
  let rec go depth ppf t =
    if depth > 4 then Fmt.pf ppf "t%d" t.tid
    else
      match t.node with
      | Const v -> Value.pp ppf v
      | Param r -> Fmt.pf ppf "%a@@entry" Reg.pp r
      | App (op, args) ->
          Fmt.pf ppf "(%a@ %a)" Opcode.pp op
            Fmt.(list ~sep:sp (go (depth + 1)))
            args
      | Load (_, a) -> Fmt.pf ppf "mem0[%a]" (go (depth + 1)) a
  in
  go 0 ppf t

(* ------------------------------------------------------------------ *)
(* Atoms and assumptions *)

type atom =
  | Aeq of Affine.t  (** the normalized affine form equals zero *)
  | Atruth of int  (** the term with this id is true (non-zero) *)

let compare_affine (a : Affine.t) (b : Affine.t) =
  match Int.compare a.Affine.const b.Affine.const with
  | 0 -> Affine.Sym_map.compare Int.compare a.Affine.terms b.Affine.terms
  | c -> c

let compare_atom x y =
  match (x, y) with
  | Aeq a, Aeq b -> compare_affine a b
  | Atruth a, Atruth b -> Int.compare a b
  | Aeq _, Atruth _ -> -1
  | Atruth _, Aeq _ -> 1

module Atom_map = Map.Make (struct
  type t = atom

  let compare = compare_atom
end)

exception Need_atom of atom

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Canonicalize "form = 0": decide constant forms, apply the GCD test,
   divide through by the coefficient gcd and fix the sign so every
   spelling of the same equality shares one atom. *)
let norm_eq (d : Affine.t) =
  match Affine.const_value d with
  | Some c -> `Decided (c = 0)
  | None ->
      let g =
        Affine.Sym_map.fold (fun _ c acc -> gcd (abs c) acc) d.Affine.terms 0
      in
      if g > 1 && d.Affine.const mod g <> 0 then `Decided false
      else
        let d =
          if g > 1 then
            {
              Affine.const = d.Affine.const / g;
              terms = Affine.Sym_map.map (fun c -> c / g) d.Affine.terms;
            }
          else d
        in
        let flip =
          match Affine.Sym_map.min_binding_opt d.Affine.terms with
          | Some (_, c) -> c < 0
          | None -> false
        in
        `Atom (Aeq (if flip then Affine.neg d else d))

(* ------------------------------------------------------------------ *)
(* Equality saturation over the assumed affine atoms.

   The assumed-true [Aeq] atoms span a rational lattice of affine forms
   that are zero on the path.  [basis] keeps the spanning forms in
   echelon shape — one pivot symbol per form, every pivot eliminated
   from every other form — so a single elimination pass decides span
   membership.  Elimination only ever scales a form by a positive
   integer, which preserves zero-ness, so reduction is sound for
   equality decisions.  This is what gives the checker transitivity
   ([r3 = r10] and [r10 = r20] decide [r3 = r20]) and lets the explorer
   prune assumption sets no concrete run can realize. *)

type basis = (Affine.sym * Affine.t) list

(* Cancel [pivot] out of [g] using [using] (which has a non-zero
   coefficient on it), by an exact integer combination. *)
let eliminate ~pivot ~(using : Affine.t) (g : Affine.t) =
  match Affine.Sym_map.find_opt pivot g.Affine.terms with
  | None | Some 0 -> g
  | Some d ->
      let c = Affine.Sym_map.find pivot using.Affine.terms in
      let l = gcd (abs c) (abs d) in
      let k = d / l * if c < 0 then -1 else 1 in
      Affine.sub (Affine.scale (abs c / l) g) (Affine.scale k using)

let reduce (basis : basis) (f : Affine.t) =
  List.fold_left (fun g (p, bf) -> eliminate ~pivot:p ~using:bf g) f basis

(* Add "f = 0" to the span; [None] when it reduces to a non-zero
   constant (the combined equalities are unsatisfiable). *)
let basis_add (basis : basis) (f : Affine.t) : basis option =
  let r = reduce basis f in
  match Affine.const_value r with
  | Some 0 -> Some basis (* already implied *)
  | Some _ -> None
  | None ->
      let p, _ = Affine.Sym_map.min_binding r.Affine.terms in
      let basis =
        List.map (fun (q, bf) -> (q, eliminate ~pivot:p ~using:r bf)) basis
      in
      Some ((p, r) :: basis)

(* The basis spanned by an assumption set, or [None] when the set is
   infeasible: the true equalities contradict each other, or a false
   equality is in their span. *)
let basis_of_asm asm : basis option =
  let b =
    Atom_map.fold
      (fun a v acc ->
        match (acc, a, v) with
        | Some basis, Aeq f, true -> basis_add basis f
        | _ -> acc)
      asm (Some [])
  in
  match b with
  | None -> None
  | Some basis ->
      let contradicted =
        Atom_map.exists
          (fun a v ->
            match (a, v) with
            | Aeq f, false -> Affine.const_value (reduce basis f) = Some 0
            | _ -> false)
          asm
      in
      if contradicted then None else Some basis

let is_addr_symbol ctx = function
  | Affine.Sglobal _ | Affine.Sframe -> true
  | Affine.Sreg tid -> (
      match Hashtbl.find_opt ctx.by_tid tid with
      | Some { node = Param r; _ } -> ctx.is_addr_param r
      | _ -> false)

(* Memoised per exploration: the base depends only on the term's form
   and on which parameters are addresses. *)
let base_of ctx (t : term) : obase =
  match Itbl.find_opt ctx.bases t.tid with
  | Some b -> b
  | None ->
      let addrs =
        Affine.Sym_map.filter
          (fun s _ -> is_addr_symbol ctx s)
          (aff_term ctx t).Affine.terms
      in
      let b =
        match Affine.Sym_map.bindings addrs with
        | [] -> Nobase
        | [ (s, 1) ] -> (
            match s with
            | Affine.Sglobal _ | Affine.Sframe -> Obj s
            | Affine.Sreg _ -> Opaque)
        | _ -> Mixed
      in
      Itbl.add ctx.bases t.tid b;
      b

(* ------------------------------------------------------------------ *)
(* Per-path state *)

type path = {
  ctx : ctx;
  asm : bool Atom_map.t;
  basis : basis;
      (* echelon span of the assumed-true [Aeq] atoms; [basis_of_asm]
         guarantees consistency with the assumed-false ones *)
  mutable residuals : (term * term) list;
      (* (address, load term) of reads that fell through to the initial
         memory on this path, unified up to decided address equality *)
  decided : bool Itbl.t;
      (* [decide_eq] answers on this path, keyed by the ordered pair of
         term ids packed into one int (ids stay far below 2^31) *)
  ordered : bool option Itbl.t;
      (* [ordered] answers by compare term id: a function of [basis]
         alone, so every path on this basis shares the table *)
}

(* Memoised per path: the answer is a pure function of the two terms,
   [basis] and [asm], and only answers that did not raise [Need_atom]
   are stored, so no stored answer read an atom the path has not
   assumed.  A child that resumes its parent's path keeps the basis and
   adds one such atom, so it starts from a copy of the memo. *)
let decide_eq (st : path) (a : term) (b : term) : bool =
  if a.tid = b.tid then true
  else
    let key = (a.tid lsl 31) lor b.tid in
    match Itbl.find_opt st.decided key with
    | Some v -> v
    | None ->
        let fa = aff_term st.ctx a and fb = aff_term st.ctx b in
        let v =
          match norm_eq (reduce st.basis (Affine.sub fa fb)) with
          | `Decided v -> v
          | `Atom atom -> (
              match (base_of st.ctx a, base_of st.ctx b) with
              | Obj o1, Obj o2 when Affine.compare_sym o1 o2 <> 0 -> false
              | _ -> (
                  match Atom_map.find_opt atom st.asm with
                  | Some v -> v
                  | None -> raise (Need_atom atom)))
        in
        Itbl.add st.decided key v;
        v

let rec is_boolish (t : term) =
  match t.node with
  | Const (Value.Int (0 | 1)) -> true
  | Const _ -> false
  | App ((Opcode.Icmp _ | Opcode.Fcmp _ | Opcode.Not), _) -> true
  | App (Opcode.Ibin (Opcode.And | Opcode.Or), [ a; b ]) ->
      is_boolish a && is_boolish b
  | _ -> false

(* Whether [t], the ordered compare [op] of [a] and [b], holds as the
   basis decides it; [None] when their difference does not reduce to a
   constant. *)
let ordered (st : path) (t : term) op a b =
  match Itbl.find st.ordered t.tid with
  | v -> v
  | exception Not_found ->
      let d =
        reduce st.basis (Affine.sub (aff_term st.ctx a) (aff_term st.ctx b))
      in
      let v =
        Option.map
          (fun c ->
            match op with
            | Opcode.Lt -> c < 0
            | Opcode.Le -> c <= 0
            | Opcode.Gt -> c > 0
            | Opcode.Ge -> c >= 0
            | Opcode.Eq | Opcode.Ne -> assert false)
          (Affine.const_value d)
      in
      Itbl.add st.ordered t.tid v;
      v

let rec truth (st : path) (t : term) : bool =
  match t.node with
  | Const v -> Value.is_true v
  | App (Opcode.Icmp Opcode.Eq, [ a; b ]) -> decide_eq st a b
  | App (Opcode.Icmp Opcode.Ne, [ a; b ]) -> not (decide_eq st a b)
  | App (Opcode.Not, [ a ]) -> not (truth st a)
  | App (Opcode.Ibin Opcode.Or, [ a; b ]) ->
      (* x lor y is non-zero iff either operand is, for all integers *)
      truth st a || truth st b
  | App (Opcode.Ibin Opcode.And, [ a; b ]) when is_boolish a && is_boolish b ->
      truth st a && truth st b
  | App (Opcode.Icmp op, [ a; b ]) -> (
      match ordered st t op a b with
      | Some v -> v
      | None -> lookup_truth st t)
  | _ -> lookup_truth st t

and lookup_truth st t =
  match Atom_map.find_opt (Atruth t.tid) st.asm with
  | Some v -> v
  | None -> raise (Need_atom (Atruth t.tid))

(* Read [a] from [m]: walk the store chain deciding each address
   compare (splitting when undecidable), and canonicalize residual
   reads of the initial memory through the per-path table so
   decided-equal addresses share one load term — this is what unifies a
   WAR compensation load with the original load it stands in for. *)
let resolve_load (st : path) (m : mem) (a : term) : term =
  let rec walk m =
    match m.mnode with
    | Store { prev; addr; value } ->
        if decide_eq st addr a then value else walk prev
    | Init -> (
        match
          List.find_opt (fun (a0, _) -> decide_eq st a0 a) st.residuals
        with
        | Some (_, t) -> t
        | None ->
            let t = load_term st.ctx init_mem a in
            st.residuals <- (a, t) :: st.residuals;
            t)
  in
  walk m

(* ------------------------------------------------------------------ *)
(* Tree execution *)

type observable =
  | Ojump of { target : int; args : term list }
  | Ocall of {
      callee : string;
      call_args : term list;
      ret : Reg.t option;
      return_to : int;
      cont_args : term list;
    }
  | Oreturn of term option

type run = { obs : observable; mem : mem }

(* A tree is compiled once per exploration.  Every register it
   mentions gets a dense slot, so a path's register file is a small
   array a split can copy.  Each pure instruction keeps the argument
   terms and the result of its last evaluation, on any path: terms are
   hash-consed, so physically equal arguments give the result [app]
   would, without its normalisation or an intern-table lookup. *)

type pure = {
  op : Opcode.t;
  dst : int;
  srcs : int array;
  args : term array;  (* the last evaluation's arguments *)
  mutable result : term;  (* its result, [unbound] until there is one *)
}

type step =
  | Sstore of { guard : (int * bool) option; addr : int; value : int }
  | Sload of { dst : int option; addr : int }
  | Sselect of { dst : int; pred : int; yes : int; no : int }
  | Spure of pure
  | Smalformed of string

type code = {
  regs : Reg.t array;  (* by slot *)
  slots : int Itbl.t;  (* slot of each register *)
  steps : step array;  (* the instructions, less pure ones with no result *)
  exits : Tree.exit array;
}

(* One tree's execution on one path.  A [Need_atom] leaves [pc] at the
   step that raised, which has changed nothing but [env]'s cache of
   parameter terms, so the cursor resumes there. *)
type cursor = {
  code : code;
  env : term array;  (* by slot; [unbound] until bound or first read *)
  mutable pc : int;
  mutable mem : mem;
  mutable run : run option;  (* once the taken exit is known *)
}

let unbound = { tid = -1; node = Const (Value.Int 0) }

let compile (tree : Tree.t) : code =
  let regs = Array.of_list (Reg.Set.elements (Tree.all_regs tree)) in
  let slots = Itbl.create (Array.length regs) in
  Array.iteri (fun s r -> Itbl.replace slots r s) regs;
  let slot = Itbl.find slots in
  let step (insn : Insn.t) =
    match (insn.op, insn.dst, insn.srcs) with
    | Opcode.Store, _, _ ->
        Some
          (Sstore
             {
               guard =
                 Option.map
                   (fun { Insn.greg; positive } -> (slot greg, positive))
                   insn.guard;
               addr = slot (Insn.addr insn);
               value = slot (Insn.store_value insn);
             })
    | Opcode.Load, dst, _ ->
        Some (Sload { dst = Option.map slot dst; addr = slot (Insn.addr insn) })
    | Opcode.Select, Some d, [ p; a; b ] ->
        Some (Sselect { dst = slot d; pred = slot p; yes = slot a; no = slot b })
    | Opcode.Select, _, _ -> Some (Smalformed "malformed select")
    | _, None, _ -> None
    | op, Some d, srcs ->
        let srcs = Array.of_list (List.map slot srcs) in
        Some
          (Spure
             {
               op;
               dst = slot d;
               srcs;
               args = Array.make (Array.length srcs) unbound;
               result = unbound;
             })
  in
  {
    regs;
    slots;
    steps = Array.of_list (List.filter_map step (Array.to_list tree.insns));
    exits = tree.exits;
  }

let start code =
  {
    code;
    env = Array.make (Array.length code.regs) unbound;
    pc = 0;
    mem = init_mem;
    run = None;
  }

let copy_cursor c = { c with env = Array.copy c.env }

let lookup ctx c s =
  let t = c.env.(s) in
  if t != unbound then t
  else
    let t = param ctx c.code.regs.(s) in
    c.env.(s) <- t;
    t

let exec_step (st : path) c = function
  | Sstore { guard; addr; value } ->
      let committed =
        match guard with
        | None -> true
        | Some (g, positive) -> truth st (lookup st.ctx c g) = positive
      in
      if committed then
        let addr = lookup st.ctx c addr in
        let value = lookup st.ctx c value in
        c.mem <- store st.ctx c.mem ~addr ~value
  | Sload { dst; addr } -> (
      let v = resolve_load st c.mem (lookup st.ctx c addr) in
      match dst with Some d -> c.env.(d) <- v | None -> ())
  | Sselect { dst; pred; yes; no } ->
      c.env.(dst) <-
        lookup st.ctx c (if truth st (lookup st.ctx c pred) then yes else no)
  | Spure p ->
      let fresh = ref (p.result == unbound) in
      for i = 0 to Array.length p.srcs - 1 do
        let t = lookup st.ctx c p.srcs.(i) in
        if t != p.args.(i) then begin
          p.args.(i) <- t;
          fresh := true
        end
      done;
      if !fresh then begin
        p.result <- unbound;
        p.result <- app st.ctx p.op (Array.to_list p.args)
      end;
      c.env.(p.dst) <- p.result
  | Smalformed msg -> raise (Unsupported msg)

(* Run the cursor to its taken exit, from wherever it stopped. *)
let advance (st : path) c : run =
  match c.run with
  | Some r -> r
  | None ->
      let steps = c.code.steps in
      while c.pc < Array.length steps do
        exec_step st c steps.(c.pc);
        c.pc <- c.pc + 1
      done;
      let lookup r = lookup st.ctx c (Itbl.find c.code.slots r) in
      let exits = c.code.exits in
      let n = Array.length exits in
      let rec taken i =
        if i >= n - 1 then i
        else
          match exits.(i).Tree.xguard with
          | None -> i
          | Some { greg; positive } ->
              if truth st (lookup greg) = positive then i else taken (i + 1)
      in
      let obs =
        match exits.(taken 0).Tree.kind with
        | Tree.Jump { target; args } ->
            Ojump { target; args = List.map lookup args }
        | Tree.Call { callee; call_args; ret; return_to; cont_args } ->
            Ocall
              {
                callee;
                call_args = List.map lookup call_args;
                ret;
                return_to;
                cont_args = List.map lookup cont_args;
              }
        | Tree.Return { value } -> Oreturn (Option.map lookup value)
      in
      let r = { obs; mem = c.mem } in
      c.run <- Some r;
      r

(* ------------------------------------------------------------------ *)
(* Path comparison *)

(* Value equality never splits: two terms are equal when their affine
   difference is zero, or when the path already assumed the equality
   atom (a split made while deciding a branch or an address) — asking
   for a fresh split here would manufacture "values differ" paths that
   no concrete run distinguishes. *)
let equal_value (st : path) (a : term) (b : term) =
  a.tid = b.tid
  ||
  let d = Affine.sub (aff_term st.ctx a) (aff_term st.ctx b) in
  match norm_eq (reduce st.basis d) with
  | `Decided v -> v
  | `Atom atom -> Atom_map.find_opt atom st.asm = Some true

(* Last-write-wins memory classes: the final value per decided address
   class of committed stores, oldest store first so overwrites land on
   the class of the first store to that address. *)
let mem_classes (st : path) (m : mem) : (term * term) list =
  let rec chain acc m =
    match m.mnode with
    | Init -> acc
    | Store { prev; addr; value } -> chain ((addr, value) :: acc) prev
  in
  let stores = chain [] m in
  List.fold_left
    (fun classes (a, v) ->
      let rec upd = function
        | [] -> [ (a, v) ]
        | (a0, _) :: rest when decide_eq st a0 a -> (a0, v) :: rest
        | c :: rest -> c :: upd rest
      in
      upd classes)
    [] stores

let compare_values st what la lb =
  if List.length la <> List.length lb then
    Some (Printf.sprintf "%s: arity differs" what)
  else
    let rec go i = function
      | [], [] -> None
      | a :: ra, b :: rb ->
          if equal_value st a b then go (i + 1) (ra, rb)
          else
            Some
              (Fmt.str "@[%s %d differs:@ %a@ vs %a@]" what i pp_term a
                 pp_term b)
      | _ -> assert false
    in
    go 0 (la, lb)

let compare_obs st (a : run) (b : run) : string option =
  match (a.obs, b.obs) with
  | Ojump ja, Ojump jb ->
      if ja.target <> jb.target then
        Some
          (Printf.sprintf "taken exits jump to different trees: %d vs %d"
             ja.target jb.target)
      else compare_values st "jump argument" ja.args jb.args
  | Ocall ca, Ocall cb ->
      if ca.callee <> cb.callee then
        Some
          (Printf.sprintf "taken exits call different functions: %s vs %s"
             ca.callee cb.callee)
      else if ca.return_to <> cb.return_to then
        Some "taken exits return to different trees"
      else if ca.ret <> cb.ret then
        Some "taken exits bind the return value to different registers"
      else (
        match compare_values st "call argument" ca.call_args cb.call_args with
        | Some d -> Some d
        | None ->
            compare_values st "continuation argument" ca.cont_args cb.cont_args)
  | Oreturn ra, Oreturn rb -> (
      match (ra, rb) with
      | None, None -> None
      | Some x, Some y ->
          if equal_value st x y then None
          else
            Some
              (Fmt.str "@[return values differ:@ %a@ vs %a@]" pp_term x
                 pp_term y)
      | _ -> Some "one exit returns a value, the other does not")
  | _ -> Some "taken exits have different kinds"

let compare_classes st ca cb : string option =
  let rec missing side xs ys =
    match xs with
    | [] -> None
    | (a, v) :: rest -> (
        match List.find_opt (fun (b, _) -> decide_eq st b a) ys with
        | None ->
            Some
              (Fmt.str "@[%s store at %a@ has no counterpart@]" side pp_term a)
        | Some (_, w) ->
            if equal_value st v w then missing side rest ys
            else
              Some
                (Fmt.str "@[values stored at %a differ:@ %a@ vs %a@]" pp_term
                   a pp_term v pp_term w))
  in
  match missing "original" ca cb with
  | Some d -> Some d
  | None -> missing "transformed" cb ca

(* ------------------------------------------------------------------ *)
(* Exploration *)

type stats = { paths : int; splits : int; terms : int }
type digests = { exit_digest : string; store_digest : string }

type outcome =
  | Equivalent
  | Mismatch of { assumptions : string list; detail : string }
  | Overflow of int
  | Unmodelled of string

let pp_atom ppf = function
  | Aeq f -> Fmt.pf ppf "0 = %a" Affine.pp f
  | Atruth tid -> Fmt.pf ppf "t%d" tid

let render_obs buf (r : run) =
  Buffer.add_string buf
    (match r.obs with
    | Ojump { target; args } ->
        Printf.sprintf "jump %d (%s)" target
          (String.concat "," (List.map (fun t -> string_of_int t.tid) args))
    | Ocall { callee; call_args; ret; return_to; cont_args } ->
        Printf.sprintf "call %s (%s) ret=%s to %d (%s)" callee
          (String.concat ","
             (List.map (fun t -> string_of_int t.tid) call_args))
          (match ret with None -> "-" | Some r -> string_of_int r)
          return_to
          (String.concat ","
             (List.map (fun t -> string_of_int t.tid) cont_args))
    | Oreturn None -> "return"
    | Oreturn (Some t) -> Printf.sprintf "return %d" t.tid)

let render_classes buf classes =
  List.iter
    (fun (a, v) -> Buffer.add_string buf (Printf.sprintf "[%d]=%d;" a.tid v.tid))
    classes

exception Too_many_paths

(* What one exploration records: its counters, the first mismatching
   path, and every leaf path's taken exit and store classes, under its
   assumption set, for the two digests. *)
type log = {
  mutable paths : int;
  mutable splits : int;
  mutable found : (string list * string) option;
  mutable names : string Atom_map.t;  (* each atom's rendering, once *)
  exit_buf : Buffer.t;
  store_buf : Buffer.t;
}

let new_log () =
  {
    paths = 0;
    splits = 0;
    found = None;
    names = Atom_map.empty;
    exit_buf = Buffer.create 256;
    store_buf = Buffer.create 256;
  }

let render_assumptions log asm =
  List.map
    (fun (a, v) ->
      let name =
        match Atom_map.find_opt a log.names with
        | Some name -> name
        | None ->
            let name = Fmt.str "%a" pp_atom a in
            log.names <- Atom_map.add a name log.names;
            name
      in
      if v then name else "!" ^ name)
    (Atom_map.bindings asm)

(* Whether the driver explores one more assumption set: not once a path
   has mismatched, and never past [max_paths]. *)
let proceed log ~max_paths =
  if log.found <> None then false
  else if log.paths >= max_paths then raise Too_many_paths
  else true

(* Check a path on which both trees ran to their taken exits; raises
   [Need_atom] when a new split is required.  Recording happens only
   after all raising work is done, so a path is recorded once, when it
   is a leaf. *)
let check_runs log st (ra : run) (rb : run) =
  let ca = mem_classes st ra.mem in
  let cb = mem_classes st rb.mem in
  let result =
    match compare_obs st ra rb with
    | Some d -> Some d
    | None -> compare_classes st ca cb
  in
  let prefix = String.concat " & " (render_assumptions log st.asm) in
  Buffer.add_string log.exit_buf ("{" ^ prefix ^ "} ");
  render_obs log.exit_buf ra;
  Buffer.add_char log.exit_buf '\n';
  Buffer.add_string log.store_buf ("{" ^ prefix ^ "} ");
  render_classes log.store_buf ca;
  Buffer.add_char log.store_buf '\n';
  log.paths <- log.paths + 1;
  Option.iter
    (fun detail -> log.found <- Some (render_assumptions log st.asm, detail))
    result

(* Run an exploration driver over [ctx] and [log] to its outcome. *)
let conclude ctx log drive : outcome * stats * digests =
  let outcome =
    match drive () with
    | () -> (
        match log.found with
        | None -> Equivalent
        | Some (assumptions, detail) -> Mismatch { assumptions; detail })
    | exception Too_many_paths -> Overflow log.paths
    | exception Unsupported msg -> Unmodelled msg
  in
  let digest buf = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  ( outcome,
    { paths = log.paths; splits = log.splits; terms = ctx.next_tid },
    { exit_digest = digest log.exit_buf; store_digest = digest log.store_buf }
  )

(* Depth first, the assumed-true child of each split before the
   assumed-false one.  A split forks the path state:
   - Both children of an [Atruth] split, and the assumed-false child of
     an [Aeq] split, keep the parent's basis ([basis_of_asm] folds only
     assumed-true equalities), and no decision of the prefix read the
     new atom (reading an atom not yet assumed raises).  They resume at
     the step that raised, from copies of the cursors, the residual
     loads and the [decided] memo, and share the [ordered] memo.  The
     false [Aeq] child is infeasible exactly when the basis reduces its
     form to the constant 0.
   - The assumed-true [Aeq] child rebuilds the basis in atom order,
     which can re-decide compares the prefix made, so it replays both
     trees from their first instruction.
   Either way a child makes the decisions, and interns the terms, that
   replaying it from the first instruction would, in the same order, so
   paths, splits, terms and digests are those of a replay of every
   child.  [check_runs] is redone on every state, because
   [equal_value] looks atoms up without raising. *)
let explore ?(max_paths = 4096) ~is_addr_param ~(before : Tree.t)
    ~(after : Tree.t) () : outcome * stats * digests =
  let ctx = create ~is_addr_param in
  let before = compile before and after = compile after in
  let log = new_log () in
  let replay asm =
    match basis_of_asm asm with
    | None -> None (* infeasible assumption set: no concrete run reaches it *)
    | Some basis ->
        Some
          ( {
              ctx;
              asm;
              basis;
              residuals = [];
              decided = Itbl.create 16;
              ordered = Itbl.create 16;
            },
            start before,
            start after )
  in
  let rec visit state =
    if proceed log ~max_paths then
      match state with
      | None -> ()
      | Some (st, cur_b, cur_a) -> (
          match
            let ra = advance st cur_b in
            let rb = advance st cur_a in
            check_runs log st ra rb
          with
          | () -> ()
          | exception Need_atom a -> (
              log.splits <- log.splits + 1;
              let assume v st = { st with asm = Atom_map.add a v st.asm } in
              match a with
              | Aeq f ->
                  visit (replay (Atom_map.add a true st.asm));
                  visit
                    (if Affine.const_value (reduce st.basis f) = Some 0 then
                       None
                     else Some (assume false st, cur_b, cur_a))
              | Atruth _ ->
                  let sibling =
                    ( assume false { st with decided = Itbl.copy st.decided },
                      copy_cursor cur_b,
                      copy_cursor cur_a )
                  in
                  visit (Some (assume true st, cur_b, cur_a));
                  visit (Some sibling)))
  in
  conclude ctx log (fun () -> visit (replay Atom_map.empty))
