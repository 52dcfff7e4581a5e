(** Symbolic affine address analysis.

    Every integer register of a tree is given an affine form

    [c0 + c1*s1 + ... + cn*sn]

    over symbols: tree parameters (opaque), load results (opaque), global
    addresses and the activation frame base.  This is the information the
    static disambiguator's GCD and Banerjee tests consume; it plays the
    role of the linear diophantine subscript equations of the paper's
    section 2.1.

    Registers whose value is not affine (float data, selects, products of
    two non-constants) become opaque symbols themselves, which keeps the
    analysis total: every register has a form. *)

open Spd_ir

type sym =
  | Sreg of Reg.t  (** opaque value: tree parameter or instruction result *)
  | Sglobal of string  (** the address of a global object *)
  | Sframe  (** the activation frame base *)

(* The order [Stdlib.compare] gives the constructors ([Sframe] <
   [Sreg] < [Sglobal]), without the polymorphic compare's runtime type
   dispatch: every [Sym_map] operation goes through it. *)
let compare_sym (a : sym) (b : sym) =
  match (a, b) with
  | Sframe, Sframe -> 0
  | Sframe, _ -> -1
  | _, Sframe -> 1
  | Sreg x, Sreg y -> Int.compare x y
  | Sreg _, Sglobal _ -> -1
  | Sglobal _, Sreg _ -> 1
  | Sglobal x, Sglobal y -> String.compare x y

module Sym_map = Map.Make (struct
  type t = sym

  let compare = compare_sym
end)

type t = { const : int; terms : int Sym_map.t }

let const c = { const = c; terms = Sym_map.empty }
let sym s = { const = 0; terms = Sym_map.add s 1 Sym_map.empty }

let is_const f = Sym_map.is_empty f.terms
let const_value f = if is_const f then Some f.const else None

let norm terms = Sym_map.filter (fun _ c -> c <> 0) terms

let add a b =
  {
    const = a.const + b.const;
    terms =
      norm
        (Sym_map.union (fun _ x y -> Some (x + y)) a.terms b.terms);
  }

let neg a = { const = -a.const; terms = Sym_map.map (fun c -> -c) a.terms }

(* [add a (neg b)] in one pass over both maps *)
let sub a b =
  {
    const = a.const - b.const;
    terms =
      Sym_map.merge
        (fun _ x y ->
          match
            Option.value x ~default:0 - Option.value y ~default:0
          with
          | 0 -> None
          | c -> Some c)
        a.terms b.terms;
  }

let scale k a =
  if k = 0 then const 0
  else { const = k * a.const; terms = Sym_map.map (fun c -> k * c) a.terms }

let equal a b = a.const = b.const && Sym_map.equal Int.equal a.terms b.terms

let pp_sym ppf = function
  | Sreg r -> Reg.pp ppf r
  | Sglobal g -> Fmt.pf ppf "&%s" g
  | Sframe -> Fmt.string ppf "&frame"

let pp ppf f =
  Fmt.pf ppf "%d" f.const;
  Sym_map.iter (fun s c -> Fmt.pf ppf " + %d*%a" c pp_sym s) f.terms

(* ------------------------------------------------------------------ *)
(* Per-tree analysis *)

type env = t Reg.Map.t

(** Affine form of a register under [env]; unknown registers are opaque. *)
let form_of env r =
  match Reg.Map.find_opt r env with Some f -> f | None -> sym (Sreg r)

(** Compute affine forms for every register defined in the tree.  The
    result maps all parameters and instruction destinations. *)
let analyze (tree : Tree.t) : env =
  let env = ref Reg.Map.empty in
  let bind r f = env := Reg.Map.add r f !env in
  List.iter (fun p -> bind p (sym (Sreg p))) tree.params;
  Array.iter
    (fun (insn : Insn.t) ->
      match insn.dst with
      | None -> ()
      | Some d ->
          let f =
            match (insn.op, insn.srcs) with
            | Opcode.Const (Value.Int v), [] -> const v
            | Opcode.Const (Value.Float _), [] -> sym (Sreg d)
            | Opcode.Addrof (Opcode.Global g), [] -> sym (Sglobal g)
            | Opcode.Addrof (Opcode.Frame off), [] ->
                add (sym Sframe) (const off)
            | Opcode.Ibin Opcode.Add, [ a; b ] ->
                add (form_of !env a) (form_of !env b)
            | Opcode.Ibin Opcode.Sub, [ a; b ] ->
                sub (form_of !env a) (form_of !env b)
            | Opcode.Ineg, [ a ] -> neg (form_of !env a)
            | Opcode.Mov, [ a ] -> form_of !env a
            | Opcode.Ibin Opcode.Mul, [ a; b ] -> (
                let fa = form_of !env a and fb = form_of !env b in
                match (const_value fa, const_value fb) with
                | Some k, _ -> scale k fb
                | _, Some k -> scale k fa
                | None, None -> sym (Sreg d))
            | Opcode.Ibin Opcode.Shl, [ a; b ] -> (
                let fa = form_of !env a and fb = form_of !env b in
                match const_value fb with
                | Some k when k >= 0 && k < 62 -> scale (1 lsl k) fa
                | _ -> sym (Sreg d))
            | _ -> sym (Sreg d)
          in
          bind d f)
    tree.insns;
  !env

(* ------------------------------------------------------------------ *)
(* Ranges and bases *)

(** Interval of the values an affine form may take, given the tree's
    parameter ranges.  Symbols without a known range are unbounded. *)
let range (tree : Tree.t) (f : t) : Interval.t =
  Sym_map.fold
    (fun s c acc ->
      let iv =
        match s with
        | Sreg r -> (
            match Reg.Map.find_opt r tree.ranges with
            | Some iv -> iv
            | None -> Interval.top)
        | Sglobal _ | Sframe -> Interval.top
      in
      Interval.add acc (Interval.scale c iv))
    f.terms (Interval.point f.const)

(** Address-like symbols: known objects plus opaque registers that the
    tree declares to be address parameters. *)
let is_addr_sym (tree : Tree.t) = function
  | Sglobal _ | Sframe -> true
  | Sreg r -> Reg.Set.mem r tree.addr_params

(** Split a form into its address part and its integer part. *)
let split_base tree f =
  let addr, int_part = Sym_map.partition (fun s _ -> is_addr_sym tree s) f.terms in
  (addr, { f with terms = int_part })

(** The base object of an address form, when it is a single known object
    with coefficient one. *)
type base = Known_object of sym | Opaque_pointer of Reg.t | No_base | Mixed

let base_of tree f =
  let addr, _ = split_base tree f in
  match Sym_map.bindings addr with
  | [] -> No_base
  | [ ((Sglobal _ | Sframe) as s, 1) ] -> Known_object s
  | [ (Sreg r, 1) ] -> Opaque_pointer r
  | _ -> Mixed
