(** The static alias oracle.

    Combines the distinct-object rule, the GCD test and the Banerjee
    inequalities over symbolic affine address forms, answering for a pair
    of addresses exactly the three-way question of the paper's section 2.2:

    - [No]: never the same address;
    - [Must]: always the same address (the difference is identically 0);
    - [Unknown p]: possibly aliased, with an estimated alias probability
      when the subscript equation admits one. *)

open Spd_ir
module Affine = Spd_analysis.Affine

type answer =
  | No
  | Must
  | Unknown of float option

let equal_answer a b =
  match (a, b) with
  | No, No | Must, Must -> true
  | Unknown x, Unknown y -> x = y
  | _ -> false

let pp_answer ppf = function
  | No -> Fmt.string ppf "no"
  | Must -> Fmt.string ppf "must"
  | Unknown None -> Fmt.string ppf "unknown"
  | Unknown (Some p) -> Fmt.pf ppf "unknown(p=%.4f)" p

(** Compare two affine address forms within a tree; when the answer is
    [Unknown], also say which test left the pair ambiguous. *)
let query_forms_why (tree : Tree.t) (f1 : Affine.t) (f2 : Affine.t) :
    answer * Memdep.ambiguity option =
  let addr1, int1 = Affine.split_base tree f1 in
  let addr2, int2 = Affine.split_base tree f2 in
  if Affine.Sym_map.equal Int.equal addr1 addr2 then begin
    (* same object (or same pointer expression): compare offsets *)
    let diff = Affine.sub int1 int2 in
    match Affine.const_value diff with
    | Some 0 -> (Must, None)
    | Some _ -> (No, None)
    | None ->
        let coeffs =
          Affine.Sym_map.bindings diff.terms |> List.map snd
        in
        if not (Gcd_test.may_have_solution ~coeffs ~const:diff.const) then
          (No, None)
        else if Banerjee.proves_independent tree diff then (No, None)
        else (
          match Banerjee.single_symbol_probability tree diff with
          | Some `No -> (No, None)
          | Some (`Prob p) ->
              (Unknown (Some p), Some Memdep.Solution_counted)
          | None -> (Unknown None, Some Memdep.Banerjee_inconclusive))
  end
  else
    (* different address parts: distinct named objects never alias; any
       opaque pointer may point anywhere (the paper's hard cases) *)
    match (Affine.base_of tree f1, Affine.base_of tree f2) with
    | Affine.Known_object b1, Affine.Known_object b2
      when Affine.compare_sym b1 b2 <> 0 ->
        (No, None)
    | _ -> (Unknown None, Some Memdep.Opaque_base)

(** Compare the addresses of two memory instructions of [tree] under the
    affine environment [env] (from {!Spd_analysis.Affine.analyze}). *)
let query_why tree env (a : Insn.t) (b : Insn.t) :
    answer * Memdep.ambiguity option =
  query_forms_why tree
    (Affine.form_of env (Insn.addr a))
    (Affine.form_of env (Insn.addr b))

let query tree env a b : answer = fst (query_why tree env a b)
