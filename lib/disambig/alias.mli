(** The static alias oracle.

    Combines the distinct-object rule, the GCD test and the Banerjee
    inequalities over symbolic affine address forms, answering for a pair
    of addresses exactly the three-way question of the paper's section 2.2:

    - [No]: never the same address;
    - [Must]: always the same address (the difference is identically 0);
    - [Unknown p]: possibly aliased, with an estimated alias probability
      when the subscript equation admits one. *)

module Affine = Spd_analysis.Affine
type answer = No | Must | Unknown of float option
val equal_answer : answer -> answer -> bool
val pp_answer : Format.formatter -> answer -> unit

(** Compare two affine address forms within a tree; when the answer is
    [Unknown], also report which test left the pair ambiguous (the
    decision ledger's provenance): [Opaque_base] on the distinct-base fallthrough,
    [Banerjee_inconclusive] when neither GCD nor the Banerjee bounds
    could decide, [Solution_counted] when an alias probability was
    estimated by counting subscript solutions. *)
val query_forms_why :
  Spd_ir.Tree.t ->
  Affine.t -> Affine.t -> answer * Spd_ir.Memdep.ambiguity option

(** Compare the addresses of two memory instructions of [tree] under the
    affine environment [env] (from {!Spd_analysis.Affine.analyze}). *)
val query :
  Spd_ir.Tree.t ->
  Affine.t Spd_ir.Reg.Map.t -> Spd_ir.Insn.t -> Spd_ir.Insn.t -> answer

(** {!query} with the ambiguity provenance of {!query_forms_why}. *)
val query_why :
  Spd_ir.Tree.t ->
  Affine.t Spd_ir.Reg.Map.t ->
  Spd_ir.Insn.t ->
  Spd_ir.Insn.t -> answer * Spd_ir.Memdep.ambiguity option
