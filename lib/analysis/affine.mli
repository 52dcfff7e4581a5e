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

type sym =
  | Sreg of Spd_ir.Reg.t
      (** opaque value: tree parameter or instruction result *)
  | Sglobal of string  (** the address of a global object *)
  | Sframe  (** the activation frame base *)

(** Total order on symbols, with the sign of [Stdlib.compare]: [Sframe]
    first, then [Sreg]s by register, then [Sglobal]s by name. *)
val compare_sym : sym -> sym -> int
module Sym_map :
  sig
    type key = sym
    type +!'a t
    val empty : 'a t
    val add : key -> 'a -> 'a t -> 'a t
    val add_to_list : key -> 'a -> 'a list t -> 'a list t
    val update : key -> ('a option -> 'a option) -> 'a t -> 'a t
    val singleton : key -> 'a -> 'a t
    val remove : key -> 'a t -> 'a t
    val merge :
      (key -> 'a option -> 'b option -> 'c option) -> 'a t -> 'b t -> 'c t
    val union : (key -> 'a -> 'a -> 'a option) -> 'a t -> 'a t -> 'a t
    val cardinal : 'a t -> int
    val bindings : 'a t -> (key * 'a) list
    val min_binding : 'a t -> key * 'a
    val min_binding_opt : 'a t -> (key * 'a) option
    val max_binding : 'a t -> key * 'a
    val max_binding_opt : 'a t -> (key * 'a) option
    val choose : 'a t -> key * 'a
    val choose_opt : 'a t -> (key * 'a) option
    val find : key -> 'a t -> 'a
    val find_opt : key -> 'a t -> 'a option
    val find_first : (key -> bool) -> 'a t -> key * 'a
    val find_first_opt : (key -> bool) -> 'a t -> (key * 'a) option
    val find_last : (key -> bool) -> 'a t -> key * 'a
    val find_last_opt : (key -> bool) -> 'a t -> (key * 'a) option
    val iter : (key -> 'a -> unit) -> 'a t -> unit
    val fold : (key -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
    val map : ('a -> 'b) -> 'a t -> 'b t
    val mapi : (key -> 'a -> 'b) -> 'a t -> 'b t
    val filter : (key -> 'a -> bool) -> 'a t -> 'a t
    val filter_map : (key -> 'a -> 'b option) -> 'a t -> 'b t
    val partition : (key -> 'a -> bool) -> 'a t -> 'a t * 'a t
    val split : key -> 'a t -> 'a t * 'a option * 'a t
    val is_empty : 'a t -> bool
    val mem : key -> 'a t -> bool
    val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool
    val compare : ('a -> 'a -> int) -> 'a t -> 'a t -> int
    val for_all : (key -> 'a -> bool) -> 'a t -> bool
    val exists : (key -> 'a -> bool) -> 'a t -> bool
    val to_list : 'a t -> (key * 'a) list
    val of_list : (key * 'a) list -> 'a t
    val to_seq : 'a t -> (key * 'a) Seq.t
    val to_rev_seq : 'a t -> (key * 'a) Seq.t
    val to_seq_from : key -> 'a t -> (key * 'a) Seq.t
    val add_seq : (key * 'a) Seq.t -> 'a t -> 'a t
    val of_seq : (key * 'a) Seq.t -> 'a t
  end
type t = { const : int; terms : int Sym_map.t; }
val const : int -> t
val sym : Sym_map.key -> t
val is_const : t -> bool
val const_value : t -> int option
val norm : int Sym_map.t -> int Sym_map.t
val add : t -> t -> t
val neg : t -> t
val sub : t -> t -> t
val scale : int -> t -> t
val equal : t -> t -> bool
val pp_sym : Format.formatter -> sym -> unit
val pp : Format.formatter -> t -> unit
type env = t Spd_ir.Reg.Map.t

(** Affine form of a register under [env]; unknown registers are opaque. *)
val form_of : t Spd_ir.Reg.Map.t -> Spd_ir.Reg.Map.key -> t

(** Compute affine forms for every register defined in the tree.  The
    result maps all parameters and instruction destinations. *)
val analyze : Spd_ir.Tree.t -> env

(** Interval of the values an affine form may take, given the tree's
    parameter ranges.  Symbols without a known range are unbounded. *)
val range : Spd_ir.Tree.t -> t -> Spd_ir.Interval.t

(** Address-like symbols: known objects plus opaque registers that the
    tree declares to be address parameters. *)
val is_addr_sym : Spd_ir.Tree.t -> sym -> bool

(** Split a form into its address part and its integer part. *)
val split_base : Spd_ir.Tree.t -> t -> int Sym_map.t * t
type base =
    Known_object of sym
  | Opaque_pointer of Spd_ir.Reg.t
  | No_base
  | Mixed
val base_of : Spd_ir.Tree.t -> t -> base
