(** Decision trees: the compilation and scheduling unit.

    A decision tree is the if-converted, flattened form of the largest
    single-entry acyclic group of basic blocks (paper section 4.1).  It
    consists of:

    - an ordered array of guarded instructions.  Order is the sequential
      ("original program") order and is the ground truth for memory
      semantics; register flow is single-assignment so any topological
      order consistent with the dependence arcs is equivalent;
    - a prioritized array of exits.  During a traversal the first exit (in
      array order) whose guard evaluates true is taken; the final exit is
      unconditional.  Exits carry block arguments: a parallel copy into the
      parameters of the successor tree;
    - the set of memory dependence arcs between its memory operations,
      which the disambiguators refine;
    - static value ranges for its parameters (loop induction variables with
      known bounds), consumed by the Banerjee test. *)

type exit_kind =
  | Jump of { target : int; args : Reg.t list }
      (** continue at tree [target] of the same function *)
  | Call of {
      callee : string;
      call_args : Reg.t list;
      ret : Reg.t option;
          (** register of the current activation receiving the result *)
      return_to : int;
      cont_args : Reg.t list;
          (** block arguments for [return_to], evaluated before the call *)
    }
  | Return of { value : Reg.t option }

type exit = { xguard : Insn.guard option; kind : exit_kind }

type t = {
  id : int;
  name : string;
  params : Reg.t list;
  insns : Insn.t array;
  exits : exit array;
  arcs : Memdep.t list;
  ranges : Interval.t Reg.Map.t;
  addr_params : Reg.Set.t;
      (** parameters known to hold object addresses (array parameters);
          the address analysis treats them as opaque base symbols *)
}

let make ~id ~name ~params ~insns ~exits ~arcs ~ranges
    ?(addr_params = Reg.Set.empty) () =
  { id; name; params; insns; exits; arcs; ranges; addr_params }

(* ------------------------------------------------------------------ *)
(* Accessors *)

let size t = Array.length t.insns + Array.length t.exits
(** Code size in operations, the metric of the paper's Figure 6-4 (exit
    branches count as operations; no-ops do not exist in this count). *)

let insn_index t id =
  let found = ref (-1) in
  Array.iteri (fun i insn -> if insn.Insn.id = id then found := i) t.insns;
  if !found < 0 then invalid_arg "Tree.insn_index: unknown instruction id"
  else !found

let insn_by_id t id = t.insns.(insn_index t id)

let mem_insns t =
  Array.to_list t.insns |> List.filter Insn.is_mem

let max_insn_id t =
  Array.fold_left (fun acc i -> max acc i.Insn.id) (-1) t.insns

let regs_of_exit_kind = function
  | Jump { args; _ } -> args
  | Call { call_args; cont_args; _ } -> call_args @ cont_args
  | Return { value = Some v } -> [ v ]
  | Return { value = None } -> []

let exit_uses (e : exit) =
  let g = match e.xguard with None -> [] | Some g -> [ g.Insn.greg ] in
  g @ regs_of_exit_kind e.kind

(** Every register mentioned anywhere in the tree. *)
let all_regs t =
  let acc = ref Reg.Set.empty in
  let add r = acc := Reg.Set.add r !acc in
  List.iter add t.params;
  Array.iter
    (fun i ->
      List.iter add (Insn.uses i);
      List.iter add (Insn.defs i))
    t.insns;
  Array.iter (fun e -> List.iter add (exit_uses e)) t.exits;
  !acc

(** Ambiguous (still-removable) arcs. *)
let ambiguous_arcs t = List.filter Memdep.is_ambiguous t.arcs

let active_arcs t = List.filter Memdep.is_active t.arcs

(** Rewrite every register mentioned by an exit through [lookup]. *)
let map_exit_regs (lookup : Reg.t -> Reg.t) (e : exit) : exit =
  let xguard =
    Option.map
      (fun (g : Insn.guard) -> { g with Insn.greg = lookup g.greg })
      e.xguard
  in
  let kind =
    match e.kind with
    | Jump { target; args } -> Jump { target; args = List.map lookup args }
    | Call { callee; call_args; ret; return_to; cont_args } ->
        Call
          {
            callee;
            call_args = List.map lookup call_args;
            ret;
            return_to;
            cont_args = List.map lookup cont_args;
          }
    | Return { value } -> Return { value = Option.map lookup value }
  in
  { xguard; kind }

(* ------------------------------------------------------------------ *)
(* Validation *)

exception Invalid of string

let fail fmt = Fmt.kstr (fun s -> raise (Invalid s)) fmt

(** [validate t] checks the structural invariants listed in the module
    documentation and raises {!Invalid} describing the first violation. *)
let validate t =
  (* instruction ids unique; each id's position, for the arc check *)
  let ids = Hashtbl.create 16 in
  Array.iteri
    (fun pos i ->
      if Hashtbl.mem ids i.Insn.id then
        fail "tree %s: duplicate instruction id %d" t.name i.Insn.id;
      Hashtbl.add ids i.Insn.id pos)
    t.insns;
  (* single assignment, defs disjoint from params, def-before-use *)
  let defined = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace defined p ()) t.params;
  let param_set = Reg.Set.of_list t.params in
  Array.iter
    (fun i ->
      List.iter
        (fun u ->
          if not (Hashtbl.mem defined u) then
            fail "tree %s: insn #%d uses undefined %a" t.name i.Insn.id
              Reg.pp u)
        (Insn.uses i);
      List.iter
        (fun d ->
          if Reg.Set.mem d param_set then
            fail "tree %s: insn #%d redefines parameter %a" t.name i.Insn.id
              Reg.pp d;
          if Hashtbl.mem defined d then
            fail "tree %s: insn #%d redefines %a" t.name i.Insn.id Reg.pp d;
          Hashtbl.replace defined d ())
        (Insn.defs i))
    t.insns;
  (* guards only on side-effecting instructions *)
  Array.iter
    (fun i ->
      if Option.is_some i.Insn.guard && not (Opcode.has_side_effect i.Insn.op)
      then
        fail "tree %s: insn #%d is pure but guarded" t.name i.Insn.id)
    t.insns;
  (* exits: at least one; last unconditional; uses defined *)
  let nx = Array.length t.exits in
  if nx = 0 then fail "tree %s: no exits" t.name;
  if Option.is_some t.exits.(nx - 1).xguard then
    fail "tree %s: last exit must be unconditional" t.name;
  Array.iter
    (fun e ->
      List.iter
        (fun u ->
          if not (Hashtbl.mem defined u) then
            fail "tree %s: exit uses undefined %a" t.name Reg.pp u)
        (exit_uses e))
    t.exits;
  (* arcs reference memory instructions, earlier -> later *)
  List.iter
    (fun (a : Memdep.t) ->
      let mem_pos id =
        match Hashtbl.find_opt ids id with
        | None -> fail "tree %s: arc references unknown insn #%d" t.name id
        | Some pos ->
            if not (Insn.is_mem t.insns.(pos)) then
              fail "tree %s: arc endpoint #%d is not a memory op" t.name id;
            pos
      in
      let src = mem_pos a.src in
      let dst = mem_pos a.dst in
      if src >= dst then
        fail "tree %s: arc #%d -> #%d not in program order" t.name a.src
          a.dst)
    t.arcs

(* ------------------------------------------------------------------ *)
(* Printing *)

let pp_exit ppf (e : exit) =
  let g ppf = Insn.pp_guard ppf e.xguard in
  match e.kind with
  | Jump { target; args } ->
      Fmt.pf ppf "%tjump t%d(%a)" g target Fmt.(list ~sep:(any ", ") Reg.pp) args
  | Call { callee; call_args; ret; return_to; cont_args } ->
      Fmt.pf ppf "%tcall %s(%a) -> %a, resume t%d(%a)" g callee
        Fmt.(list ~sep:(any ", ") Reg.pp)
        call_args
        Fmt.(option ~none:(any "_") Reg.pp)
        ret return_to
        Fmt.(list ~sep:(any ", ") Reg.pp)
        cont_args
  | Return { value } ->
      Fmt.pf ppf "%treturn %a" g Fmt.(option ~none:(any "") Reg.pp) value

let pp ppf t =
  Fmt.pf ppf "@[<v>tree t%d %s(%a):@," t.id t.name
    Fmt.(list ~sep:(any ", ") Reg.pp)
    t.params;
  Array.iter (fun i -> Fmt.pf ppf "  #%-3d %a@," i.Insn.id Insn.pp i) t.insns;
  Array.iter (fun e -> Fmt.pf ppf "  %a@," pp_exit e) t.exits;
  if t.arcs <> [] then begin
    Fmt.pf ppf "  arcs:@,";
    List.iter (fun a -> Fmt.pf ppf "    %a@," Memdep.pp a) t.arcs
  end;
  Fmt.pf ppf "@]"
