(** Concrete single-tree execution for witness checking.

    Runs one decision tree under the sequential semantics on a fully
    concrete valuation: every pure operation is evaluated, stores
    commit when their guard holds, and the first exit whose guard holds
    is taken.  Globals are laid out at fixed synthetic bases, the
    activation frame at another, and address parameters draw from a
    seeded pool that deliberately re-uses earlier addresses about half
    the time — concrete runs must exercise both the alias and the
    no-alias outcome of a speculated predicate.

    This evaluator exists so that a symbolic mismatch is only ever
    reported as [Refuted] after a concrete valuation has been observed
    to diverge, and so the property tests can cross-check [Proved]
    verdicts against real executions. *)

open Spd_ir

type obs = {
  exit_render : string;  (** taken exit with its concrete live-out values *)
  writes : (int * Value.t) list;  (** written cells, sorted by address *)
}

type outcome = Finished of obs | Trap of string

type case = {
  inputs : (Reg.t * Value.t) list;
  global_base : string -> int;
  frame_base : int;
  init_mem : int -> Value.t;
}

let run ~(param_value : Reg.t -> Value.t) ~(global_base : string -> int)
    ~(frame_base : int) ~(init_mem : int -> Value.t) (tree : Tree.t) :
    outcome =
  let env = Hashtbl.create 64 in
  let lookup r =
    match Hashtbl.find_opt env r with Some v -> v | None -> param_value r
  in
  let bind r v = Hashtbl.replace env r v in
  let mem = Hashtbl.create 64 in
  let read a =
    match Hashtbl.find_opt mem a with Some v -> v | None -> init_mem a
  in
  let guard_holds = function
    | None -> true
    | Some { Insn.greg; positive } ->
        let b = Value.is_true (lookup greg) in
        if positive then b else not b
  in
  try
    Array.iter
      (fun (insn : Insn.t) ->
        match insn.op with
        | Opcode.Store ->
            if guard_holds insn.guard then
              Hashtbl.replace mem
                (Value.to_int (lookup (Insn.addr insn)))
                (lookup (Insn.store_value insn))
        | Opcode.Load -> (
            let v = read (Value.to_int (lookup (Insn.addr insn))) in
            match insn.dst with Some d -> bind d v | None -> ())
        | Opcode.Addrof (Opcode.Global g) -> (
            match insn.dst with
            | Some d -> bind d (Value.Int (global_base g))
            | None -> ())
        | Opcode.Addrof (Opcode.Frame off) -> (
            match insn.dst with
            | Some d -> bind d (Value.Int (frame_base + off))
            | None -> ())
        | op -> (
            match insn.dst with
            | None -> ()
            | Some d ->
                bind d
                  (Spd_sim.Interp.eval_pure op (List.map lookup insn.srcs))))
      tree.insns;
    let n = Array.length tree.exits in
    let rec taken i =
      if i >= n - 1 then i
      else
        match tree.exits.(i).Tree.xguard with
        | None -> i
        | Some { greg; positive } ->
            let b = Value.is_true (lookup greg) in
            if (if positive then b else not b) then i else taken (i + 1)
    in
    let e = tree.exits.(taken 0) in
    let exit_render =
      match e.Tree.kind with
      | Tree.Jump { target; args } ->
          Fmt.str "jump %d(%a)" target
            Fmt.(list ~sep:comma Value.pp)
            (List.map lookup args)
      | Tree.Call { callee; call_args; ret; return_to; cont_args } ->
          Fmt.str "call %s(%a) ret=%a to %d(%a)" callee
            Fmt.(list ~sep:comma Value.pp)
            (List.map lookup call_args)
            Fmt.(option ~none:(any "-") Reg.pp)
            ret return_to
            Fmt.(list ~sep:comma Value.pp)
            (List.map lookup cont_args)
      | Tree.Return { value } ->
          Fmt.str "return %a"
            Fmt.(option ~none:(any "-") Value.pp)
            (Option.map lookup value)
    in
    let writes =
      Hashtbl.fold (fun a v acc -> (a, v) :: acc) mem []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    in
    Finished { exit_render; writes }
  with Spd_sim.Interp.Runtime_error msg -> Trap msg

(* ------------------------------------------------------------------ *)
(* Seeded valuations *)

let case_of_seed ~seed (before : Tree.t) (after : Tree.t) : case =
  let rng = Random.State.make [| 0x5eed; seed |] in
  let globals =
    let tbl = Hashtbl.create 8 in
    let scan (t : Tree.t) =
      Array.iter
        (fun (i : Insn.t) ->
          match i.op with
          | Opcode.Addrof (Opcode.Global g) -> Hashtbl.replace tbl g ()
          | _ -> ())
        t.insns
    in
    scan before;
    scan after;
    List.sort String.compare (Hashtbl.fold (fun g () acc -> g :: acc) tbl [])
  in
  let gbase = List.mapi (fun i g -> (g, 0x1000 * (i + 1))) globals in
  let global_base g = match List.assoc_opt g gbase with Some b -> b | None -> 0x800 in
  let frame_base = 0x80000 in
  let arena = ref 0x100000 in
  let prev_addrs = ref [] in
  let fresh_addr () =
    match !prev_addrs with
    | _ :: _ when Random.State.bool rng ->
        (* re-use an earlier address parameter: the alias case *)
        List.nth !prev_addrs (Random.State.int rng (List.length !prev_addrs))
    | _ -> (
        match Random.State.int rng 3 with
        | 0 when gbase <> [] ->
            let _, b =
              List.nth gbase (Random.State.int rng (List.length gbase))
            in
            b + Random.State.int rng 8
        | 1 -> frame_base + Random.State.int rng 8
        | _ ->
            arena := !arena + 64;
            !arena + Random.State.int rng 4)
  in
  let is_addr r =
    Reg.Set.mem r before.Tree.addr_params
    || Reg.Set.mem r after.Tree.addr_params
  in
  let inputs =
    List.map
      (fun r ->
        let v =
          if is_addr r then (
            let a = fresh_addr () in
            prev_addrs := a :: !prev_addrs;
            a)
          else Random.State.int rng 33 - 16
        in
        (r, Value.Int v))
      before.Tree.params
  in
  let init_mem a =
    Value.Int (((a * 2654435761 + (seed * 0x9e3779b9)) land 0xffff mod 41) - 20)
  in
  { inputs; global_base; frame_base; init_mem }

let compare_runs ~init_mem (a : outcome) (b : outcome) : string option =
  match (a, b) with
  | Trap ma, Trap mb ->
      if ma = mb then None
      else Some (Printf.sprintf "different traps: %s vs %s" ma mb)
  | Trap m, Finished _ ->
      Some (Printf.sprintf "original traps (%s), transformed finishes" m)
  | Finished _, Trap m ->
      Some (Printf.sprintf "transformed traps (%s), original finishes" m)
  | Finished oa, Finished ob ->
      if oa.exit_render <> ob.exit_render then
        Some
          (Printf.sprintf "taken exit differs: %s vs %s" oa.exit_render
             ob.exit_render)
      else
        let addrs =
          List.sort_uniq Int.compare
            (List.map fst oa.writes @ List.map fst ob.writes)
        in
        let look ws a =
          match List.assoc_opt a ws with Some v -> v | None -> init_mem a
        in
        let rec go = function
          | [] -> None
          | a :: rest ->
              let va = look oa.writes a and vb = look ob.writes a in
              if Value.equal va vb then go rest
              else
                Some
                  (Fmt.str "memory at %d differs: %a vs %a" a Value.pp va
                     Value.pp vb)
        in
        go addrs

(** [divergence ~seed ~before ~after] runs both trees on the seeded
    valuation and returns a rendering of the first observable
    difference, or [None] when the runs agree. *)
let divergence ~seed ~(before : Tree.t) ~(after : Tree.t) : string option =
  let c = case_of_seed ~seed before after in
  let values = Reg.Map.of_seq (List.to_seq c.inputs) in
  let param_value r =
    match Reg.Map.find_opt r values with Some v -> v | None -> Value.Int 0
  in
  let go t =
    run ~param_value ~global_base:c.global_base ~frame_base:c.frame_base
      ~init_mem:c.init_mem t
  in
  compare_runs ~init_mem:c.init_mem (go before) (go after)

(** The concrete parameter values the seeded valuation assigns. *)
let inputs_of_seed ~seed ~(before : Tree.t) ~(after : Tree.t) :
    (Reg.t * Value.t) list =
  (case_of_seed ~seed before after).inputs
