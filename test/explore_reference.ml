(** The replay driver of the symbolic explorer, kept as a differential
    oracle for {!Spd_validate.Symexec.explore}: every assumption set runs
    both trees from their first instruction, over a fresh register
    table, residual-load list and [decided] and [ordered] memos, and
    calls [app] for every pure instruction.  The forked explorer must reach the same
    outcome, [paths], [splits], [terms] and digests; the validator
    tests and the differential fuzzer compare the two. *)

open Spd_ir
module S = Spd_validate.Symexec

(* One tree under one path's assumptions, from its first instruction. *)
let exec (st : S.path) (tree : Tree.t) : S.run =
  let env = Hashtbl.create 64 in
  let lookup r =
    match Hashtbl.find_opt env r with Some t -> t | None -> S.param st.ctx r
  in
  let bind r t = Hashtbl.replace env r t in
  let mem = ref S.init_mem in
  Array.iter
    (fun (insn : Insn.t) ->
      match insn.op with
      | Opcode.Store ->
          let committed =
            match insn.guard with
            | None -> true
            | Some { greg; positive } -> S.truth st (lookup greg) = positive
          in
          if committed then
            let addr = lookup (Insn.addr insn) in
            let value = lookup (Insn.store_value insn) in
            mem := S.store st.ctx !mem ~addr ~value
      | Opcode.Load -> (
          let v = S.resolve_load st !mem (lookup (Insn.addr insn)) in
          match insn.dst with Some d -> bind d v | None -> ())
      | Opcode.Select -> (
          match (insn.dst, insn.srcs) with
          | Some d, [ p; a; b ] ->
              bind d (if S.truth st (lookup p) then lookup a else lookup b)
          | _ -> raise (S.Unsupported "malformed select"))
      | op -> (
          match insn.dst with
          | None -> ()
          | Some d -> bind d (S.app st.ctx op (List.map lookup insn.srcs))))
    tree.insns;
  let n = Array.length tree.exits in
  let rec taken i =
    if i >= n - 1 then i
    else
      match tree.exits.(i).Tree.xguard with
      | None -> i
      | Some { greg; positive } ->
          if S.truth st (lookup greg) = positive then i else taken (i + 1)
  in
  let obs =
    match tree.exits.(taken 0).Tree.kind with
    | Tree.Jump { target; args } ->
        S.Ojump { target; args = List.map lookup args }
    | Tree.Call { callee; call_args; ret; return_to; cont_args } ->
        S.Ocall
          {
            callee;
            call_args = List.map lookup call_args;
            ret;
            return_to;
            cont_args = List.map lookup cont_args;
          }
    | Tree.Return { value } -> S.Oreturn (Option.map lookup value)
  in
  { S.obs; mem = !mem }

(** [Symexec.explore] with every child of a split replayed. *)
let explore ?(max_paths = 4096) ~is_addr_param ~(before : Tree.t)
    ~(after : Tree.t) () : S.outcome * S.stats * S.digests =
  let ctx = S.create ~is_addr_param in
  let log = S.new_log () in
  let rec go asm =
    if S.proceed log ~max_paths then
      match S.basis_of_asm asm with
      | None -> ()
      | Some basis -> (
          let st =
            {
              S.ctx;
              asm;
              basis;
              residuals = [];
              decided = S.Itbl.create 16;
              ordered = S.Itbl.create 16;
            }
          in
          match
            let ra = exec st before in
            let rb = exec st after in
            S.check_runs log st ra rb
          with
          | () -> ()
          | exception S.Need_atom a ->
              log.splits <- log.splits + 1;
              go (S.Atom_map.add a true asm);
              go (S.Atom_map.add a false asm))
  in
  S.conclude ctx log (fun () -> go S.Atom_map.empty)

(** Both explorers on one obligation at [max_paths]: the outcome they
    agree on, or what differs. *)
let check ?max_paths ~(before : Tree.t) ~(after : Tree.t) () :
    (S.outcome, string) result =
  let is_addr_param r =
    Reg.Set.mem r before.addr_params || Reg.Set.mem r after.addr_params
  in
  let o, s, d = S.explore ?max_paths ~is_addr_param ~before ~after () in
  let o', s', d' = explore ?max_paths ~is_addr_param ~before ~after () in
  let outcome = function
    | S.Equivalent -> "equivalent"
    | S.Mismatch { assumptions; detail } ->
        Printf.sprintf "mismatch {%s} %s"
          (String.concat " & " assumptions)
          detail
    | S.Overflow n -> Printf.sprintf "overflow after %d paths" n
    | S.Unmodelled msg -> "unmodelled: " ^ msg
  in
  let stats (s : S.stats) =
    Printf.sprintf "paths=%d splits=%d terms=%d" s.paths s.splits s.terms
  in
  let digests (d : S.digests) =
    Printf.sprintf "exit=%s store=%s" d.exit_digest d.store_digest
  in
  match
    List.find_opt
      (fun (_, forked, replayed) -> not (String.equal forked replayed))
      [
        ("outcome", outcome o, outcome o');
        ("stats", stats s, stats s');
        ("digests", digests d, digests d');
      ]
  with
  | None -> Ok o
  | Some (what, forked, replayed) ->
      Error (Printf.sprintf "%s: forked %s, replayed %s" what forked replayed)
