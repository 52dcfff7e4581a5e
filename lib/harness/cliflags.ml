(** Shared command-line flag parsers: every [spd] subcommand routes
    its budget and width flags through these, so a bad flag gets the
    same friendly one-line hint everywhere (the daemon's per-request
    quota errors reuse the wording).  The workload check and the
    front-end/simulator error messages live here too, so the CLI and
    the daemon word them alike. *)

let pos_int ~flag s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Ok n
  | Some n ->
      Error (Printf.sprintf "%s expects a positive integer, got %d" flag n)
  | None ->
      Error (Printf.sprintf "%s expects a positive integer, got %S" flag s)

let pos_float ~flag s =
  match float_of_string_opt (String.trim s) with
  | Some v when v > 0.0 && Float.is_finite v -> Ok v
  | Some v ->
      Error
        (Printf.sprintf "%s expects a positive number of seconds, got %g"
           flag v)
  | None ->
      Error
        (Printf.sprintf "%s expects a positive number of seconds, got %S"
           flag s)

let workload_names () =
  Spd_workloads.Registry.names
  @ List.map
      (fun (w : Spd_workloads.Workload.t) -> w.name)
      Spd_workloads.Registry.extras

let check_workload name =
  if List.mem name (workload_names ()) then Ok ()
  else
    Error
      (Printf.sprintf "unknown workload %S (one of: %s)" name
         (String.concat ", " (workload_names ())))

let error_message = function
  | Spd_lang.Lexer.Error (msg, line) ->
      Some (Printf.sprintf "lexical error, line %d: %s" line msg)
  | Spd_lang.Parser.Error (msg, line) ->
      Some (Printf.sprintf "syntax error, line %d: %s" line msg)
  | Spd_lang.Typecheck.Error msg -> Some ("type error: " ^ msg)
  | Spd_lang.Lower.Error msg -> Some ("lowering error: " ^ msg)
  | Spd_sim.Interp.Sim_error (k, ctx) ->
      Some (Fmt.str "runtime error: %a" Spd_sim.Interp.pp_error (k, ctx))
  | _ -> None
