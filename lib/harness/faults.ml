(** Deterministic fault injection for the experiment engine.

    A {!t} is a set of armed faults with private hit counters; the
    engine consults it at well-defined points (cell computation start,
    on-disk cache reads, simulator fuel).  Faults are deterministic —
    the [n]-th cache read is corrupted, a cell key either matches or it
    does not — so tests and the CLI can reproduce a failure exactly.

    The spec grammar accepted by {!parse} is a comma-separated list of

    {v
    cache-corrupt:<n>         corrupt the n-th on-disk cache read (1-based)
    cell-raise:<key>[@<n>]    raise from matching cells ([n] first hits
                              only; default every hit)
    fuel:<n>                  cap every simulation at n tree traversals
    worker-raise:<n>          daemon: raise from the first n accepted
                              connections, exercising worker supervision
    checker-raise:<n>         raise from the first n per-application
                              transform-checker invocations, exercising
                              per-cell containment of a raising checker
    v}

    [<key>] selects cells by prefix of the engine's cell key,
    [bench/latency/KIND/...] — e.g. [adi/2/SPEC] hits the preparation,
    the summary and every cycle measurement of that grid cell.
    [worker-raise] is consulted by the serve daemon's workers;
    [checker-raise] by the pipeline's composed
    {!Spd_core.Heuristic.checker}. *)

exception Injected of string

let () =
  Printexc.register_printer (function
    | Injected what -> Some (Printf.sprintf "Fault injected: %s" what)
    | _ -> None)

type t = {
  cache_corrupt : int option;  (** which cache read to corrupt, 1-based *)
  cell : (string * int) option;  (** key prefix, number of hits armed *)
  fuel : int option;  (** simulator fuel override *)
  worker : int option;  (** connections whose worker should raise *)
  checker : int option;  (** checker invocations that should raise *)
  reads : int Atomic.t;  (** on-disk cache reads observed so far *)
  raises : int Atomic.t;  (** cell-raise faults fired so far *)
  worker_hits : int Atomic.t;  (** worker-raise faults fired so far *)
  checker_hits : int Atomic.t;  (** checker-raise faults fired so far *)
}

let none =
  { cache_corrupt = None; cell = None; fuel = None; worker = None;
    checker = None; reads = Atomic.make 0;
    raises = Atomic.make 0; worker_hits = Atomic.make 0;
    checker_hits = Atomic.make 0 }

let is_none t =
  t.cache_corrupt = None && t.cell = None && t.fuel = None
  && t.worker = None && t.checker = None

let fuel t = t.fuel

let corrupt_cache_read t =
  match t.cache_corrupt with
  | None -> false
  | Some n -> Atomic.fetch_and_add t.reads 1 + 1 = n

let cell_raise t ~key =
  match t.cell with
  | Some (prefix, times) when String.starts_with ~prefix key ->
      (* race-tolerant: concurrent matching cells may each take a slot,
         which only ever under-fires, never over-fires *)
      if Atomic.fetch_and_add t.raises 1 < times then
        raise (Injected (Printf.sprintf "cell-raise:%s" key))
  | _ -> ()

let worker_raise t =
  match t.worker with
  | None -> ()
  | Some times ->
      if Atomic.fetch_and_add t.worker_hits 1 < times then
        raise (Injected "worker-raise")

let checker_raise t =
  match t.checker with
  | None -> ()
  | Some times ->
      if Atomic.fetch_and_add t.checker_hits 1 < times then
        raise (Injected "checker-raise")

(* ------------------------------------------------------------------ *)

let parse_int what s =
  match int_of_string_opt s with
  | Some n when n > 0 -> Ok n
  | _ -> Error (Printf.sprintf "%s wants a positive integer, got %S" what s)

let parse_one acc spec =
  match String.index_opt spec ':' with
  | None ->
      Error
        (Printf.sprintf
           "malformed fault %S (expected cache-corrupt:<n>, \
            cell-raise:<key>[@<n>], fuel:<n>, worker-raise:<n> or \
            checker-raise:<n>)"
           spec)
  | Some i -> (
      let name = String.sub spec 0 i in
      let arg = String.sub spec (i + 1) (String.length spec - i - 1) in
      match name with
      | "cache-corrupt" ->
          Result.map
            (fun n -> { acc with cache_corrupt = Some n })
            (parse_int "cache-corrupt" arg)
      | "cell-raise" -> (
          if arg = "" then Error "cell-raise wants a cell key"
          else
            match String.index_opt arg '@' with
            | None -> Ok { acc with cell = Some (arg, max_int) }
            | Some j ->
                let key = String.sub arg 0 j in
                let times =
                  String.sub arg (j + 1) (String.length arg - j - 1)
                in
                Result.map
                  (fun n -> { acc with cell = Some (key, n) })
                  (parse_int "cell-raise count" times))
      | "fuel" ->
          Result.map (fun n -> { acc with fuel = Some n }) (parse_int "fuel" arg)
      | "worker-raise" ->
          Result.map
            (fun n -> { acc with worker = Some n })
            (parse_int "worker-raise" arg)
      | "checker-raise" ->
          Result.map
            (fun n -> { acc with checker = Some n })
            (parse_int "checker-raise" arg)
      | _ -> Error (Printf.sprintf "unknown fault %S" name))

let parse s =
  String.split_on_char ',' s
  |> List.filter (fun part -> String.trim part <> "")
  |> List.fold_left
       (fun acc part ->
         Result.bind acc (fun t -> parse_one t (String.trim part)))
       (Ok
          { none with reads = Atomic.make 0; raises = Atomic.make 0;
            worker_hits = Atomic.make 0; checker_hits = Atomic.make 0 })

let pp ppf t =
  let parts =
    List.filter_map Fun.id
      [
        Option.map (Printf.sprintf "cache-corrupt:%d") t.cache_corrupt;
        Option.map
          (fun (k, n) ->
            if n = max_int then Printf.sprintf "cell-raise:%s" k
            else Printf.sprintf "cell-raise:%s@%d" k n)
          t.cell;
        Option.map (Printf.sprintf "fuel:%d") t.fuel;
        Option.map (Printf.sprintf "worker-raise:%d") t.worker;
        Option.map (Printf.sprintf "checker-raise:%d") t.checker;
      ]
  in
  Fmt.string ppf
    (match parts with [] -> "none" | ps -> String.concat "," ps)
