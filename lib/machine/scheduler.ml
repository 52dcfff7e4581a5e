(** Resource-constrained list scheduler.

    Packs the nodes of a tree's dependence graph (instructions plus exit
    branches) into VLIW instruction words of at most [fus] operations per
    cycle, all functional units being universal and fully pipelined.
    Priority is the classic critical-path height: nodes with the longest
    remaining dependence chain issue first.

    The ready set is a binary max-heap keyed on (height, node index):
    higher height pops first, ties pop the lower node index.  That order
    is exactly the (height-descending, node-ascending stable sort) the
    historical ready-list scan used, so schedules are bit-identical to
    that scan (kept as the tests' reference scheduler) — and, being a
    pure function of the graph, identical across [--jobs] domain counts.  Nodes whose operands complete in a
    future cycle wait in a release queue (a min-heap on ready cycle)
    instead of being re-scanned every cycle.

    [spd.scheduler.schedules] and [spd.scheduler.fu_occupancy] count
    list schedules only: a schedule plan's widths at or above a tree's
    peak take its ASAP timing and never reach {!run}. *)

module Ddg = Spd_analysis.Ddg

type t = {
  issue : int array;  (** per node, the cycle it issues *)
  fu : int array;
      (** per node, the functional-unit slot (0-based) it occupies within
          its issue cycle — distinct nodes issuing the same cycle get
          distinct slots.  Purely descriptive: recording slots does not
          alter any scheduling decision. *)
  length : int;  (** schedule length: last issue cycle + 1 *)
}

let m_schedules = Spd_telemetry.Metrics.counter_handle "spd.scheduler.schedules"

let m_occupancy =
  Spd_telemetry.Metrics.histogram_handle
    ~buckets:Spd_telemetry.Metrics.fraction_buckets
    "spd.scheduler.fu_occupancy"

let register_metrics () =
  ignore (Spd_telemetry.Metrics.get m_schedules);
  ignore (Spd_telemetry.Metrics.get m_occupancy)

(* ------------------------------------------------------------------ *)
(* Priority heap *)

(** Array-backed binary max-heap of (priority, node) pairs with a
    deterministic total order: higher priority first, equal priorities
    broken by the {e lower} node index.  Exposed so the property tests
    can check the pop order directly. *)
module Heap = struct
  type t = {
    mutable prio : int array;
    mutable node : int array;
    mutable size : int;
  }

  let create cap =
    let cap = max cap 1 in
    { prio = Array.make cap 0; node = Array.make cap 0; size = 0 }

  let is_empty h = h.size = 0
  let size h = h.size

  (* strict "pops before": the heap invariant's order *)
  let before h i j =
    h.prio.(i) > h.prio.(j)
    || (h.prio.(i) = h.prio.(j) && h.node.(i) < h.node.(j))

  let swap h i j =
    let p = h.prio.(i) and n = h.node.(i) in
    h.prio.(i) <- h.prio.(j);
    h.node.(i) <- h.node.(j);
    h.prio.(j) <- p;
    h.node.(j) <- n

  let push h ~prio node =
    if h.size = Array.length h.prio then begin
      let cap = 2 * h.size in
      let prio' = Array.make cap 0 and node' = Array.make cap 0 in
      Array.blit h.prio 0 prio' 0 h.size;
      Array.blit h.node 0 node' 0 h.size;
      h.prio <- prio';
      h.node <- node'
    end;
    h.prio.(h.size) <- prio;
    h.node.(h.size) <- node;
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    while !i > 0 && before h !i ((!i - 1) / 2) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let peek h = if h.size = 0 then None else Some (h.prio.(0), h.node.(0))

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.node.(0) in
      h.size <- h.size - 1;
      if h.size > 0 then begin
        h.prio.(0) <- h.prio.(h.size);
        h.node.(0) <- h.node.(h.size);
        let i = ref 0 in
        let sifting = ref true in
        while !sifting do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let best = ref !i in
          if l < h.size && before h l !best then best := l;
          if r < h.size && before h r !best then best := r;
          if !best <> !i then begin
            swap h !i !best;
            i := !best
          end
          else sifting := false
        done
      end;
      Some top
    end
end

(* ------------------------------------------------------------------ *)
(* Scheduling *)

(** Schedule [g] on a machine with [fus] universal units.  [fus = None]
    means unlimited (the result then equals ASAP).

    Resource-constrained case: the ready heap holds data-ready nodes;
    the release queue (min-heap on ready cycle, priorities negated)
    holds nodes whose predecessors have all issued but whose operands
    complete in a future cycle.  Within a cycle the heap drains in
    priority order as a {e generation}: nodes enabled mid-cycle by a
    zero-weight edge (the prioritized exit chain) collect in [deferred]
    and only enter the heap once the current generation has drained
    with slots to spare — reproducing the historical scan's
    snapshot-then-rescan semantics exactly. *)
let run ?fus (g : Ddg.t) : t =
  let n = Ddg.n_nodes g in
  let issue = Array.make n (-1) in
  let fu = Array.make n 0 in
  (match fus with
  | None ->
      let asap = Ddg.asap g in
      Array.blit asap 0 issue 0 n;
      (* unlimited units: slot = rank among same-cycle issuers, in node
         order *)
      let per_cycle = Hashtbl.create 16 in
      for node = 0 to n - 1 do
        let k =
          try Hashtbl.find per_cycle issue.(node) with Not_found -> 0
        in
        fu.(node) <- k;
        Hashtbl.replace per_cycle issue.(node) (k + 1)
      done
  | Some fus ->
      if fus <= 0 then invalid_arg "Scheduler.run: fus must be positive";
      let height = Ddg.height g in
      let n_preds_left = Array.make n 0 in
      (* earliest data-ready cycle, updated as predecessors schedule *)
      let ready_at = Array.make n 0 in
      let ready = Heap.create n in
      let release = Heap.create n in
      for node = 0 to n - 1 do
        n_preds_left.(node) <- List.length g.preds.(node);
        if n_preds_left.(node) = 0 then Heap.push release ~prio:0 node
      done;
      let remaining = ref n in
      let cycle = ref 0 in
      while !remaining > 0 do
        (* admit every node whose operands are ready this cycle *)
        let admitting = ref true in
        while !admitting do
          match Heap.peek release with
          | Some (p, _) when -p <= !cycle -> (
              match Heap.pop release with
              | Some node -> Heap.push ready ~prio:height.(node) node
              | None -> assert false)
          | _ -> admitting := false
        done;
        let slots = ref fus in
        let deferred = ref [] in
        let exhausted = ref false in
        while (not !exhausted) && !slots > 0 do
          match Heap.pop ready with
          | Some node ->
              fu.(node) <- fus - !slots;
              decr slots;
              issue.(node) <- !cycle;
              decr remaining;
              List.iter
                (fun (s, w) ->
                  n_preds_left.(s) <- n_preds_left.(s) - 1;
                  ready_at.(s) <- max ready_at.(s) (!cycle + w);
                  if n_preds_left.(s) = 0 then
                    if ready_at.(s) <= !cycle then deferred := s :: !deferred
                    else Heap.push release ~prio:(-ready_at.(s)) s)
                g.succs.(node)
          | None -> (
              (* generation drained with slots left: the nodes it
                 enabled this cycle form the next generation *)
              match !deferred with
              | [] -> exhausted := true
              | ds ->
                  List.iter
                    (fun s -> Heap.push ready ~prio:height.(s) s)
                    ds;
                  deferred := [])
        done;
        (* slots gone: anything enabled this cycle waits for the next *)
        List.iter (fun s -> Heap.push ready ~prio:height.(s) s) !deferred;
        if !remaining > 0 then
          cycle :=
            if Heap.is_empty ready then
              (* idle until the next operand completes *)
              match Heap.peek release with
              | Some (p, _) -> max (!cycle + 1) (-p)
              | None -> !cycle + 1 (* unreachable: the graph is a DAG *)
            else !cycle + 1
      done);
  let length = Array.fold_left max (-1) issue + 1 in
  Spd_telemetry.Metrics.incr (Spd_telemetry.Metrics.get m_schedules);
  (match fus with
  | Some fus when length > 0 ->
      (* fraction of issue slots the packed schedule actually fills *)
      Spd_telemetry.Metrics.observe (Spd_telemetry.Metrics.get m_occupancy)
        (float_of_int n /. float_of_int (fus * length))
  | _ -> ());
  { issue; fu; length }

(** Convert a schedule into the timing table entry the simulator charges
    traversals with. *)
let timing (g : Ddg.t) (s : t) : Spd_sim.Timing.tree_timing =
  let insn_completion, exit_completion = Ddg.completion g s.issue in
  { Spd_sim.Timing.insn_completion; exit_completion }

(** Check that a schedule respects every dependence edge and the [fus]
    resource bound; used by the property tests. *)
let valid ?fus (g : Ddg.t) (s : t) : bool =
  let deps_ok = ref true in
  Array.iteri
    (fun node preds ->
      List.iter
        (fun (p, w) ->
          if s.issue.(node) < s.issue.(p) + w then deps_ok := false)
        preds)
    g.preds;
  let resources_ok =
    match fus with
    | None -> true
    | Some fus ->
        let per_cycle = Hashtbl.create 16 in
        Array.for_all
          (fun c ->
            let k = 1 + try Hashtbl.find per_cycle c with Not_found -> 0 in
            Hashtbl.replace per_cycle c k;
            k <= fus)
          s.issue
  in
  (* slot assignment: within bounds and unique per (cycle, fu) pair *)
  let slots_ok = ref (Array.length s.fu = Array.length s.issue) in
  let seen = Hashtbl.create 16 in
  Array.iteri
    (fun node c ->
      let slot = s.fu.(node) in
      if slot < 0 then slots_ok := false;
      (match fus with
      | Some fus when slot >= fus -> slots_ok := false
      | _ -> ());
      if Hashtbl.mem seen (c, slot) then slots_ok := false;
      Hashtbl.replace seen (c, slot) ())
    s.issue;
  !deps_ok && resources_ok && !slots_ok
