(** Critical-path extraction and cycle attribution.

    Walks a schedule backwards from its last-completing node and
    partitions the makespan [0, span) into disjoint intervals, each
    charged to one of four categories:

    - {b ambiguous memory arc}: the walk crossed an ambiguous memory
      dependence edge — the wait exists only because the compiler could
      not disambiguate the pair (these are the cycles SpD removes);
    - {b dataflow}: an operation executing, or a wait imposed by a
      register-flow edge or a must memory dependence;
    - {b resource}: the scheduler held a data-ready operation back for
      lack of a free functional unit (or the machine idled);
    - {b branch}: an exit branch resolving, including waits imposed by
      the exit priority chain.

    Because the intervals tile [0, span) exactly, the per-category
    totals always sum to the schedule's makespan — the invariant the
    test suite asserts and the per-region report relies on. *)

module Ddg = Spd_analysis.Ddg
module Memdep = Spd_ir.Memdep

type category = Ambiguous_mem | Dataflow | Resource | Branch

let categories = [ Ambiguous_mem; Dataflow; Resource; Branch ]

let category_name = function
  | Ambiguous_mem -> "ambiguous-mem"
  | Dataflow -> "dataflow"
  | Resource -> "resource"
  | Branch -> "branch"

type step = {
  node : int;  (** the node whose wait/execution this interval covers *)
  lo : int;
  hi : int;  (** interval [lo, hi); always [lo < hi] *)
  category : category;
}

type t = {
  span : int;
  path : int list;  (** the critical path, entry first *)
  steps : step list;  (** intervals tiling [0, span), latest first *)
  by_category : (category * int) list;  (** cycle totals, all categories *)
}

let m_cycles =
  List.map
    (fun c ->
      ( c,
        Spd_telemetry.Metrics.counter_handle
          ("spd.critpath.cycles." ^ category_name c) ))
    categories

let register_metrics () =
  List.iter (fun (_, h) -> ignore (Spd_telemetry.Metrics.get h)) m_cycles

(* Preference order when several predecessor edges tie as the latest
   constraint: surface ambiguous memory arcs first (they are what SpD is
   about), then must memory dependences, then register flow, then the
   exit chain; break remaining ties on the lower node for determinism. *)
let edge_score (g : Ddg.t) ~src ~dst =
  match Ddg.mem_arc g ~src ~dst with
  | Some arc -> if Memdep.is_ambiguous arc then 3 else 2
  | None -> if src >= g.Ddg.n_insns && dst >= g.Ddg.n_insns then 0 else 1

let analyze (s : Schedule.t) : t =
  let g = s.Schedule.ddg in
  let issue node = s.Schedule.ops.(node).Schedule.issue in
  let latency node = Ddg.node_latency g node in
  let self_category node =
    if Schedule.is_exit s node then Branch else Dataflow
  in
  (* last-completing node starts the walk; ties go to the lower node *)
  let start =
    Array.fold_left
      (fun best (op : Schedule.op) ->
        if op.Schedule.complete > s.Schedule.ops.(best).Schedule.complete
        then op.Schedule.node
        else best)
      0 s.Schedule.ops
  in
  let steps = ref [] in
  let path = ref [] in
  let emit node lo hi category =
    if hi > lo then steps := { node; lo; hi; category } :: !steps
  in
  (* Attribute [0, hi) walking up from [cur]; [issue cur <= hi].  Each
     call emits the node's own execution up to [hi], a resource gap
     between data-readiness and issue, then recurses into the
     predecessor that constrained readiness.  The emitted intervals tile
     [0, hi) exactly. *)
  let rec walk cur hi =
    path := cur :: !path;
    emit cur (issue cur) (min hi (issue cur + latency cur))
      (self_category cur);
    let ready, constraining =
      Ddg.fold_preds g cur
        (fun p w (ready, best) ->
          let at = issue p + w in
          if at > ready then (at, Some (p, w))
          else if at = ready then
            match best with
            | Some (b, bw)
              when edge_score g ~src:b ~dst:cur > edge_score g ~src:p ~dst:cur
                   || (edge_score g ~src:b ~dst:cur
                       = edge_score g ~src:p ~dst:cur
                      && b <= p) ->
                (ready, Some (b, bw))
            | _ -> (ready, Some (p, w))
          else (ready, best))
        (0, None)
    in
    emit cur ready (issue cur) Resource;
    match constraining with
    | None -> () (* data ready at entry: [0, issue) was a resource gap *)
    | Some (p, _w) -> (
        match Ddg.mem_arc g ~src:p ~dst:cur with
        | Some arc when Memdep.is_ambiguous arc ->
            (* the whole wait for [p] exists only because of the
               ambiguous arc: charge it to the arc, not to [p]'s own
               dataflow *)
            emit cur (issue p) ready Ambiguous_mem;
            walk p (issue p)
        | Some _ ->
            (* must dependence: the wait is genuine dataflow *)
            let covered = min ready (issue p + latency p) in
            emit cur covered ready Dataflow;
            walk p covered
        | None ->
            let covered = min ready (issue p + latency p) in
            emit cur covered ready
              (if Schedule.is_exit s p then Branch else Dataflow);
            walk p covered)
  in
  let span = s.Schedule.span in
  if span > 0 then walk start span;
  let by_category =
    List.map
      (fun c ->
        ( c,
          List.fold_left
            (fun acc st -> if st.category = c then acc + (st.hi - st.lo) else acc)
            0 !steps ))
      categories
  in
  List.iter
    (fun (c, n) ->
      if n > 0 then
        Spd_telemetry.Metrics.incr ~by:n
          (Spd_telemetry.Metrics.get (List.assoc c m_cycles)))
    by_category;
  { span; path = !path; steps = !steps; by_category }
