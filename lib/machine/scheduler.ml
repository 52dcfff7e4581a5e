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
    pure function of the graph, identical across [--jobs] domain
    counts.  Nodes whose operands complete in a future cycle wait in a
    release queue (a min-heap on ready cycle) instead of being
    re-scanned every cycle.

    A list schedule allocates only its result.  Its working arrays
    (both heaps, the predecessor counts, ready cycles, heights and the
    deferred generation) are scratch owned by the calling domain (a
    [Domain.DLS] key), grown on demand and reused by the domain's next
    run; they do not live in the graph, which both domains of a session
    read while they price different widths.

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
  (* One int per entry: the priority in the high bits and the node,
     complemented, in the low [node_bits], so that integer order is the
     heap's order: a larger key pops first. *)
  type t = { mutable keys : int array; mutable size : int }

  let node_bits = 21
  let node_mask = (1 lsl node_bits) - 1

  let create cap = { keys = Array.make (max cap 1) 0; size = 0 }
  let is_empty h = h.size = 0
  let size h = h.size
  let clear h = h.size <- 0

  let push h ~prio node =
    if node < 0 || node > node_mask then
      invalid_arg "Scheduler.Heap.push: node out of range";
    if h.size = Array.length h.keys then begin
      let keys = Array.make (2 * h.size) 0 in
      Array.blit h.keys 0 keys 0 h.size;
      h.keys <- keys
    end;
    let key = (prio lsl node_bits) lor (node_mask - node) in
    let keys = h.keys in
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && keys.((!i - 1) / 2) < key do
      keys.(!i) <- keys.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    keys.(!i) <- key

  let top_prio h =
    if h.size = 0 then invalid_arg "Scheduler.Heap.top_prio: empty heap";
    h.keys.(0) asr node_bits

  let pop h =
    if h.size = 0 then invalid_arg "Scheduler.Heap.pop: empty heap";
    let keys = h.keys in
    let top = keys.(0) in
    let n = h.size - 1 in
    h.size <- n;
    if n > 0 then begin
      (* sift the last key down from the root *)
      let key = keys.(n) in
      let i = ref 0 and sifting = ref true in
      while !sifting do
        let l = (2 * !i) + 1 in
        if l >= n then sifting := false
        else begin
          let c = if l + 1 < n && keys.(l + 1) > keys.(l) then l + 1 else l in
          if keys.(c) > key then begin
            keys.(!i) <- keys.(c);
            i := c
          end
          else sifting := false
        end
      done;
      keys.(!i) <- key
    end;
    node_mask - (top land node_mask)
end

(* ------------------------------------------------------------------ *)
(* Per-domain scratch *)

(* The working set of one list schedule, reused by the domain's next
   run.  The int arrays hold at least as many slots as the largest graph
   the domain has scheduled. *)
type scratch = {
  mutable height : int array;
  mutable preds_left : int array;
  mutable ready_at : int array;  (** earliest data-ready cycle *)
  mutable deferred : int array;
      (** the generation enabled mid-cycle, [n_deferred] long *)
  mutable n_deferred : int;
  mutable cycle : int;  (** the cycle being filled *)
  ready : Heap.t;
  release : Heap.t;
  enable : int -> int -> unit;  (** {!enable} of this scratch *)
}

(* [s] lost a predecessor, over an edge of weight [w], to a node issued
   this cycle *)
let enable sc s w =
  let preds_left = sc.preds_left and ready_at = sc.ready_at in
  preds_left.(s) <- preds_left.(s) - 1;
  ready_at.(s) <- Int.max ready_at.(s) (sc.cycle + w);
  if preds_left.(s) = 0 then
    if ready_at.(s) <= sc.cycle then begin
      sc.deferred.(sc.n_deferred) <- s;
      sc.n_deferred <- sc.n_deferred + 1
    end
    else Heap.push sc.release ~prio:(-ready_at.(s)) s

(* the deferred generation joins the ready heap *)
let admit_deferred sc =
  for i = sc.n_deferred - 1 downto 0 do
    let s = sc.deferred.(i) in
    Heap.push sc.ready ~prio:sc.height.(s) s
  done;
  sc.n_deferred <- 0

let scratch_key =
  Domain.DLS.new_key (fun () ->
      let rec sc =
        {
          height = [||];
          preds_left = [||];
          ready_at = [||];
          deferred = [||];
          n_deferred = 0;
          cycle = 0;
          ready = Heap.create 64;
          release = Heap.create 64;
          enable = (fun s w -> enable sc s w);
        }
      in
      sc)

(* the calling domain's scratch, with room for [n] nodes *)
let scratch n =
  let sc = Domain.DLS.get scratch_key in
  if Array.length sc.height < n then begin
    let cap = Int.max n (2 * Array.length sc.height) in
    sc.height <- Array.make cap 0;
    sc.preds_left <- Array.make cap 0;
    sc.ready_at <- Array.make cap 0;
    sc.deferred <- Array.make cap 0
  end;
  Heap.clear sc.ready;
  Heap.clear sc.release;
  sc.n_deferred <- 0;
  sc.cycle <- 0;
  sc

(* ------------------------------------------------------------------ *)
(* Scheduling *)

(* Unlimited units: [issue] is the ASAP timing; each node's slot is its
   rank among its cycle's issuers, in node order. *)
let rank_slots issue fu =
  let issued = Array.make (Array.fold_left Int.max (-1) issue + 1) 0 in
  for node = 0 to Array.length issue - 1 do
    let c = issue.(node) in
    fu.(node) <- issued.(c);
    issued.(c) <- issued.(c) + 1
  done

(* The resource-constrained case: the ready heap holds data-ready nodes;
   the release queue (min-heap on ready cycle, priorities negated) holds
   nodes whose predecessors have all issued but whose operands complete
   in a future cycle.  Within a cycle the heap drains in priority order
   as a {e generation}: nodes enabled mid-cycle by a zero-weight edge
   (the prioritized exit chain) collect in [deferred] and only enter the
   heap once the current generation has drained with slots to spare —
   reproducing the historical scan's snapshot-then-rescan semantics
   exactly. *)
let list_schedule (g : Ddg.t) ~fus issue fu =
  let n = Ddg.n_nodes g in
  let sc = scratch n in
  let height = Ddg.height ~into:sc.height g in
  let ready = sc.ready and release = sc.release in
  for node = 0 to n - 1 do
    sc.preds_left.(node) <- Ddg.n_preds g node;
    sc.ready_at.(node) <- 0;
    if sc.preds_left.(node) = 0 then Heap.push release ~prio:0 node
  done;
  let remaining = ref n in
  while !remaining > 0 do
    (* admit every node whose operands are ready this cycle *)
    while (not (Heap.is_empty release)) && -Heap.top_prio release <= sc.cycle
    do
      let node = Heap.pop release in
      Heap.push ready ~prio:height.(node) node
    done;
    let slots = ref fus in
    let exhausted = ref false in
    while (not !exhausted) && !slots > 0 do
      if not (Heap.is_empty ready) then begin
        let node = Heap.pop ready in
        fu.(node) <- fus - !slots;
        decr slots;
        issue.(node) <- sc.cycle;
        decr remaining;
        Ddg.iter_succs g node sc.enable
      end
      else if sc.n_deferred = 0 then exhausted := true
      else
        (* generation drained with slots left: the nodes it enabled
           this cycle form the next generation *)
        admit_deferred sc
    done;
    (* slots gone: anything enabled this cycle waits for the next *)
    admit_deferred sc;
    if !remaining > 0 then
      sc.cycle <-
        (if not (Heap.is_empty ready) then sc.cycle + 1
         else if Heap.is_empty release then
           sc.cycle + 1 (* unreachable: the graph is a DAG *)
         else
           (* idle until the next operand completes *)
           Int.max (sc.cycle + 1) (-Heap.top_prio release))
  done

(** Schedule [g] on a machine with [fus] universal units.  [fus = None]
    means unlimited (the result then equals ASAP). *)
let run ?fus (g : Ddg.t) : t =
  let n = Ddg.n_nodes g in
  let fu = Array.make n 0 in
  let issue =
    match fus with
    | None ->
        let issue = Ddg.asap g in
        rank_slots issue fu;
        issue
    | Some fus ->
        if fus <= 0 then invalid_arg "Scheduler.run: fus must be positive";
        let issue = Array.make n (-1) in
        list_schedule g ~fus issue fu;
        issue
  in
  let length = Array.fold_left Int.max (-1) issue + 1 in
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
  for node = 0 to Ddg.n_nodes g - 1 do
    Ddg.fold_preds g node
      (fun p w () -> if s.issue.(node) < s.issue.(p) + w then deps_ok := false)
      ()
  done;
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
