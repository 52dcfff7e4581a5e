(** Layer self times from a recorded trace.

    A span's self time is its duration minus the part of it that its
    child spans cover; spans nest per domain, since a span opens and
    closes on the domain that runs it.  Busy time is the time covered
    by root spans, summed over domains, so the self times of all spans
    add up to the busy time exactly. *)

module Trace = Spd_telemetry.Trace

(** The layer a span is booked to.  The benchmark names its own spans
    after their layer; the engine's spans are [cell:<key>] and
    [stage:<stage>], the serve client's are [rpc.<method>], and the
    benchmark's per-operation root span is [op]. *)
let layer_of_span = function
  | "op" -> "harness.engine"
  | "stage:simulate" -> "sim.simulate"
  | "stage:profile" -> "sim.profile"
  | "stage:schedule" -> "machine.schedule"
  | "stage:spd" -> "spd.heuristic"
  | "stage:lower" -> "lang.lower"
  | n when String.starts_with ~prefix:"cell:" n -> "harness.cell"
  | n when String.starts_with ~prefix:"rpc." n -> "serve.rpc"
  | n -> n

type frame = { stop : float; layer : string; mutable self : float }

(** Self seconds per layer, and busy seconds. *)
let self_times (events : Trace.event list) =
  let selfs = Hashtbl.create 16 in
  let add layer us =
    let prev = Option.value ~default:0. (Hashtbl.find_opt selfs layer) in
    Hashtbl.replace selfs layer (prev +. (us /. 1e6))
  in
  let busy = ref 0. in
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun (e : Trace.event) ->
      let es = Option.value ~default:[] (Hashtbl.find_opt by_tid e.tid) in
      Hashtbl.replace by_tid e.tid (e :: es))
    events;
  Hashtbl.iter
    (fun _ es ->
      (* parents before the children they enclose *)
      let es =
        List.sort
          (fun (a : Trace.event) (b : Trace.event) ->
            compare (a.ts, -.a.dur) (b.ts, -.b.dur))
          es
      in
      let stack = ref [] in
      let rec close_until ts =
        match !stack with
        | f :: rest when f.stop <= ts ->
            add f.layer f.self;
            stack := rest;
            close_until ts
        | _ -> ()
      in
      List.iter
        (fun (e : Trace.event) ->
          close_until e.ts;
          (match !stack with
          | parent :: _ -> parent.self <- parent.self -. e.dur
          | [] -> busy := !busy +. e.dur);
          stack :=
            { stop = e.ts +. e.dur; layer = layer_of_span e.name; self = e.dur }
            :: !stack)
        es;
      close_until infinity)
    by_tid;
  let layers =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) selfs []
    |> List.sort compare
  in
  (layers, !busy /. 1e6)
