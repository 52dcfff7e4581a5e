(** [perf.exe compare OLD NEW]: end-to-end metrics of two sets of
    untraced runs, per workload, judged under the BENCHMARK.json
    bounds.  Each file holds [spd-bench/1] records, one JSON object per
    line, as [--record] appends them. *)

module Json = Spd_telemetry.Json

type verdict = Better | Worse | Same | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Same -> "same"
  | Unresolved -> "unresolved"

(** [judge ~lower_is_better ~bound old new_] compares medians.  The
    spread of a side is its interquartile range as a share of its
    median.  A change is [Unresolved] when either spread exceeds the
    bound, unless every new run beats every old run; [Worse] when the
    new median is worse by more than the bound; [Better] when it is
    better by more than both spreads; [Same] otherwise. *)
let judge ~lower_is_better ~bound old new_ =
  let spread xs =
    let q1, m, q3 = Stat.quartiles xs in
    if m = 0. then 0. else (q3 -. q1) /. Float.abs m
  in
  let om = Stat.median old and nm = Stat.median new_ in
  let worse_by =
    if om = 0. then 0.
    else (if lower_is_better then nm -. om else om -. nm) /. Float.abs om
  in
  let beats n o = if lower_is_better then n < o else n > o in
  let all_beat = List.for_all (fun n -> List.for_all (beats n) old) new_ in
  let noise = Float.max (spread old) (spread new_) in
  if noise > bound then if all_beat then Better else Unresolved
  else if worse_by > bound then Worse
  else if -.worse_by > noise && -.worse_by > 0. then Better
  else Same

type record = { workload : string; trace : bool; metrics : (string * float) list }

let record_of_json j =
  let metrics =
    match Json.member "metrics" j with
    | Some (Json.Obj kvs) ->
        List.filter_map
          (fun (k, v) ->
            Option.map (fun x -> (k, x))
              (Option.bind (Json.member "value" v) Json.to_number))
          kvs
    | _ -> []
  in
  {
    workload =
      Option.value ~default:"" (Option.bind (Json.member "workload" j) Json.to_string_opt);
    trace = Json.member "trace" j = Some (Json.Bool true);
    metrics;
  }

let load path =
  Util.read_file path |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match Json.of_string l with
         | Ok j -> record_of_json j
         | Error e -> failwith (Printf.sprintf "%s: %s" path e))

let values records ~workload name =
  List.filter_map
    (fun r ->
      if r.workload = workload && not r.trace then List.assoc_opt name r.metrics
      else None)
    records

type row = {
  workload : string;
  metric : Spec.metric;
  old : float list;
  new_ : float list;
  verdict : verdict;
}

(** One row per (workload, end-to-end metric) with untraced values on
    both sides. *)
let rows (spec : Spec.t) ~old ~new_ =
  List.concat_map
    (fun workload ->
      List.filter_map
        (fun (m : Spec.metric) ->
          let o = values old ~workload m.name and n = values new_ ~workload m.name in
          match (o, n, m.bound) with
          | [], _, _ | _, [], _ | _, _, None -> None
          | o, n, Some bound ->
              Some
                {
                  workload;
                  metric = m;
                  old = o;
                  new_ = n;
                  verdict = judge ~lower_is_better:m.lower_is_better ~bound o n;
                })
        spec.end_to_end)
    spec.workloads

(** Workloads of [spec] without a single row: nothing of them was
    compared. *)
let missing (spec : Spec.t) rows =
  List.filter (fun w -> not (List.exists (fun r -> r.workload = w) rows)) spec.workloads

(** The comparison passes when every workload was compared and no row
    is [Worse] or [Unresolved]. *)
let passes spec rows =
  missing spec rows = []
  && List.for_all (fun r -> r.verdict = Better || r.verdict = Same) rows

let run (spec : Spec.t) old_path new_path =
  let rows = rows spec ~old:(load old_path) ~new_:(load new_path) in
  Printf.printf "%-16s %-10s %6s  %-32s  %-32s %s\n" "workload" "metric" "bound"
    "old q1/median/q3" "new q1/median/q3" "verdict";
  List.iter
    (fun r ->
      let q xs =
        let a, b, c = Stat.quartiles xs in
        Printf.sprintf "%.5g/%.5g/%.5g (n=%d)" a b c (List.length xs)
      in
      Printf.printf "%-16s %-10s %5.0f%%  %-32s  %-32s %s\n" r.workload r.metric.name
        (Option.value ~default:0. r.metric.bound *. 100.)
        (q r.old) (q r.new_) (verdict_name r.verdict))
    rows;
  List.iter
    (fun w -> Printf.printf "%-16s not compared: no untraced run on both sides\n" w)
    (missing spec rows);
  passes spec rows
