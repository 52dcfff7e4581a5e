(** The benchmark definition, [BENCHMARK.json] at the repository root:
    the workload names and every metric the benchmark prints, each with
    its unit and direction, and for end-to-end metrics the share by
    which a median may worsen before a change counts as a regression. *)

module Json = Spd_telemetry.Json

type metric = {
  name : string;
  unit_ : string;
  lower_is_better : bool;
  bound : float option;  (** end-to-end metrics only *)
}

type t = {
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let path = "BENCHMARK.json"

let field conv what k j =
  match Option.bind (Json.member k j) conv with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: %S must be %s" path k what)

let str = field Json.to_string_opt "a string"
let list = field Json.to_list "a list"

let metric j =
  {
    name = str "name" j;
    unit_ = str "unit" j;
    lower_is_better =
      (match str "better" j with
      | "lower" -> true
      | "higher" -> false
      | s -> failwith (Printf.sprintf "%s: better=%S" path s));
    bound = Option.bind (Json.member "bound" j) Json.to_number;
  }

let load () =
  let j = Util.parse_json_file path in
  {
    workloads = List.map (str "name") (list "workloads" j);
    end_to_end = List.map metric (list "end_to_end" j);
    per_layer = List.map metric (list "per_layer" j);
  }

(** Fail unless [produced] ([(name, unit)] pairs) names exactly the
    metrics of [expected], with the same units. *)
let check_names ~what (expected : metric list) produced =
  let want = List.sort compare (List.map (fun m -> (m.name, m.unit_)) expected) in
  let got = List.sort compare produced in
  if want <> got then begin
    let show l = String.concat " " (List.map (fun (n, u) -> n ^ "[" ^ u ^ "]") l) in
    let minus a b = List.filter (fun x -> not (List.mem x b)) a in
    failwith
      (Printf.sprintf "%s metrics disagree with %s: missing {%s}, unexpected {%s}"
         what path
         (show (minus want got))
         (show (minus got want)))
  end
