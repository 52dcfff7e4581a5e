(** The paper's tables and figures, built as data.

    Each artefact is computed into {!Table.t} values first (see
    [*_tables]) and only then rendered by {!Artefact}, so the pretty,
    JSON and CSV outputs read the exact same values.  Every builder
    takes its {!Engine.Session.t} explicitly and reads cells through
    {!Engine.Session.submit}, the same path the CLI and the [spd serve]
    daemon use.  Absolute
    numbers differ from the paper's proprietary LIFE testbed;
    EXPERIMENTS.md records the shape comparison. *)

module W = Spd_workloads
module Query = Engine.Query

let latencies = [ 2; 6 ]

(* Figure 6-3's machine widths; settable from the CLI (--widths).  This
   is the one process-wide rendering knob left: the CLI sets it once at
   startup, before any session work, and the daemon never touches it. *)
let default_widths = [ 1; 2; 3; 4; 5; 6; 7; 8 ]
let current_widths = ref default_widths

let set_widths = function
  | [] -> invalid_arg "Report.set_widths: empty width list"
  | ws ->
      List.iter
        (fun w ->
          if w < 1 then
            invalid_arg (Printf.sprintf "Report.set_widths: width %d < 1" w))
        ws;
      current_widths := ws

let widths () = !current_widths

let benches () = List.map (fun (w : W.Workload.t) -> w.name) W.Registry.all

let nrc_benches () =
  List.map (fun (w : W.Workload.t) -> w.name) W.Registry.nrc

(* one grid cell through the engine's single request path *)
let submit s ~bench ~latency artefact =
  Engine.Session.submit s (Query.v ~bench ~latency artefact)

(* Fan the given grid cells out over the session's domain pool before
   rendering; the table builders below then only read memoized results,
   so their values are independent of the number of jobs. *)
let warm s (f : 'a -> unit) (cells : 'a list) =
  Engine.Session.parallel_iter s f cells

let product xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

(* n/a-aware percentage cell: a failed grid cell renders as [Na] instead
   of aborting the artefact; the details land in [failure_appendix]. *)
let pct_cell = function
  | Engine.Ok v -> Table.Pct v
  | Engine.Failed _ -> Table.Na

(* ------------------------------------------------------------------ *)
(* Paper artefacts, as data *)

(** Table 6-1: operation latencies (the machine configuration). *)
let table6_1_tables (_ : Engine.Session.t) =
  [
    Table.v ~id:"table6_1" ~title:"Table 6-1: Operation latencies"
      ~label_header:"Operation" ~columns:[ "Latency (cyc)" ]
      (List.map
         (fun (name, lat) -> Table.row name [ Table.Int lat ])
         (Spd_machine.Descr.table_6_1 ~mem_latency:2)
      @ [
          Table.row "Memory loads and stores (swept)" [ Table.Text "2 or 6" ];
        ]);
  ]

(** Table 6-2: benchmark descriptions. *)
let table6_2_tables (_ : Engine.Session.t) =
  [
    Table.v ~id:"table6_2" ~title:"Table 6-2: Benchmark descriptions"
      ~label_header:"Benchmark" ~columns:[ "Suite"; "Lines"; "Description" ]
      (List.map
         (fun (w : W.Workload.t) ->
           Table.row w.name
             [
               Table.Text (W.Workload.suite_name w.suite);
               Table.Int (W.Registry.lines w);
               Table.Text w.description;
             ])
         W.Registry.all);
  ]

(** Table 6-3: frequency of SpD application by dependence type. *)
let table6_3_tables s =
  (* latency-major, so that the first wave of cells shares no NAIVE
     reference run and no domain waits on another's *)
  warm s
    (fun (latency, bench) ->
      ignore (submit s ~bench ~latency Query.Spd_counts))
    (product latencies (benches ()));
  let totals = Array.make 6 0 in
  (* a failed cell renders its three columns as n/a and is excluded
     from the TOTAL row *)
  let triple off = function
    | Engine.Ok (r, w, o) ->
        List.iteri
          (fun i v -> totals.(off + i) <- totals.(off + i) + v)
          [ r; w; o ];
        [ Table.Int r; Table.Int w; Table.Int o ]
    | Engine.Failed _ -> [ Table.Na; Table.Na; Table.Na ]
  in
  let rows =
    List.map
      (fun bench ->
        let counts latency = submit s ~bench ~latency Query.Spd_counts in
        Table.row bench (triple 0 (counts 2) @ triple 3 (counts 6)))
      (benches ())
  in
  [
    Table.v ~id:"table6_3"
      ~title:"Table 6-3: Frequency of SpD application by dependence type"
      ~label_header:"Program"
      ~groups:
        [ ("2 Cycle Memory Latency", 3); ("6 Cycle Memory Latency", 3) ]
      ~columns:[ "RAW"; "WAR"; "WAW"; "RAW"; "WAR"; "WAW" ]
      ~footers:
        [
          Table.row "TOTAL"
            (List.map (fun v -> Table.Int v) (Array.to_list totals));
        ]
      rows;
  ]

(** Table 6-4: the four disambiguators. *)
let table6_4_tables (_ : Engine.Session.t) =
  [
    Table.v ~id:"table6_4" ~title:"Table 6-4: Disambiguators used in experiments"
      ~label_header:"Disambiguator" ~columns:[ "Description" ]
      (List.map
         (fun (k, d) -> Table.row k [ Table.Text d ])
         [
           ("NAIVE", "None");
           ("STATIC", "Static (GCD/Banerjee over affine forms)");
           ("SPEC", "Static followed by SpD");
           ("PERFECT", "Perfect static (profiled superfluous-arc removal)");
         ]);
  ]

(* the SPEC column's value, for the figures' ASCII bars *)
let spec_bar col (r : Table.row) =
  match List.nth_opt r.cells col with
  | Some (Table.Pct v) -> Some v
  | _ -> None

(** Figure 6-2: speedup over NAIVE on a 5-FU machine. *)
let fig6_2_tables s =
  warm s
    (fun ((bench, latency), kind) ->
      ignore
        (submit s ~bench ~latency
           (Query.Cycles { kind; width = Spd_machine.Descr.Fus 5 })))
    (product (product (benches ()) latencies) Pipeline.all);
  List.map
    (fun latency ->
      Table.v
        ~id:(Printf.sprintf "fig6_2.lat%d" latency)
        ~title:
          (Printf.sprintf
             "Figure 6-2: Speedup over the NAIVE disambiguator (5 FU \
              machine, %d cycle memory latency)"
             latency)
        ~label_header:"Program"
        ~columns:[ "STATIC"; "SPEC"; "PERFECT" ]
        ~bar_of:(spec_bar 1)
        (List.map
           (fun bench ->
             let sp kind =
               submit s ~bench ~latency
                 (Query.Speedup_over_naive
                    { kind; width = Spd_machine.Descr.Fus 5 })
             in
             Table.row bench
               [
                 pct_cell (sp Pipeline.Static);
                 pct_cell (sp Pipeline.Spec);
                 pct_cell (sp Pipeline.Perfect);
               ])
           (benches ())))
    latencies

(** Raw cycle counts on the 5-FU machine; not part of the paper set. *)
let cycles_tables s =
  let int_cell = function
    | Engine.Ok v -> Table.Int v
    | Engine.Failed _ -> Table.Na
  in
  warm s
    (fun ((bench, latency), kind) ->
      ignore
        (submit s ~bench ~latency
           (Query.Cycles { kind; width = Spd_machine.Descr.Fus 5 })))
    (product (product (benches ()) latencies) Pipeline.all);
  List.map
    (fun latency ->
      Table.v
        ~id:(Printf.sprintf "cycles.lat%d" latency)
        ~title:
          (Printf.sprintf
             "Simulated cycles (5 FU machine, %d cycle memory latency)"
             latency)
        ~label_header:"Program"
        ~columns:(List.map Pipeline.name Pipeline.all)
        (List.map
           (fun bench ->
             Table.row bench
               (List.map
                  (fun kind ->
                    int_cell
                      (submit s ~bench ~latency
                         (Query.Cycles
                            { kind; width = Spd_machine.Descr.Fus 5 })))
                  Pipeline.all))
           (benches ())))
    latencies

(** Figure 6-3: speedup of SPEC over STATIC vs machine width (NRC). *)
let fig6_3_tables s =
  let widths = widths () in
  warm s
    (fun (((bench, latency), width), kind) ->
      ignore
        (submit s ~bench ~latency
           (Query.Cycles { kind; width = Spd_machine.Descr.Fus width })))
    (product
       (product (product (nrc_benches ()) latencies) widths)
       [ Pipeline.Static; Pipeline.Spec ]);
  List.map
    (fun latency ->
      Table.v
        ~id:(Printf.sprintf "fig6_3.lat%d" latency)
        ~title:
          (Printf.sprintf
             "Figure 6-3: Speedup of SPEC over STATIC (NRC benchmarks, %d \
              cycle memory latency)"
             latency)
        ~label_header:"Program"
        ~columns:(List.map (fun w -> Printf.sprintf "%d FU" w) widths)
        (List.map
           (fun bench ->
             Table.row bench
               (List.map
                  (fun w ->
                    pct_cell
                      (submit s ~bench ~latency
                         (Query.Spec_over_static
                            { width = Spd_machine.Descr.Fus w })))
                  widths))
           (nrc_benches ())))
    latencies

(** Figure 6-4: code size increase due to SpD (2-cycle memory). *)
let fig6_4_tables s =
  warm s
    (fun (bench, kind) ->
      ignore (submit s ~bench ~latency:2 (Query.Code_size kind)))
    (product (benches ()) [ Pipeline.Static; Pipeline.Spec ]);
  [
    Table.v ~id:"fig6_4"
      ~title:"Figure 6-4: Code size increase due to SpD (2 cycle memory latency)"
      ~label_header:"Program" ~columns:[ "Increase" ]
      ~bar_of:(fun r ->
        match spec_bar 0 r with Some v -> Some (v *. 4.0) | None -> None)
      (List.map
         (fun bench ->
           Table.row bench
             [
               pct_cell (submit s ~bench ~latency:2 Query.Code_growth);
             ])
         (benches ()));
  ]

(** SpD run-time dynamics: how the transformed code actually behaved —
    per transformed region, how often the alias vs. the speculative
    no-alias version committed, plus squashed guarded operations. *)
let spd_dynamics_tables s =
  warm s
    (fun (bench, latency) ->
      ignore (submit s ~bench ~latency Query.Spd_dynamics))
    (product (benches ()) latencies);
  let dynamics ~bench ~latency = submit s ~bench ~latency Query.Spd_dynamics in
  let regions latency =
    let total_alias = ref 0 and total_noalias = ref 0 in
    let rows =
      List.concat_map
        (fun bench ->
          match dynamics ~bench ~latency with
          | Engine.Failed _ ->
              [ Table.row bench [ Table.Na; Table.Na; Table.Na; Table.Na ] ]
          | Engine.Ok (d : Pipeline.dynamics) ->
              List.map
                (fun (r : Pipeline.region_dynamics) ->
                  total_alias := !total_alias + r.alias_commits;
                  total_noalias := !total_noalias + r.noalias_commits;
                  Table.row bench
                    [
                      Table.Text
                        (Printf.sprintf "%s/t%d #%d->%d" r.func r.tree_id
                           (fst r.arc) (snd r.arc));
                      Table.Text (Fmt.str "%a" Spd_ir.Memdep.pp_kind r.dep_kind);
                      Table.Int r.alias_commits;
                      Table.Int r.noalias_commits;
                    ])
                d.regions)
        (benches ())
    in
    Table.v
      ~id:(Printf.sprintf "spd_dynamics.lat%d" latency)
      ~title:
        (Printf.sprintf
           "SpD run-time dynamics: version commits per transformed region \
            (%d cycle memory latency)"
           latency)
      ~notes:
        [
          "Each SPEC traversal of a transformed region commits either its";
          "alias version (the run-time address compare found a collision)";
          "or its speculative no-alias version.";
        ]
      ~label_header:"Program"
      ~columns:[ "Region"; "Kind"; "Alias"; "No-alias" ]
      ~footers:
        [
          Table.row "TOTAL"
            [
              Table.Text ""; Table.Text "";
              Table.Int !total_alias; Table.Int !total_noalias;
            ];
        ]
      rows
  in
  let totals =
    Table.v ~id:"spd_dynamics.totals"
      ~title:"SpD run-time dynamics: per-benchmark totals"
      ~label_header:"Program"
      ~columns:[ "Latency"; "Regions"; "Alias"; "No-alias"; "Squashed" ]
      (List.concat_map
         (fun bench ->
           List.filter_map
             (fun latency ->
               match dynamics ~bench ~latency with
               | Engine.Failed _ -> None
               | Engine.Ok (d : Pipeline.dynamics) ->
                   Some
                     (Table.row bench
                        [
                          Table.Int latency;
                          Table.Int (List.length d.regions);
                          Table.Int
                            (List.fold_left
                               (fun a (r : Pipeline.region_dynamics) ->
                                 a + r.alias_commits)
                               0 d.regions);
                          Table.Int
                            (List.fold_left
                               (fun a (r : Pipeline.region_dynamics) ->
                                 a + r.noalias_commits)
                               0 d.regions);
                          Table.Int d.squashed;
                        ]))
             latencies)
         (benches ()))
  in
  List.map regions latencies @ [ totals ]

(** Corpus-wide SpD opportunity statistics: the guidance heuristic's
    decision ledger rolled up across the full workload grid — per
    workload × latency the candidate and applied counts, the acceptance
    rate, the gain distribution, and the rejection-reason histogram. *)
let spd_decisions_tables s =
  let module H = Spd_core.Heuristic in
  warm s
    (fun (bench, latency) ->
      ignore (submit s ~bench ~latency Query.Spd_decisions))
    (product (benches ()) latencies);
  let ledger ~bench ~latency = submit s ~bench ~latency Query.Spd_decisions in
  (* short column headers for the rejection verdicts; the notes map
     them back to the full machine-readable strings *)
  let reasons =
    [
      ("not-crit", "rejected:not-critical");
      ("not-ambig", "rejected:not-applicable:arc-not-ambiguous");
      ("interv", "rejected:not-applicable:intervening-reference");
      ("addr-na", "rejected:not-applicable:address-unavailable");
      ("min-gain", "rejected:below-min-gain");
      ("max-apps", "rejected:max-applications");
      ("max-exp", "rejected:max-expansion");
    ]
  in
  let summary latency =
    let rows =
      List.map
        (fun bench ->
          match ledger ~bench ~latency with
          | Engine.Failed _ ->
              Table.row bench
                [ Table.Na; Table.Na; Table.Na; Table.Na; Table.Na ]
          | Engine.Ok ds ->
              let total = List.length ds in
              let applied = List.length (H.applied_decisions ds) in
              let gains = List.map (fun (d : H.decision) -> d.gain) ds in
              let gsum = List.fold_left ( +. ) 0.0 gains in
              let gmax = List.fold_left max neg_infinity gains in
              Table.row bench
                (Table.Int total :: Table.Int applied
                ::
                (if total = 0 then [ Table.Na; Table.Na; Table.Na ]
                 else
                   [
                     Table.Pct
                       (float_of_int applied /. float_of_int total);
                     Table.Num (gsum /. float_of_int total);
                     Table.Num gmax;
                   ])))
        (benches ())
    in
    Table.v
      ~id:(Printf.sprintf "spd_decisions.lat%d" latency)
      ~title:
        (Printf.sprintf
           "SpD opportunity statistics: heuristic decisions (%d cycle \
            memory latency)"
           latency)
      ~notes:
        [
          "candidates: ambiguous arcs the guidance heuristic judged;";
          "gain mean/max: distribution of predicted Gain() over all \
           candidates";
        ]
      ~label_header:"Program"
      ~columns:[ "Cands"; "Applied"; "Accept"; "Gain mean"; "Gain max" ]
      rows
  in
  let histogram latency =
    let totals = Array.make (List.length reasons) 0 in
    let rows =
      List.map
        (fun bench ->
          match ledger ~bench ~latency with
          | Engine.Failed _ ->
              Table.row bench (List.map (fun _ -> Table.Na) reasons)
          | Engine.Ok ds ->
              let hist = H.rejection_histogram ds in
              Table.row bench
                (List.mapi
                   (fun i (_, verdict) ->
                     let n =
                       Option.value ~default:0 (List.assoc_opt verdict hist)
                     in
                     totals.(i) <- totals.(i) + n;
                     Table.Int n)
                   reasons))
        (benches ())
    in
    Table.v
      ~id:(Printf.sprintf "spd_decisions.rejections.lat%d" latency)
      ~title:
        (Printf.sprintf
           "SpD opportunity statistics: rejection reasons (%d cycle \
            memory latency)"
           latency)
      ~notes:
        (List.map
           (fun (short, verdict) ->
             Printf.sprintf "%s: %s" short verdict)
           reasons)
      ~label_header:"Program"
      ~columns:(List.map fst reasons)
      ~footers:
        [
          Table.row "TOTAL"
            (List.map (fun v -> Table.Int v) (Array.to_list totals));
        ]
      rows
  in
  List.concat_map (fun latency -> [ summary latency; histogram latency ]) latencies

(** Translation-validation rollup: the verdict tally per paper grid
    cell.  Wall-clock columns are deliberately absent, so the table is
    a pure function of the grid (the per-application ledger, with
    timings, is [spd validate]'s document). *)
let spd_validate_tables s =
  let module V = Spd_validate.Validate in
  let grid = product (benches ()) latencies in
  warm s
    (fun (bench, latency) -> ignore (submit s ~bench ~latency Query.Spd_verdicts))
    grid;
  let rows =
    List.map
      (fun (bench, latency) ->
        let label = Printf.sprintf "%s/%d" bench latency in
        match submit s ~bench ~latency Query.Spd_verdicts with
        | Engine.Ok rs ->
            let p, r, u = V.tally rs in
            Table.row label
              [
                Table.Int (List.length rs); Table.Int p; Table.Int r;
                Table.Int u;
              ]
        | Engine.Failed _ ->
            Table.row label [ Table.Na; Table.Na; Table.Na; Table.Na ])
      grid
  in
  [
    Table.v ~id:"validate.grid"
      ~title:"SpD translation validation (verdict tally per grid cell)"
      ~notes:
        [
          "every SpD application symbolically proved equivalent to its";
          "original tree; n/a marks a cell whose validated preparation";
          "failed (see the failure appendix)";
        ]
      ~label_header:"cell"
      ~columns:[ "applications"; "proved"; "refuted"; "unknown" ]
      rows;
  ]

(** Engine report: per-stage wall clock of the process and the
    session's counters.  Seconds are wall-clock, hence run-dependent;
    the counter table is deterministic (and excludes the job count, see
    {!Engine.Stats}). *)
let timings_tables s =
  [
    Table.v ~id:"timings.stages"
      ~title:"Engine: per-stage wall clock (cumulative, all domains)"
      ~label_header:"Stage" ~columns:[ "Seconds" ]
      (List.map
         (fun (stage, secs) ->
           Table.row (Pipeline.stage_name stage) [ Table.Num secs ])
         (Pipeline.stage_seconds ()));
    Table.v ~id:"timings.engine" ~title:"Engine: session counters"
      ~label_header:"Counter" ~columns:[ "Value" ]
      (List.map
         (fun (k, v) -> Table.row k [ Table.Int v ])
         (Engine.Stats.to_alist (Engine.Session.stats s)));
  ]

(** Failure appendix: every cell the session failed to compute, with
    the original exception.  Prints nothing when all cells succeeded —
    appended to artefact output by the CLI, which also turns a
    non-empty appendix into a nonzero exit status. *)
let failure_appendix s ppf () =
  match Engine.Session.failures s with
  | [] -> ()
  | fs ->
      Fmt.pf ppf "@.Failed cells (%d) — values above rendered as n/a@."
        (List.length fs);
      Fmt.pf ppf "%s@." (String.make 72 '-');
      List.iter (fun f -> Fmt.pf ppf "%a@." Engine.pp_failure f) fs;
      Fmt.pf ppf "%s@." (String.make 72 '-')
