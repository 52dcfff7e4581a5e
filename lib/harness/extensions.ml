(** Experiments beyond the paper's evaluation section, implementing its
    discussion and future-work items:

    - {b hardware dynamic disambiguation} (section 2.3): the
      88110-style small-window load/store reordering alternative, to show
      that SpD's compile-time scope beats small hardware windows;
    - {b tree grafting} (section 7): unrolling loop trees to expose more
      ambiguous pairs to SpD;
    - {b guidance-parameter ablation} (section 5.3): how [MaxExpansion]
      and [MinGain] trade code growth against speedup.

    Like {!Report}, each experiment takes its {!Engine.Session.t}
    explicitly, computes its rows on the session's domain pool into
    {!Table.t} data and renders afterwards, so the output is
    independent of the number of jobs and identical across output
    formats. *)

module W = Spd_workloads
module H = Spd_core.Heuristic

let rows s f xs = Engine.Session.parallel_map s f xs

(* ------------------------------------------------------------------ *)

(** Extension A: SPEC vs hardware dynamic disambiguation windows. *)
let ext_dynamic_tables s =
  let latency = 6 in
  let width = Spd_machine.Descr.Fus 5 in
  let data =
    rows s
      (fun (w : W.Workload.t) ->
        let bench = w.name in
        let static =
          Engine.Session.prepared s ~bench ~latency Pipeline.Static
        in
        let cycles kind =
          Engine.get
            (Engine.Session.submit s
               (Engine.Query.v ~bench ~latency
                  (Engine.Query.Cycles { kind; width })))
        in
        let base = cycles Pipeline.Static in
        (* the hardware windows' charges depend on concrete addresses, so
           they take the interpreter, not a price *)
        let hw window =
          Spd_machine.Dynamic.cycles ~window ~width ~mem_latency:latency
            static.prog
        in
        let spec = cycles Pipeline.Spec in
        let frac c = Pipeline.speedup ~base ~this:c in
        ( bench,
          [ frac (hw 2); frac (hw 4); frac (hw 8); frac (hw 32); frac spec ] ))
      W.Registry.all
  in
  [
    Table.v ~id:"ext_dynamic"
      ~title:
        "Extension A: SpD vs hardware dynamic disambiguation (section 2.3)"
      ~notes:
        [
          "5 FU machine, 6-cycle memory; HW reorders within a W-reference \
           window on";
          "the STATIC-disambiguated code; speedups over STATIC.";
        ]
      ~label_header:"Program"
      ~columns:[ "HW W=2"; "HW W=4"; "HW W=8"; "HW W=32"; "SPEC" ]
      (List.map
         (fun (bench, fracs) ->
           Table.row bench (List.map (fun f -> Table.Pct f) fracs))
         data);
  ]

(* ------------------------------------------------------------------ *)

(** Extension B: the effect of tree grafting (loop unrolling) on SpD. *)
let ext_grafting_tables s =
  let latency = 6 in
  let width = Spd_machine.Descr.Fus 5 in
  let data =
    rows s
      (fun (w : W.Workload.t) ->
        let lowered = Engine.Session.lowered s w.name in
        let measure ~graft =
          let config = Pipeline.Config.v ~graft ~mem_latency:latency () in
          let static = Pipeline.prepare ~config Pipeline.Static lowered in
          let spec = Pipeline.prepare ~config Pipeline.Spec lowered in
          ( List.length spec.applications,
            Pipeline.speedup
              ~base:(Pipeline.cycles static ~width)
              ~this:(Pipeline.cycles spec ~width) )
        in
        let apps0, s0 = measure ~graft:false in
        let apps1, s1 = measure ~graft:true in
        (w.name, apps0, s0, apps1, s1))
      W.Registry.all
  in
  [
    Table.v ~id:"ext_grafting"
      ~title:"Extension B: tree grafting (section 7 future work)"
      ~notes:
        [
          "5 FU machine, 6-cycle memory; SPEC with and without one round \
           of loop-tree";
          "replication; speedups over STATIC of the same code shape.";
        ]
      ~label_header:"Program"
      ~groups:[ ("ungrafted", 2); ("grafted", 2) ]
      ~columns:[ "apps"; "SPEC"; "apps"; "SPEC+graft" ]
      (List.map
         (fun (name, apps0, s0, apps1, s1) ->
           Table.row name
             [ Table.Int apps0; Table.Pct s0; Table.Int apps1; Table.Pct s1 ])
         data);
  ]

(* ------------------------------------------------------------------ *)

(** Extension C: guidance heuristic parameter ablation. *)
let ext_params_tables s =
  let latency = 6 in
  let width = Spd_machine.Descr.Fus 5 in
  let measure params =
    let speedups, growths =
      List.split
        (List.map
           (fun (w : W.Workload.t) ->
             let lowered = Engine.Session.lowered s w.name in
             let static =
               Pipeline.prepare
                 ~config:(Pipeline.Config.v ~mem_latency:latency ())
                 Pipeline.Static lowered
             in
             let spec =
               Pipeline.prepare
                 ~config:
                   (Pipeline.Config.v ~spd_params:params
                      ~mem_latency:latency ())
                 Pipeline.Spec lowered
             in
             ( 1.0
               +. Pipeline.speedup
                    ~base:(Pipeline.cycles static ~width)
                    ~this:(Pipeline.cycles spec ~width),
               float_of_int (Pipeline.code_size spec)
               /. float_of_int (Pipeline.code_size static) ))
           W.Registry.nrc)
    in
    let geomean xs =
      exp
        (List.fold_left (fun a x -> a +. log x) 0.0 xs
        /. float_of_int (List.length xs))
    in
    (geomean speedups -. 1.0, geomean growths -. 1.0)
  in
  let sweep to_params values =
    rows s (fun v -> (v, measure (to_params v))) values
  in
  let expansions =
    sweep
      (fun me -> { H.default_params with max_expansion = me })
      [ 1.0; 1.25; 1.5; 2.0; 4.0; 8.0 ]
  and gains =
    sweep
      (fun mg -> { H.default_params with min_gain = mg })
      [ 0.25; 0.5; 0.75; 1.5; 3.0; 6.0 ]
  in
  let table ~id ~knob ~fixed data =
    Table.v ~id
      ~title:
        (Printf.sprintf
           "Extension C: guidance heuristic ablation — %s sweep (%s)" knob
           fixed)
      ~notes:
        [
          "NRC geometric means at 5 FU, 6-cycle memory: SPEC speedup over \
           STATIC and";
          "code growth.";
        ]
      ~label_header:knob ~columns:[ "speedup"; "code growth" ]
      (List.map
         (fun (v, (s, g)) ->
           Table.row (Printf.sprintf "%.2f" v) [ Table.Pct s; Table.Pct g ])
         data)
  in
  [
    table ~id:"ext_params.max_expansion" ~knob:"MaxExpansion"
      ~fixed:(Printf.sprintf "MinGain = %.2f" H.default_params.min_gain)
      expansions;
    table ~id:"ext_params.min_gain" ~knob:"MinGain"
      ~fixed:
        (Printf.sprintf "MaxExpansion = %.2f" H.default_params.max_expansion)
      gains;
  ]
