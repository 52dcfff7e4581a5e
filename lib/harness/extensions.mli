(** Experiments beyond the paper's evaluation section, implementing its
    discussion and future-work items:

    - {b hardware dynamic disambiguation} (section 2.3): the
      88110-style small-window load/store reordering alternative, to show
      that SpD's compile-time scope beats small hardware windows;
    - {b tree grafting} (section 7): unrolling loop trees to expose more
      ambiguous pairs to SpD;
    - {b guidance-parameter ablation} (section 5.3): how [MaxExpansion]
      and [MinGain] trade code growth against speedup. *)

module W = Spd_workloads
module H = Spd_core.Heuristic

(** {1 Experiment data} — one table list per experiment, each taking
    its session explicitly; see {!Report} for the data-then-render
    convention. *)

val ext_dynamic_tables : Engine.Session.t -> Table.t list
val ext_grafting_tables : Engine.Session.t -> Table.t list
val ext_params_tables : Engine.Session.t -> Table.t list
