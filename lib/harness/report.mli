(** The paper's tables and figures, built as data.

    Each artefact is computed into {!Table.t} values first (the
    [*_tables] functions) and only then rendered by {!Artefact}, so the
    pretty, JSON and CSV outputs read the exact same values.  Every
    builder takes its {!Engine.Session.t} explicitly and reads grid
    cells through {!Engine.Session.submit} — the same path the CLI and
    the [spd serve] daemon use, which is what makes served and CLI JSON
    byte-identical.  Absolute numbers differ from the paper's
    proprietary LIFE testbed; EXPERIMENTS.md records the shape
    comparison. *)

module W = Spd_workloads
val latencies : int list

(** Figure 6-3's machine widths (default [1..8]); [set_widths]
    overrides them process-wide (the CLI's [--widths] flag) and rejects
    an empty or non-positive list with [Invalid_argument].  This is the
    one process-wide rendering knob: the CLI sets it once at startup,
    and the daemon never touches it. *)
val default_widths : int list

val widths : unit -> int list
val set_widths : int list -> unit
val benches : unit -> string list
val nrc_benches : unit -> string list

(** {1 Artefact data}

    Each builder warms the required grid cells on the session's domain
    pool, then assembles tables from the memoized results — the values
    are therefore independent of the number of jobs. *)

val table6_1_tables : Engine.Session.t -> Table.t list
val table6_2_tables : Engine.Session.t -> Table.t list
val table6_3_tables : Engine.Session.t -> Table.t list
val table6_4_tables : Engine.Session.t -> Table.t list
val fig6_2_tables : Engine.Session.t -> Table.t list

(** Raw cycle counts on the 5-FU machine, one table per memory latency
    ([cycles.lat2], …).  Not part of the paper set. *)
val cycles_tables : Engine.Session.t -> Table.t list
val fig6_3_tables : Engine.Session.t -> Table.t list
val fig6_4_tables : Engine.Session.t -> Table.t list

(** SpD run-time dynamics: per transformed region, how often the alias
    vs. the speculative no-alias version committed, plus squashed
    guarded operations. *)
val spd_dynamics_tables : Engine.Session.t -> Table.t list

(** Corpus-wide SpD opportunity statistics: the guidance heuristic's
    decision ledger rolled up across the full workload grid — per
    workload × latency the candidate and applied counts, acceptance
    rate, gain distribution and rejection-reason histogram. *)
val spd_decisions_tables : Engine.Session.t -> Table.t list

(** Translation-validation rollup: verdict tallies per paper grid cell
    (every built-in workload × 2- and 6-cycle memory).  Deterministic —
    no wall-clock columns. *)
val spd_validate_tables : Engine.Session.t -> Table.t list

(** Engine per-stage wall clock and session counters.  Seconds are
    run-dependent; the counter table is deterministic. *)
val timings_tables : Engine.Session.t -> Table.t list

(** Failure appendix: every cell the session failed to compute, with
    the original exception.  Prints nothing when all cells succeeded —
    appended to artefact output by the CLI, which also turns a
    non-empty appendix into a nonzero exit status. *)
val failure_appendix : Engine.Session.t -> Format.formatter -> unit -> unit

