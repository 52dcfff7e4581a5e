(** Translation-validation introspection ([spd validate]).

    For one workload at one memory latency, reads the per-application
    translation-validation ledger through the engine's single request
    path ({!Engine.Query.Spd_verdicts}) and renders it as the
    [spd-validate/1] document: one entry per SpD application with its
    verdict ([proved] / [refuted] / [unknown]), the symbolic
    exploration statistics and the exit/store digests of the original
    tree, plus the program-wide verdict tally.

    The same document backs the [spd validate] CLI, the daemon's
    [validate] method and the [spd report spd-validate] rollup.

    {b Determinism contract}: like [spd why], the JSON document is a
    pure function of the workload and the configuration.  Wall-clock
    time is cached with the ledger row but never serialized — only the
    pretty renderer shows it — so the document is bit-identical across
    job counts, cold/warm caches and CLI/daemon surfaces. *)

val schema : string
(** ["spd-validate/1"] *)

type t = {
  workload : string;
  mem_latency : int;
  reports : Spd_validate.Validate.report list;
      (** the full ledger, in application order *)
}

(** Fetch the SPEC pipeline's validation ledger for a workload.  Raises
    [Invalid_argument] for an unknown workload name and
    {!Engine.Cell_failed} when the cell failed — in particular when a
    [Refuted] verdict raised {!Pipeline.Validation_failed} while
    {!Pipeline.verdicts} explored the preparation's steps. *)
val analyze : ?mem_latency:int -> Engine.Session.t -> string -> t

(** Ledger entries surviving the optional function / tree filters. *)
val selected :
  ?fn:string -> ?tree:int -> t -> Spd_validate.Validate.report list

(** One ledger entry as JSON (without its [func]/[tree] coordinates —
    {!to_json} inlines those). *)
val report_json : Spd_validate.Validate.report -> Spd_telemetry.Json.t

(** The [spd-validate/1] document, optionally filtered. *)
val to_json : ?fn:string -> ?tree:int -> t -> Spd_telemetry.Json.t

(** The verdict table and the summary table, optionally filtered. *)
val tables : ?fn:string -> ?tree:int -> t -> Table.t list
