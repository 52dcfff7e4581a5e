(** The artefact registry behind [spd report] and the daemon's [report]
    method.

    An artefact is a named, self-contained piece of the evaluation — a
    paper table or figure, an extension experiment, the engine timings
    — exposed as a table-data builder so every output format renders
    the same values. *)

(** The JSON document's schema key ([spd-report/1]); bump on any
    incompatible change to the document layout. *)
val report_schema : string

type format = Pretty | Json | Csv

val format_of_string : string -> format option

type t = {
  name : string;  (** CLI name, e.g. ["table6_3"] *)
  title : string;  (** one-line description for [--list] *)
  tables : Engine.Session.t -> Table.t list;
      (** warms the required grid cells, then builds the data *)
}

val registry : t list
val names : unit -> string list
val find : string -> t option

(** One registry line per artefact — [spd report --list]'s output. *)
val pp_list : Format.formatter -> unit -> unit

(** The paper's tables and figures in the historical [all] order. *)
val paper_set : string list

(** The extension experiments. *)
val extension_set : string list

(** Resolve names; raises [Invalid_argument] on an unknown one. *)
val of_names : string list -> t list

(** The whole report as one [spd-report/1] JSON document: every table
    of every artefact, the recorded cell failures, and a metrics
    snapshot taken after all tables were built. *)
val to_json : session:Engine.Session.t -> t list -> Spd_telemetry.Json.t

(** Render the given artefacts.  [Pretty] appends nothing extra (the
    CLI adds the failure appendix); [Json] emits one document, [Csv]
    one header plus data lines with metrics appended under the
    pseudo-table [metrics]. *)
val render :
  session:Engine.Session.t -> format -> Format.formatter -> t list -> unit

(** Render one document in [format]: [Pretty] prints [tables ()],
    [Json] prints [json ()] on one line, [Csv] prints {!Table.csv_header}
    and every line of [tables ()].  [spd explain], [spd why],
    [spd validate] and [spd bench micro] print through it. *)
val render_doc :
  format ->
  Format.formatter ->
  tables:(unit -> Table.t list) ->
  json:(unit -> Spd_telemetry.Json.t) ->
  unit
