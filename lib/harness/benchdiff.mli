(** Bench-report regression tracking ([spd bench diff]).

    Compares two [spd-report/1] or [spd-micro/1] documents cell by
    cell; each table's id decides the polarity of a change
    ([cycles*]/[fig6_4*] lower-better, [fig6_2*]/[fig6_3*]/[ext_*]/
    [micro*] higher-better, [timings*] skipped, everything else
    informational).  A cell regresses when it moves in the bad
    direction by more than the threshold (percent), when a tracked
    value disappears, or when a number turns into an [n/a] cell; an
    [n/a] cell turning into a number counts as an improvement. *)

(** Schema identifier of the JSON document: ["spd-bench-diff/1"]. *)
val schema : string

type polarity = Lower_better | Higher_better | Informational | Skip

val polarity_of_table : string -> polarity
val polarity_name : polarity -> string

type change = {
  table : string;
  row : string;
  column : string;
  old_value : float option;  (** [None]: missing, [n/a] or non-numeric *)
  new_value : float option;
  polarity : polarity;
  regression : bool;
  improvement : bool;
}

type t = {
  threshold : float;  (** percent *)
  compared : int;  (** numeric cell pairs examined *)
  changes : change list;  (** cells that moved, document order *)
  regressions : int;
  improvements : int;
}

(** Relative change in percent; [±infinity] when [old_value] is zero
    and [new_value] is not. *)
val pct_change : old_value:float -> new_value:float -> float

(** Compare two parsed [spd-report/1] documents.  [threshold] is in
    percent (default 0: any worsening counts). *)
val diff :
  ?threshold:float ->
  Spd_telemetry.Json.t -> Spd_telemetry.Json.t -> (t, string) result

(** [diff] on raw document strings. *)
val diff_strings :
  ?threshold:float ->
  old_report:string -> new_report:string -> unit -> (t, string) result

val to_table : t -> Table.t
val to_json : t -> Spd_telemetry.Json.t
