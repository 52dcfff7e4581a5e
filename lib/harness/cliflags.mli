(** Shared command-line flag parsers.

    One parser per flag shape, returning [Error] with a friendly
    one-line hint naming the flag — used by [bin/spd] through cmdliner
    converters, so a malformed [--fuel]/[--deadline] is rejected with
    identical wording by every subcommand.  The workload check and the
    error messages below are shared by the CLI and the [spd serve]
    daemon, so both word a refusal alike. *)

(** [pos_int ~flag s] parses a positive (>= 1) integer;
    ["--fuel expects a positive integer, got \"x\""] otherwise. *)
val pos_int : flag:string -> string -> (int, string) result

(** [pos_float ~flag s] parses a positive, finite number of seconds. *)
val pos_float : flag:string -> string -> (float, string) result

(** [widths s] parses a non-empty comma-separated list of positive
    machine widths, e.g. ["1,2,4,8"].  [flag] defaults to
    ["--widths"]. *)
val widths : ?flag:string -> string -> (int list, string) result

(** Every workload name the CLI and the daemon accept: the paper's
    benchmarks, then the extras such as [matmul300]. *)
val workload_names : unit -> string list

(** [Ok ()] for a known workload, otherwise
    ["unknown workload \"x\" (one of: adi, ...)"]. *)
val check_workload : string -> (unit, string) result

(** The one-line message of a front-end or simulator exception
    ([lexical error, line N: ...], [runtime error: ...]); [None] for
    any other exception. *)
val error_message : exn -> string option
