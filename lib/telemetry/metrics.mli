(** A process-global metrics registry: named counters and fixed-bucket
    histograms.

    Metrics are sharded per domain (writers hash into one of {!shards}
    atomic cells) and merged only on {!snapshot}, so instrumented hot
    loops pay one uncontended atomic add per event.  Registration is
    idempotent: [counter "x"] returns the same counter at every call
    site.  Snapshots are sorted by name, so rendered output is
    deterministic. *)

val shards : int

type counter
type histogram

(** Get-or-register the counter called [name].  Raises
    [Invalid_argument] if [name] is already a histogram. *)
val counter : string -> counter

(** Get-or-register the histogram called [name] with the given
    ascending bucket upper bounds (an implicit overflow bucket is
    added).  Raises [Invalid_argument] on empty/unsorted buckets or a
    redefinition with different buckets. *)
val histogram : buckets:float array -> string -> histogram

(** {1 Handles}

    A handle names a metric where a module is initialised and registers
    it on first use, so a snapshot lists only the metrics a process has
    touched (or forced through a [register_metrics] function).  The
    first use is resolved under the registry mutex, so handles are safe
    to share across domains, first use included. *)

type 'a handle

val counter_handle : string -> counter handle
val histogram_handle : buckets:float array -> string -> histogram handle

(** The handle's metric, registering it on the first call. *)
val get : 'a handle -> 'a

(** Seconds-scale wall-clock buckets, for stage timers. *)
val time_buckets : float array

(** Fraction-scale buckets (0..1], for occupancies and hit rates. *)
val fraction_buckets : float array

val incr : ?by:int -> counter -> unit
val observe : histogram -> float -> unit

(** {1 Snapshots} *)

type hist = {
  buckets : float array;  (** upper bounds, ascending *)
  counts : int array;  (** per bucket, plus one overflow cell *)
  count : int;  (** total observations *)
  sum : float;  (** sum of observations *)
}

type value = Counter of int | Hist of hist
type snapshot = (string * value) list

(** Merge two histogram snapshots over the same buckets — associative
    and commutative (up to float-addition rounding of [sum]); this is
    exactly the operation {!snapshot} folds over the per-domain
    shards.  Raises [Invalid_argument] on a bucket mismatch. *)
val merge_hist : hist -> hist -> hist

(** [quantile h q] estimates the [q]-quantile (clamped to [0..1]) of a
    histogram from its bucket counts: linear interpolation inside the
    bucket where the cumulative count crosses [q * count], with 0 as
    the first bucket's lower bound.  A quantile landing in the
    overflow bucket reports the last finite bound (the standard
    underestimate).  [None] on an empty histogram. *)
val quantile : hist -> float -> float option

(** Parse a {!hist_json} rendering back into a {!hist}; [None] when
    the shape is wrong. *)
val hist_of_json : Json.t -> hist option

(** Merged view of every registered metric, sorted by name. *)
val snapshot : unit -> snapshot

(** Merged view of one histogram. *)
val hist_value : histogram -> hist

val hist_json : hist -> Json.t

(** Schema-versioned JSON ([spd-metrics/1]) rendering of a snapshot. *)
val snapshot_json : snapshot -> Json.t

(** Render a snapshot in the Prometheus text exposition format
    (version 0.0.4): dots in metric names mangle to underscores,
    histograms render as cumulative [_bucket{le="..."}] series with
    the mandatory [+Inf] bucket, [_sum] and [_count]. *)
val prometheus : snapshot -> string
