(** A process-global metrics registry: named counters and fixed-bucket
    histograms.

    Designed for simulator and scheduler hot loops: every metric is
    sharded per domain (the writing domain hashes into one of
    {!shards} atomic cells, so concurrent writers almost never contend)
    and shards are merged only on {!snapshot}.  Registration is
    idempotent — [counter "x"] returns the same counter everywhere —
    so instrumentation points never need to thread handles around.

    Snapshots are deterministically ordered (sorted by metric name), so
    rendered output is stable across job counts and platforms. *)

let shards = 64  (* power of two; domains hash into cells *)
let shard () = (Domain.self () :> int) land (shards - 1)

type counter = { c_cells : int Atomic.t array }

type histogram = {
  bounds : float array;  (** ascending upper bounds; one overflow bucket *)
  h_counts : int Atomic.t array array;  (** shard -> bucket *)
  h_sums : float Atomic.t array;  (** per-shard sum of observations *)
}

type metric = C of counter | H of histogram

let mu = Mutex.create ()
let registry : (string, metric) Hashtbl.t = Hashtbl.create 32

let atomic_array n = Array.init n (fun _ -> Atomic.make 0)

(* [check] raises on kind/bucket clashes, so the unlock must be in a
   [finally] — a bare lock/unlock pair would leave the registry mutex
   held and poison every later registration. *)
let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* the caller holds [mu] *)
let register name build check =
  match Hashtbl.find_opt registry name with
  | Some m -> check m
  | None ->
      let m = build () in
      Hashtbl.replace registry name m;
      m

let register_counter name =
  match
    register name
      (fun () -> C { c_cells = atomic_array shards })
      (function
        | C _ as m -> m
        | H _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is a histogram"))
  with
  | C c -> c
  | H _ -> assert false

let register_histogram ~buckets name =
  let sorted = Array.copy buckets in
  Array.sort compare sorted;
  if sorted <> buckets || Array.length buckets = 0 then
    invalid_arg ("Metrics.histogram: " ^ name ^ ": buckets must be \
                  non-empty and ascending");
  match
    register name
      (fun () ->
        H
          {
            bounds = Array.copy buckets;
            h_counts =
              Array.init shards (fun _ ->
                  atomic_array (Array.length buckets + 1));
            h_sums = Array.init shards (fun _ -> Atomic.make 0.0);
          })
      (function
        | H h as m ->
            if h.bounds <> buckets then
              invalid_arg
                ("Metrics.histogram: " ^ name
               ^ " already registered with different buckets");
            m
        | C _ -> invalid_arg ("Metrics.histogram: " ^ name ^ " is a counter"))
  with
  | H h -> h
  | C _ -> assert false

(** Get-or-register the counter called [name]. *)
let counter name : counter = locked (fun () -> register_counter name)

(** Get-or-register the histogram called [name] with the given ascending
    bucket upper bounds (an overflow bucket is implicit). *)
let histogram ~buckets name : histogram =
  locked (fun () -> register_histogram ~buckets name)

(* A handle is resolved at most once, under the registry mutex: the
   check, the registration and the publication all happen with [mu]
   held, so domains racing on a first use block on the mutex and then
   read the published metric.  After that, [get] is one atomic read. *)
type 'a handle = { resolve : unit -> 'a; cell : 'a option Atomic.t }

let counter_handle name =
  { resolve = (fun () -> register_counter name); cell = Atomic.make None }

let histogram_handle ~buckets name =
  {
    resolve = (fun () -> register_histogram ~buckets name);
    cell = Atomic.make None;
  }

let get h =
  match Atomic.get h.cell with
  | Some m -> m
  | None ->
      locked (fun () ->
          match Atomic.get h.cell with
          | Some m -> m
          | None ->
              let m = h.resolve () in
              Atomic.set h.cell (Some m);
              m)

(** Seconds-scale wall-clock buckets, for stage timers. *)
let time_buckets =
  [| 1e-4; 3e-4; 1e-3; 3e-3; 1e-2; 3e-2; 0.1; 0.3; 1.0; 3.0; 10.0 |]

(** Fraction-scale buckets (0..1], for occupancies and hit rates. *)
let fraction_buckets = [| 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 |]

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.c_cells.(shard ()) by)

let rec atomic_add_float a x =
  let old = Atomic.get a in
  if not (Atomic.compare_and_set a old (old +. x)) then atomic_add_float a x

(* linear scan: bucket arrays are tiny and this sits in hot loops *)
let bucket_of bounds x =
  let n = Array.length bounds in
  let rec go i = if i >= n || x <= bounds.(i) then i else go (i + 1) in
  go 0

let observe h x =
  let s = shard () in
  ignore (Atomic.fetch_and_add h.h_counts.(s).(bucket_of h.bounds x) 1);
  atomic_add_float h.h_sums.(s) x

(* ------------------------------------------------------------------ *)
(* Snapshots *)

type hist = {
  buckets : float array;  (** upper bounds, ascending *)
  counts : int array;  (** per bucket, plus one overflow cell *)
  count : int;  (** total observations *)
  sum : float;  (** sum of observations *)
}

type value = Counter of int | Hist of hist

type snapshot = (string * value) list

let counter_value (c : counter) =
  Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c.c_cells

let hist_of_shard (h : histogram) s : hist =
  let counts = Array.map Atomic.get h.h_counts.(s) in
  {
    buckets = Array.copy h.bounds;
    counts;
    count = Array.fold_left ( + ) 0 counts;
    sum = Atomic.get h.h_sums.(s);
  }

(** Merge two histogram snapshots over the same buckets (associative and
    commutative up to float-addition rounding of [sum]). *)
let merge_hist (a : hist) (b : hist) : hist =
  if a.buckets <> b.buckets then
    invalid_arg "Metrics.merge_hist: bucket mismatch";
  {
    buckets = a.buckets;
    counts = Array.init (Array.length a.counts) (fun i -> a.counts.(i) + b.counts.(i));
    count = a.count + b.count;
    sum = a.sum +. b.sum;
  }

let hist_value (h : histogram) : hist =
  let acc = ref (hist_of_shard h 0) in
  for s = 1 to shards - 1 do
    acc := merge_hist !acc (hist_of_shard h s)
  done;
  !acc

(** Merged view of every registered metric, sorted by name. *)
let snapshot () : snapshot =
  Mutex.lock mu;
  let entries = Hashtbl.fold (fun k m acc -> (k, m) :: acc) registry [] in
  Mutex.unlock mu;
  entries
  |> List.map (fun (name, m) ->
         ( name,
           match m with
           | C c -> Counter (counter_value c)
           | H h -> Hist (hist_value h) ))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(** Quantile estimate from bucket counts, Prometheus-style: find the
    bucket where the cumulative count crosses [q * count] and
    interpolate linearly inside it (the first bucket's lower bound is
    0).  The overflow bucket has no upper bound, so a quantile landing
    there reports the last finite bound — a known underestimate, the
    standard convention.  [None] on an empty histogram. *)
let quantile (h : hist) q : float option =
  if h.count = 0 then None
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let target = q *. float_of_int h.count in
    let n = Array.length h.buckets in
    let rec go i cum =
      let c = h.counts.(i) in
      let cum' = cum +. float_of_int c in
      if (cum' >= target && c > 0) || i = n then
        if i = n then Some h.buckets.(n - 1)
        else begin
          let lo = if i = 0 then 0.0 else h.buckets.(i - 1) in
          let hi = h.buckets.(i) in
          Some (lo +. ((hi -. lo) *. ((target -. cum) /. float_of_int c)))
        end
      else go (i + 1) cum'
    in
    go 0 0.0
  end

(** Parse a {!hist_json} rendering back into a {!hist} — what [spd top]
    does to a served [spd-metrics/1] document.  [None] when the shape
    is wrong (missing members, counts/buckets length mismatch). *)
let hist_of_json (j : Json.t) : hist option =
  let numbers name =
    match Option.bind (Json.member name j) Json.to_list with
    | None -> None
    | Some l ->
        let xs = List.filter_map Json.to_number l in
        if List.length xs = List.length l then Some xs else None
  in
  match (numbers "buckets", numbers "counts") with
  | Some bs, Some cs when List.length cs = List.length bs + 1 ->
      let counts = Array.of_list (List.map int_of_float cs) in
      if Array.exists (fun c -> c < 0) counts then None
      else
        Some
          {
            buckets = Array.of_list bs;
            counts;
            count = Array.fold_left ( + ) 0 counts;
            sum =
              (match
                 Option.bind (Json.member "sum" j) Json.to_number
               with
              | Some s -> s
              | None -> 0.0);
          }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Rendering *)

let hist_json (h : hist) =
  Json.Obj
    [
      ("buckets", Json.List (Array.to_list (Array.map (fun b -> Json.Float b) h.buckets)));
      ("counts", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) h.counts)));
      ("count", Json.Int h.count);
      ("sum", Json.Float h.sum);
    ]

(** Schema-versioned JSON rendering of a snapshot: counters and
    histograms under separate keys, each sorted by name. *)
let snapshot_json (s : snapshot) =
  let counters =
    List.filter_map
      (function name, Counter n -> Some (name, Json.Int n) | _ -> None)
      s
  in
  let hists =
    List.filter_map
      (function name, Hist h -> Some (name, hist_json h) | _ -> None)
      s
  in
  Json.Obj
    [
      ("schema", Json.String "spd-metrics/1");
      ("counters", Json.Obj counters);
      ("histograms", Json.Obj hists);
    ]

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition (version 0.0.4): what `spd call metrics
   --format prometheus` and the daemon's [metrics_prom] method serve.
   Metric names mangle every character outside [a-zA-Z0-9_:] to '_'
   (so "spd.serve.rpc.latency.query" scrapes as
   "spd_serve_rpc_latency_query"); histograms render cumulatively with
   the mandatory "+Inf" bucket, _sum and _count. *)

let prom_name name =
  let mangled =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      name
  in
  match mangled.[0] with '0' .. '9' -> "_" ^ mangled | _ -> mangled

(* shortest float rendering Prometheus parses back exactly *)
let prom_float x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

(** Render a snapshot in the Prometheus text exposition format. *)
let prometheus (s : snapshot) : string =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let pn = prom_name name in
      match v with
      | Counter n ->
          Printf.bprintf b "# TYPE %s counter\n%s %d\n" pn pn n
      | Hist h ->
          Printf.bprintf b "# TYPE %s histogram\n" pn;
          let cum = ref 0 in
          Array.iteri
            (fun i bound ->
              cum := !cum + h.counts.(i);
              Printf.bprintf b "%s_bucket{le=\"%s\"} %d\n" pn
                (prom_float bound) !cum)
            h.buckets;
          Printf.bprintf b "%s_bucket{le=\"+Inf\"} %d\n" pn h.count;
          Printf.bprintf b "%s_sum %s\n" pn (prom_float h.sum);
          Printf.bprintf b "%s_count %d\n" pn h.count)
    s;
  Buffer.contents b
