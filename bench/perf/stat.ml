(** Order statistics over float samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(** First quartile, median and third quartile, computed exactly like
    Python's [statistics.quantiles(xs, n=4)] (the exclusive method), so
    spreads agree with any script that checks them that way.  A single
    sample is its own quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.quartiles: no samples";
  if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(** The smallest sample; [infinity] on none. *)
let minimum xs = List.fold_left Float.min infinity xs

(** Nearest-rank percentile, [q] in [0..1]; 0 on no samples. *)
let percentile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) rank))
