(** A machine-speed diagnostic.

    The benchmark shares its cores with other tenants, whose load moves
    every timing.  A run times a fixed integer loop on one core before
    set-up and again after its window, and records the median round as
    [loop_round_ms], so that a reader of recorded runs can tell a slow
    machine from a slow program.  No metric is scaled by it.  The loop
    neither allocates nor uses code of the repository, so no change to
    the repository can move it. *)

let kernel () =
  let x = ref 0 in
  for i = 1 to 3_000_000 do
    x := !x lxor (i * 7)
  done;
  ignore (Sys.opaque_identity !x)

(** Rounds of the loop for about [budget] seconds, at least three, each
    in seconds. *)
let rounds ~budget =
  let until = Spd_telemetry.Clock.now () +. budget in
  let rec go acc =
    let _, t = Util.timed kernel in
    let acc = t :: acc in
    if List.length acc < 3 || Spd_telemetry.Clock.now () < until then go acc
    else acc
  in
  go []
