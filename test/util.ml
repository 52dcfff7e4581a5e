(** Shared helpers for the test suites. *)

module Ir = Spd_ir

let compile = Spd_lang.Lower.compile

let run_src ?mem_words src =
  let prog = compile src in
  Spd_sim.Interp.run ?mem_words prog

(** Run a source program and return its [main] result as an int. *)
let ret_int ?mem_words src =
  Ir.Value.to_int (run_src ?mem_words src).ret

(** Run a source program and return the printed output values. *)
let output ?mem_words src = (run_src ?mem_words src).output

(** One grid cell's answer through the engine's request path; raises
    [Engine.Cell_failed] on a failed cell. *)
let ask s ~bench ~latency artefact =
  let module Engine = Spd_harness.Engine in
  Engine.get
    (Engine.Session.submit s (Engine.Query.v ~bench ~latency artefact))

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let value : Ir.Value.t Alcotest.testable =
  Alcotest.testable Ir.Value.pp Ir.Value.equal

(** Float comparison with tolerance for simulated numeric kernels. *)
let close ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. (1.0 +. Float.abs b)

let check_close msg a b =
  if not (close a b) then Alcotest.failf "%s: %.17g <> %.17g" msg a b
