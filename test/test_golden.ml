(** Golden-schedule corpus.

    Every paper workload's SPEC program is scheduled at each corpus
    width and rendered as cycle-by-FU occupancy grids
    ({!Golden_render}); the result must be byte-identical to the file
    committed under [test/golden/].  This pins the scheduler's {e exact}
    packing decisions — not just validity — so any change to DDG
    construction, heap priorities or tie-breaking shows up as a
    readable grid diff.  After an intentional change, re-bless with
    [make golden-promote] and commit the diff. *)

let case name f = Alcotest.test_case name `Quick f

let check_workload workload width () =
  let path = Filename.concat "golden" (Golden_render.file_name ~workload ~width) in
  Option.iter Alcotest.fail
    (Golden_render.drift ~what:"schedule" path
       (Golden_render.render ~workload ~width))

let tests =
  List.concat_map
    (fun workload ->
      List.map
        (fun width ->
          case
            (Printf.sprintf "%s @ %d FUs matches golden grid" workload width)
            (check_workload workload width))
        Golden_render.widths)
    Spd_workloads.Registry.names
