(** Regenerate the golden corpus ([make golden-promote]).

    Renders every (workload, width) schedule document, the validation
    ledger and the why/validate/explain document digests with the same
    {!Golden_render} the test suite diffs against, and writes the files
    into the directory named on the command line (default
    [test/golden]).  Run it after an
    {e intentional} scheduler, DDG, validator or cycle-model change,
    eyeball the git diff, and commit. *)

let () =
  let dir =
    match Array.to_list Sys.argv with
    | [ _ ] -> Filename.concat "test" "golden"
    | [ _; dir ] -> dir
    | _ ->
        prerr_endline "usage: golden_promote [DIR]";
        exit 2
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let write name doc =
    let path = Filename.concat dir name in
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc doc);
    Printf.printf "golden_promote: wrote %s (%d bytes)\n%!" path
      (String.length doc)
  in
  List.iter
    (fun workload ->
      List.iter
        (fun width ->
          write
            (Golden_render.file_name ~workload ~width)
            (Golden_render.render ~workload ~width))
        Golden_render.widths)
    Spd_workloads.Registry.names;
  write Golden_render.validate_file (Golden_render.render_validate ());
  write Golden_render.documents_file (Golden_render.render_documents ())
