(** The compiled-in build digest names every library source.

    [Build.digest] names the build that fills a disk cache, so a source
    file it leaves out could change reported numbers without changing
    the name.  This runs in a sandbox that holds the source tree of
    [lib/] only, lists every [*.ml] and [*.mli] under it, and recomputes
    the digest its own way: the MD5 of the [md5sum] manifest of those
    files, by path in byte order.  A file outside the hashed set makes
    the two differ. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let rec files dir =
  List.concat_map
    (fun name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then files path else [ path ])
    (Array.to_list (Sys.readdir dir))

let () =
  let root = "../lib/" in
  let sources =
    List.filter_map
      (fun path ->
        if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
        then
          Some
            (String.sub path (String.length root)
               (String.length path - String.length root))
        else None)
      (files "../lib")
    |> List.sort String.compare
  in
  let manifest =
    String.concat ""
      (List.map
         (fun rel ->
           Digest.to_hex (Digest.file (root ^ rel)) ^ "  " ^ rel ^ "\n")
         sources)
  in
  let digest = Digest.to_hex (Digest.string manifest) in
  if digest <> Spd_harness.Build.digest then
    fail
      "build_digest: Build.digest is %s, but the %d sources under lib/ hash \
       to %s"
      Spd_harness.Build.digest (List.length sources) digest;
  Printf.printf "build_digest: %d sources, %s\n" (List.length sources) digest
