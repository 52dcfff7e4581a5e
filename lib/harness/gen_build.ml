(* Writes the module [Build] to the file named by its second argument:
   [Build.digest], the hex MD5 of the manifest of every [*.ml] and
   [*.mli] under the directory named by its first argument, one
   ["<hex md5>  <path>\n"] line per file in byte order of path (the
   lines [md5sum] prints).  From the repository root,

     cd lib && find . -name '*.ml' -o -name '*.mli' | cut -c3- \
       | LC_ALL=C sort | xargs md5sum | md5sum

   prints the same digest.  The dune rule runs it in a sandbox that holds
   the source tree only, so the generated module is not among the files
   it hashes. *)

let rec sources dir rel =
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name
         and rel = if rel = "" then name else rel ^ "/" ^ name in
         if Sys.is_directory path then sources path rel
         else if
           Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
         then [ (rel, path) ]
         else [])

let () =
  let manifest =
    List.sort compare (sources Sys.argv.(1) "")
    |> List.map (fun (rel, path) ->
           Printf.sprintf "%s  %s\n" (Digest.to_hex (Digest.file path)) rel)
    |> String.concat ""
  in
  Out_channel.with_open_bin Sys.argv.(2) (fun oc ->
      Printf.fprintf oc
        "(** The build that fills a disk cache: the MD5 of every lib/**/*.ml{,i} \
         (see gen_build.ml). *)\n\
         let digest = %S\n"
        (Digest.to_hex (Digest.string manifest)))
