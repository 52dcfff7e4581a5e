(** Small process, file and timing helpers shared by the workloads. *)

module Clock = Spd_telemetry.Clock

(** Every file a run leaves behind (caches, sockets, traces, layer
    reports) lives under this directory of the current working
    directory, which is the repository root. *)
let work_dir = "_perf"

let in_work_dir name = Filename.concat work_dir name

let ensure_work_dir () =
  try Unix.mkdir work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let parse_json_file path =
  match Spd_telemetry.Json.of_string (read_file path) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

(** [timed f] is [f ()] and its wall clock in seconds. *)
let timed f =
  let t0 = Clock.now () in
  let r = f () in
  (r, Clock.now () -. t0)

(** Peak resident set size of a process in KiB, from the [VmHWM] line
    of its status; [pid] 0 is this process. *)
let peak_rss_kb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  let line =
    List.find
      (String.starts_with ~prefix:"VmHWM:")
      (String.split_on_char '\n' (read_file path))
  in
  Scanf.sscanf line "VmHWM: %d kB" Fun.id

(** The [spd] binary built next to this executable:
    [_build/default/{bench/perf,bin}]. *)
let spd_exe () =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat ".." (Filename.concat "bin" "spd.exe")))

(* Children still running when the process exits (normally or through
   an uncaught exception) are killed and reaped, so a failed run never
   leaves a daemon behind. *)
let children : int list ref = ref []

let reap pid =
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  children := List.filter (( <> ) pid) !children;
  status

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (reap pid))
        !children)

let spawn ?(stdout = Unix.stdout) ?(stderr = Unix.stderr) argv =
  let pid = Unix.create_process argv.(0) argv Unix.stdin stdout stderr in
  children := pid :: !children;
  pid

(** Wait up to [timeout] seconds for [pid] to exit, then kill it. *)
let reap_within ~timeout pid =
  let deadline = Clock.now () +. timeout in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Clock.now () < deadline ->
        Unix.sleepf 0.01;
        poll ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        reap pid
    | _, status ->
        children := List.filter (( <> ) pid) !children;
        status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
  in
  poll ()
