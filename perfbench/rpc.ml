(* The benchmark's side of `ephemeral serve`: spawning the real binary
   as a child process, readiness, raw round trips, STATS readouts, a
   checked drain, and memory high-water marks. *)

module Proto = Serve.Proto
module Client = Serve.Client
module Clock = Obs.Clock

let connect socket =
  match Client.connect ~timeout_s:0. (Serve.Server.Unix_path socket) with
  | Ok c -> c
  | Error m -> Out.fail "cannot connect to %s: %s" socket m

(* One blocking round trip of an encoded request.  The reply payload
   comes back undecoded, for the oracle to judge. *)
let call_raw c payload =
  let fd = Client.fd c in
  Proto.write_frame fd payload;
  match Proto.read_frame ~deadline_s:60. fd with
  | Proto.Frame s -> s
  | Proto.Eof -> Out.fail "server closed the connection"
  | Proto.Timeout -> Out.fail "no reply within 60 s"
  | Proto.Oversized n -> Out.fail "oversized reply frame (%d bytes)" n

type server = {
  pid : int;
  socket : string;  (** relative to the checkout, so it fits sun_path *)
  shards : int;  (** 0 = single process *)
  dir : string;  (** the server's own directory: socket and ledger *)
}

let try_ping socket =
  match Client.connect ~timeout_s:0. (Serve.Server.Unix_path socket) with
  | Error _ -> false
  | Ok c ->
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        match Client.call ~timeout_s:60. c Proto.Ping with
        | r -> r = Ok Proto.Ok_empty
        | exception Unix.Unix_error _ -> false)

let status_to_string = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by %d" s

let write_manifest path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

(* `ephemeral serve --jobs 1` over [manifest_path], in [dir]/[tag].
   The router binds its socket only once every shard answered PING,
   so one successful PING means the whole server is up. *)
let start ~exe ~dir ~tag ~manifest_path ~backend ~shards =
  if not (Sys.file_exists exe) then Out.fail "serve binary %s is missing" exe;
  let dir = Filename.concat dir tag in
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "s.sock" in
  let argv =
    [ exe; "serve"; "--socket"; socket; "--manifest"; manifest_path;
      "--backend"; Sim.Backend.to_string backend; "--jobs"; "1";
      "--report"; Filename.concat dir "ledger.json" ]
    @ if shards > 0 then [ "--shards"; string_of_int shards ] else []
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let t0 = Clock.now () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () -> Unix.create_process exe (Array.of_list argv) Unix.stdin devnull Unix.stderr)
  in
  let give_up = Int64.add t0 120_000_000_000L in
  let rec await () =
    match Serve.Shard.poll_exit pid with
    | Some st -> Out.fail "server exited before it was ready (%s)" (status_to_string st)
    | None ->
      if try_ping socket then ()
      else if Clock.now () > give_up then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Out.fail "server never became ready within 120 s"
      end
      else begin
        Unix.sleepf 0.002;
        await ()
      end
  in
  await ();
  { pid; socket; shards; dir }

(* Graceful drain: SIGTERM, then the exit status must be 0 and the
   ledger published. *)
let stop s =
  (match Serve.Shard.terminate ~timeout_s:60. s.pid with
  | Unix.WEXITED 0 -> ()
  | st -> Out.fail "server drain was dirty (%s)" (status_to_string st));
  if not (Sys.file_exists (Filename.concat s.dir "ledger.json")) then
    Out.fail "server in %s drained without publishing its ledger" s.dir

(* Only for failure paths: a server that is still running is killed. *)
let kill_if_running s =
  match Serve.Shard.poll_exit s.pid with
  | Some _ -> ()
  | None ->
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ())

let stats socket =
  let c = connect socket in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      match Client.call ~timeout_s:60. c Proto.Stats with
      | Ok (Proto.Ok_text s) -> (
        match Serve.Router.parse_stats_text s with
        | Some v -> v
        | None -> Out.fail "unreadable STATS reply %S" s)
      | Ok r -> Out.fail "STATS answered %s" (Proto.render_response r)
      | Error m -> Out.fail "STATS failed: %s" m)

(* ---- memory ------------------------------------------------------- *)

(* VmHWM of this process, in MiB. *)
let self_peak_mib () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Some (Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id)
    | _ -> find ()
    | exception End_of_file -> None
  in
  let kib = Fun.protect ~finally:(fun () -> close_in ic) find in
  match kib with
  | Some k -> float_of_int k /. 1024.
  | None -> Out.fail "no VmHWM in /proc/self/status"
