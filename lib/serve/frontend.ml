(* The one serving front-end behind `ephemeral serve`, single-process
   or sharded: listener, bounded connection table, per-connection
   reader threads, the control ops, and the graceful drain.  What
   answers queries is a backend record — the local engine
   ({!Server}) or the shard links ({!Router}).

   Each accepted connection gets one systhread that reads frames under
   the per-frame deadline (slow-loris bound) and answers each one:

   - a query op (one {!Proto.peek_instance} can route) goes to the
     backend's [query] on the connection's own handle, timed on the
     monotonic clock into [serve.latency_ms];
   - everything else is decoded here: PING/HEALTH/READY/LIST/STATS are
     answered from the backend's rows and tallies, and an undecodable
     payload gets the decoder's typed error — so an unknown opcode
     never reaches a backend.

   Drain state machine (first SIGTERM/SIGINT via
   {!Fault.Shutdown.set_graceful}, or the background stopper):

     accepting ──signal──▶ draining ──flush──▶ drained

   The signal callback only flips [draining] and self-connects to pop
   the blocked accept(2) (closing the listener does not reliably
   unblock accept on Linux, and the signal may land on another
   thread).  The accept thread then runs the drain: close the
   listener, backend quiesce, shut down surviving connections, join
   their threads, final tallies, publish the ledger atomically
   ({!Store.Fsio.write_atomic}: a crashed drain leaves the previous
   ledger or none, never a torn one), unlink the socket.  A second
   signal takes {!Fault.Shutdown}'s immediate exit-130/143 path. *)

type address = Unix_path of string | Tcp of string * int

let parse_address s =
  match String.index_opt s ':' with
  | Some _ when String.length s > 4 && String.sub s 0 4 = "tcp:" -> (
    let rest = String.sub s 4 (String.length s - 4) in
    match String.rindex_opt rest ':' with
    | None -> Error "tcp address must be tcp:HOST:PORT"
    | Some i -> (
      let host = String.sub rest 0 i in
      let port = String.sub rest (i + 1) (String.length rest - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 -> Ok (Tcp (host, p))
      | _ -> Error (Printf.sprintf "bad port %S" port)))
  | _ -> Ok (Unix_path s)

let sockaddr = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp (host, port) ->
    let a =
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found -> Unix.inet_addr_of_string host
    in
    Unix.ADDR_INET (a, port)

let stream_socket addr =
  Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0

(* ------------------------------------------------------------------ *)

type 'c backend = {
  kind : Sim.Backend.t;
  queue_max : int;
  rows : unit -> (string * string * string) list;
  open_conn : unit -> 'c;
  close_conn : 'c -> unit;
  query : 'c -> string -> string -> string;
  stats : 'c -> Ledger.volatile;
  quiesce : unit -> unit;
  final : unit -> Ledger.volatile;
}

(* Over-limit accepts are answered with one typed frame and closed,
   never queued. *)
let max_conns = 64

type conn = { fd : Unix.file_descr; mutable thread : Thread.t option }

type 'c t = {
  backend : 'c backend;
  address : address;
  addr : Unix.sockaddr;  (* resolved once: the wake runs in a signal callback *)
  listen_fd : Unix.file_descr;
  read_timeout_s : float;
  ledger_path : string option;
  draining : bool Atomic.t;
  cm : Mutex.t;
  conns : (int, conn) Hashtbl.t;  (* live connections only *)
  mutable next_conn : int;
  started_at : int64;
  h_latency : Obs.Metrics.histogram;
}

let create ~address ~read_timeout_s ~ledger_path backend =
  (* A client disconnecting mid-write must surface as EPIPE on the
     write, not kill the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let addr = sockaddr address in
  let listen_fd = stream_socket addr in
  (try
     (match address with
     | Unix_path p -> if Sys.file_exists p then Unix.unlink p
     | Tcp _ -> Unix.setsockopt listen_fd Unix.SO_REUSEADDR true);
     Unix.bind listen_fd addr;
     Unix.listen listen_fd 64
   with e ->
     Unix.close listen_fd;
     raise e);
  {
    backend;
    address;
    addr;
    listen_fd;
    read_timeout_s;
    ledger_path;
    draining = Atomic.make false;
    cm = Mutex.create ();
    conns = Hashtbl.create 16;
    next_conn = 0;
    started_at = Obs.Clock.now ();
    h_latency = Obs.Metrics.histogram "serve.latency_ms";
  }

let live_conns t =
  Mutex.lock t.cm;
  let n = Hashtbl.length t.conns in
  Mutex.unlock t.cm;
  n

(* Flip [draining] and self-connect to pop a blocked accept(2); a
   failed connect is fine — nobody was blocked. *)
let stop t =
  Atomic.set t.draining true;
  try
    let fd = stream_socket t.addr in
    (try Unix.connect fd t.addr with _ -> ());
    Unix.close fd
  with _ -> ()

(* ------------------------------------------------------------------ *)
(* Answering frames *)

let health rows =
  let avail = List.exists (fun (_, s, _) -> s = "available") rows in
  let failed = List.exists (fun (_, s, _) -> s = "failed") rows in
  if not avail then "unhealthy" else if failed then "degraded" else "ok"

let control t c req =
  match (req : Proto.request) with
  | Proto.Ping -> Proto.Ok_empty
  | Proto.Health -> Proto.Ok_text (health (t.backend.rows ()))
  | Proto.Ready ->
    if Atomic.get t.draining then Proto.Error (Proto.Shutting_down, "draining")
    else if health (t.backend.rows ()) <> "unhealthy" then
      Proto.Ok_text "ready"
    else Proto.Error (Proto.Unavailable, "no healthy instances")
  | Proto.List -> Proto.Ok_list (t.backend.rows ())
  | Proto.Stats -> Proto.Ok_text (Ledger.render_stats_text (t.backend.stats c))
  | Proto.Foremost _ | Proto.Arrivals _ | Proto.Reach _ | Proto.Ecc _ ->
    (* Unreachable: every decodable query op peeks an instance. *)
    Proto.Error (Proto.Internal, "query reached control path")

let internal e =
  Proto.encode_response (Proto.Error (Proto.Internal, Printexc.to_string e))

let answer t c payload =
  match Proto.peek_instance payload with
  | Some instance ->
    let t0 = Obs.Clock.now () in
    let reply =
      try t.backend.query c payload instance with e -> internal e
    in
    Obs.Metrics.observe t.h_latency
      (Obs.Clock.ns_to_ms (Obs.Clock.elapsed_ns ~since:t0));
    reply
  | None -> (
    match Proto.decode_request payload with
    | Error (code, msg) -> Proto.encode_response (Proto.Error (code, msg))
    | Ok req -> (
      try Proto.encode_response (control t c req) with e -> internal e))

(* ------------------------------------------------------------------ *)
(* Connections *)

let reply fd response = Proto.write_frame fd (Proto.encode_response response)

let conn_loop t id fd =
  let c = t.backend.open_conn () in
  let rec loop () =
    match Proto.read_frame ~deadline_s:t.read_timeout_s fd with
    | Proto.Eof -> ()
    | Proto.Timeout ->
      (* Slow loris: the peer stalled mid-frame.  The stream is not at
         a frame boundary, so the only safe move is to close. *)
      ()
    | Proto.Oversized k ->
      (* Header read, payload not: also out of sync — answer and
         close. *)
      (try
         reply fd
           (Proto.Error
              ( Proto.Too_large,
                Printf.sprintf "frame of %d bytes exceeds limit %d" k
                  Proto.max_frame ))
       with _ -> ())
    | Proto.Frame payload ->
      Proto.write_frame fd (answer t c payload);
      loop ()
  in
  (try loop () with _ -> ());
  t.backend.close_conn c;
  (* Leave the table before closing: the drain shuts down only
     descriptors still in the table, under [cm], so it can never touch
     a closed (possibly recycled) one. *)
  Mutex.lock t.cm;
  Hashtbl.remove t.conns id;
  Mutex.unlock t.cm;
  try Unix.close fd with _ -> ()

let spawn_conn t fd =
  Mutex.lock t.cm;
  let over = Hashtbl.length t.conns >= max_conns in
  let id = t.next_conn in
  let conn = { fd; thread = None } in
  if not over then begin
    t.next_conn <- id + 1;
    Hashtbl.replace t.conns id conn
  end;
  Mutex.unlock t.cm;
  if over then begin
    (try
       reply fd
         (Proto.Error (Proto.Resource_exhausted, "connection limit reached"))
     with _ -> ());
    try Unix.close fd with _ -> ()
  end
  else begin
    let th = Thread.create (fun () -> conn_loop t id fd) () in
    (* Spawns and the drain both run on the accept thread, so every
       connection the drain sees has its handle set. *)
    Mutex.lock t.cm;
    conn.thread <- Some th;
    Mutex.unlock t.cm
  end

(* ------------------------------------------------------------------ *)
(* Accept / drain *)

let accept_loop t =
  let rec loop () =
    if Atomic.get t.draining then ()
    else
      match Unix.accept t.listen_fd with
      | fd, _ ->
        spawn_conn t fd;
        loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
      | exception _ when Atomic.get t.draining -> ()
  in
  loop ()

let ledger t (v : Ledger.volatile) =
  let wall_s = Obs.Clock.ns_to_s (Obs.Clock.elapsed_ns ~since:t.started_at) in
  let p q =
    if Obs.Metrics.observations t.h_latency > 0 then
      Obs.Metrics.percentile t.h_latency q
    else 0.
  in
  let qps =
    if wall_s > 0. then float_of_int v.Ledger.queries /. wall_s else 0.
  in
  Ledger.render
    ~backend:(Sim.Backend.to_string t.backend.kind)
    ~queue_max:t.backend.queue_max ~instances:(t.backend.rows ())
    { v with Ledger.p50_ms = p 0.5; p99_ms = p 0.99; qps; wall_s }

let drain t =
  Atomic.set t.draining true;
  (try Unix.close t.listen_fd with _ -> ());
  t.backend.quiesce ();
  (* Surviving connections are idle readers (or writers about to
     finish): shut their sockets so reads see EOF.  shutdown, not
     close — the thread owns the close. *)
  Mutex.lock t.cm;
  let threads =
    Hashtbl.fold
      (fun _ c acc ->
        (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with _ -> ());
        match c.thread with Some th -> th :: acc | None -> acc)
      t.conns []
  in
  Mutex.unlock t.cm;
  List.iter (fun th -> try Thread.join th with _ -> ()) threads;
  (* The ledger goes last: it reflects the final tallies. *)
  let v = t.backend.final () in
  (match t.ledger_path with
  | None -> ()
  | Some path -> (
    try Store.Fsio.write_atomic path (ledger t v) with _ -> ()));
  match t.address with
  | Unix_path path -> ( try Unix.unlink path with _ -> ())
  | Tcp _ -> ()

let run t =
  Fault.Shutdown.install ();
  (* The callback only flips an atomic and pokes the accept thread
     awake; the accept thread runs the actual drain.  (OCaml signal
     handlers run at safepoints as ordinary code — the constraint is
     not taking locks the interrupted thread may hold, and [stop]
     takes none.) *)
  Fault.Shutdown.set_graceful (fun _ -> stop t);
  (match t.address with
  | Unix_path p -> Printf.printf "READY %s\n%!" p
  | Tcp (h, p) -> Printf.printf "READY tcp:%s:%d\n%!" h p);
  accept_loop t;
  drain t

let run_background t =
  let th =
    Thread.create
      (fun () ->
        accept_loop t;
        drain t)
      ()
  in
  fun () ->
    stop t;
    Thread.join th
