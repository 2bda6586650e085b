(* The sharded `ephemeral serve --shards N` parent: the {!Frontend}
   over a sharded backend — N shard-worker processes.

   Topology.  Each shard is the binary re-exec'd with a hidden
   [--shard-index K]: it loads only the manifest lines whose id hashes
   to K ({!Corpus.shard_of}) and serves them on a private socket, with
   its own Exec pool, row cache, and store handle.  The front-end owns
   the public socket and the control ops; this backend supplies:

   - query: the instance id the front-end peeked picks the shard, and
     the request/reply bytes cross the router *untouched* (no decode,
     no re-encode), so reply byte-identity at any shard count is
     structural;
   - rows: the startup snapshot of every shard's LIST, merged back
     into manifest order (HEALTH/READY/LIST and the ledger's
     deterministic section);
   - stats: a fan-out of STATS over the connection's shard links,
     summed.

   Each connection keeps its own lazily-connected fd per shard, so
   replies need no multiplexing and per-client ordering is the stream
   order — the same contract as the single-process server.

   Supervision.  A supervisor thread reaps crashed shards (a WNOHANG
   scan every tick) and respawns them under {!Fault.Retry.backoff_delay}
   with a bounded budget; a shard that keeps dying is left down for
   good.  While a
   shard is down its queries answer a typed UNAVAILABLE — never a
   hang, never a torn frame.  The supervisor is also the shard-kill
   fault site: with [shard_kill > 0] it rolls
   [Plan.roll ~site:"serve.shard_kill" ~a:tick ~b:shard] and SIGKILLs
   live shards, which is how the chaos soak exercises crash-respawn
   under live traffic.

   Drain hooks.  Quiesce joins the supervisor, so no respawn or fault
   kill races the shutdown cascade and the drain is the only reaper.
   Once client connections are joined, the final tallies are collected
   from every live shard, SIGTERM cascades to the shards (each drains
   and writes its per-shard ledger), and the front-end publishes the
   merged ledger, whose deterministic section is byte-identical at any
   shard count. *)

type config = {
  address : Frontend.address;
  shards : int;
  shard_argv : int -> string array;  (* argv to (re)spawn shard k *)
  read_timeout_s : float;  (* per-frame deadline on client reads *)
  queue_max : int;  (* shards' admission bound, for the ledger *)
  ledger_path : string option;
  manifest_ids : string list;  (* ids in manifest order, for the merge *)
  backend : Sim.Backend.t;
  fault : Fault.Plan.t;
}

(* Bound on waiting for a shard's reply to one forwarded frame. *)
let shard_call_timeout_s = 30.

let shard_ready_timeout_s = 30.

(* Crash-respawn budget per shard.  Generous: the chaos soak's
   shard-kill fault can land several early-uptime kills in a row, each
   of which counts against it. *)
let max_respawns = 20

type shard_state =
  | Live of { pid : int; since : float; crashes : int }
  | Down of { crashes : int; next_try : float }
  | Dead  (* respawn budget exhausted *)

type slot = { index : int; socket : string; mutable state : shard_state }

type t = {
  cfg : config;
  draining : bool Atomic.t;  (* stops the supervisor *)
  sm : Mutex.t;  (* guards slots' state *)
  slots : slot array;
  mutable supervisor : Thread.t option;
}

let parse_stats_text = Ledger.parse_stats_text

(* ------------------------------------------------------------------ *)
(* LIST snapshot merge

   Each shard lists only its partition, in its own manifest-relative
   order.  Re-interleaving by the full manifest id sequence restores
   the exact single-process LIST — duplicate ids consume their shard's
   rows in order, so even a manifest that repeats an id merges
   stably.  An id no shard reported (a shard that died before its
   snapshot) is kept as a failed row rather than dropped, so the table
   always has one row per manifest line. *)

let merge_list_rows ~manifest_ids per_shard_rows =
  let queues : (string, (string * string * string) Queue.t) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (List.iter (fun ((id, _, _) as row) ->
         let q =
           match Hashtbl.find_opt queues id with
           | Some q -> q
           | None ->
             let q = Queue.create () in
             Hashtbl.add queues id q;
             q
         in
         Queue.push row q))
    per_shard_rows;
  List.map
    (fun id ->
      match Hashtbl.find_opt queues id with
      | Some q when not (Queue.is_empty q) -> Queue.pop q
      | _ -> (id, "failed", "shard unavailable at snapshot"))
    manifest_ids

(* ------------------------------------------------------------------ *)
(* Lifecycle: spawn, supervise *)

let spawn_slot t slot ~crashes =
  let pid = Shard.spawn (t.cfg.shard_argv slot.index) in
  slot.state <- Live { pid; since = Unix.gettimeofday (); crashes }

let kill_roll_site = "serve.shard_kill"

(* One supervision pass: reap exits, schedule/execute respawns, roll
   the shard-kill fault.  Runs under [t.sm]. *)
let supervise_tick t ~tick =
  let now = Unix.gettimeofday () in
  Array.iter
    (fun slot ->
      match slot.state with
      | Live { pid; since; crashes } -> (
        match Shard.poll_exit pid with
        | Some _status ->
          (* A shard that stayed up a while earned its crash count
             back: only rapid crash loops exhaust the budget. *)
          let crashes = if now -. since >= 5. then 1 else crashes + 1 in
          if crashes > max_respawns then slot.state <- Dead
          else begin
            let delay =
              Fault.Retry.backoff_delay ~base_delay_s:0.05 ~max_delay_s:1.
                ~jitter:0.5
                ~jitter_seed:(Int64.of_int slot.index)
                (crashes - 1)
            in
            slot.state <- Down { crashes; next_try = now +. delay }
          end
        | None ->
          if
            t.cfg.fault.Fault.Plan.shard_kill > 0.
            && Fault.Plan.roll t.cfg.fault ~site:kill_roll_site ~a:tick
                 ~b:slot.index
               < t.cfg.fault.Fault.Plan.shard_kill
          then try Unix.kill pid Sys.sigkill with _ -> ())
      | Down { crashes; next_try } when now >= next_try ->
        (try spawn_slot t slot ~crashes
         with _ -> slot.state <- Down { crashes; next_try = now +. 1. })
      | Down _ | Dead -> ())
    t.slots

let supervisor_loop t =
  let tick = ref 0 in
  while not (Atomic.get t.draining) do
    Thread.delay 0.05;
    if not (Atomic.get t.draining) then begin
      incr tick;
      Mutex.lock t.sm;
      supervise_tick t ~tick:!tick;
      Mutex.unlock t.sm
    end
  done

(* ------------------------------------------------------------------ *)
(* Shard links *)

let unavailable k =
  Proto.encode_response
    (Proto.Error (Proto.Unavailable, Printf.sprintf "shard %d unavailable" k))

(* Per-connection shard links, connected on first use and dropped on
   any stream error (a reply stream that timed out or died mid-frame
   is out of sync — the only safe move is a fresh connection). *)
type links = (int, Unix.file_descr) Hashtbl.t

let link_fd t (links : links) k =
  match Hashtbl.find_opt links k with
  | Some fd -> Some fd
  | None -> (
    let live =
      Mutex.lock t.sm;
      let r =
        match t.slots.(k).state with Live _ -> true | Down _ | Dead -> false
      in
      Mutex.unlock t.sm;
      r
    in
    if not live then None
    else
      match
        Client.connect ~timeout_s:0.25 (Frontend.Unix_path t.slots.(k).socket)
      with
      | Error _ -> None
      | Ok c ->
        let fd = Client.fd c in
        Hashtbl.replace links k fd;
        Some fd)

let drop_link (links : links) k =
  match Hashtbl.find_opt links k with
  | Some fd ->
    Hashtbl.remove links k;
    (try Unix.close fd with _ -> ())
  | None -> ()

let close_links (links : links) =
  Hashtbl.iter (fun _ fd -> try Unix.close fd with _ -> ()) links

(* Forward one request payload over [fd], the link to shard [k], and
   relay the raw reply bytes.  Every failure mode — a link reset
   mid-reply included, which the read raises as ECONNRESET — answers a
   typed UNAVAILABLE: a dead shard must never hang the client or leave
   it a torn frame. *)
let exchange links k fd payload =
  match
    Proto.write_frame fd payload;
    Proto.read_frame ~deadline_s:shard_call_timeout_s fd
  with
  | Proto.Frame bytes -> bytes
  | Proto.Eof | Proto.Timeout | Proto.Oversized _ | (exception _) ->
    drop_link links k;
    unavailable k

let forward t links k payload =
  match link_fd t links k with
  | None -> unavailable k
  | Some fd -> exchange links k fd payload

let exchange_once fd payload =
  let links : links = Hashtbl.create 1 in
  Hashtbl.replace links 0 fd;
  let reply = exchange links 0 fd payload in
  close_links links;
  reply

(* One decoded round trip over a connection's link to shard [k]. *)
let call t links k request =
  Proto.decode_response (forward t links k (Proto.encode_request request))

(* STATS fan-out: a shard that cannot answer contributes nothing. *)
let merged_stats t links =
  List.init t.cfg.shards (fun k ->
      match call t links k Proto.Stats with
      | Ok (Proto.Ok_text s) -> Ledger.parse_stats_text s
      | _ -> None)
  |> List.filter_map Fun.id
  |> Ledger.merge_volatile ~shards:t.cfg.shards

(* SIGTERM every live shard and wait for its drain (its own ledger
   included), SIGKILL past [timeout_s]. *)
let terminate_all t ~timeout_s =
  Array.iter
    (fun slot ->
      match slot.state with
      | Live { pid; _ } ->
        ignore (Shard.terminate ~timeout_s pid);
        slot.state <- Dead
      | Down _ | Dead -> ())
    t.slots

(* Final tallies, then the drain cascade. *)
let final t () =
  let links : links = Hashtbl.create 4 in
  let v = merged_stats t links in
  close_links links;
  terminate_all t ~timeout_s:10.;
  v

let quiesce t () =
  Atomic.set t.draining true;
  Option.iter Thread.join t.supervisor;
  t.supervisor <- None

(* ------------------------------------------------------------------ *)
(* Run *)

let run config =
  if config.shards < 1 then invalid_arg "Router.run: shards must be >= 1";
  match config.address with
  | Frontend.Tcp _ -> Error "--shards requires a Unix-socket --socket"
  | Frontend.Unix_path public -> (
    let slots =
      Array.init config.shards (fun k ->
          { index = k; socket = Shard.socket_path public k; state = Dead })
    in
    let t =
      {
        cfg = config;
        draining = Atomic.make false;
        sm = Mutex.create ();
        slots;
        supervisor = None;
      }
    in
    (* Spawn everything first, then wait: shard startups overlap. *)
    Array.iter (fun slot -> spawn_slot t slot ~crashes:0) slots;
    let not_ready =
      Array.to_list slots
      |> List.filter_map (fun slot ->
             match
               Shard.wait_ready ~timeout_s:shard_ready_timeout_s slot.socket
             with
             | Ok () -> None
             | Error m -> Some m)
    in
    match not_ready with
    | m :: _ ->
      terminate_all t ~timeout_s:2.;
      Error m
    | [] -> (
      (* Startup LIST snapshot: one merged, manifest-ordered instance
         table that serves HEALTH/READY/LIST and the deterministic
         ledger section for the whole run. *)
      let links : links = Hashtbl.create 4 in
      let snapshot =
        List.init config.shards (fun k ->
            match call t links k Proto.List with
            | Ok (Proto.Ok_list rows) -> rows
            | _ -> [])
        |> merge_list_rows ~manifest_ids:config.manifest_ids
      in
      close_links links;
      let backend =
        {
          Frontend.kind = config.backend;
          queue_max = config.queue_max;
          rows = (fun () -> snapshot);
          open_conn = (fun () : links -> Hashtbl.create 4);
          close_conn = close_links;
          query =
            (fun links payload instance ->
              forward t links
                (Corpus.shard_of ~shards:config.shards instance)
                payload);
          stats = merged_stats t;
          quiesce = quiesce t;
          final = final t;
        }
      in
      match
        Frontend.create ~address:config.address
          ~read_timeout_s:config.read_timeout_s
          ~ledger_path:config.ledger_path backend
      with
      | exception e ->
        terminate_all t ~timeout_s:2.;
        Error (Printexc.to_string e)
      | fe ->
        t.supervisor <- Some (Thread.create supervisor_loop t);
        Frontend.run fe;
        Ok ()))
