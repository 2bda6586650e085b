(* `ephemeral chaos --serve`: a self-checking client soak against a
   live, fault-armed child server.

   The soak forks the real binary (`Sys.executable_name serve ...`),
   waits for its READY line, and drives it through phases that each
   target one robustness claim:

     correctness — sequential queries; every reply must equal the
       local oracle (rows recomputed in-process from the same specs —
       backends are label-identical, so one oracle covers both);
     typed-errors — malformed frames, unknown ops, bad instances and
       arguments must come back as the documented typed error, with
       the connection still usable where the stream stayed in sync;
     drops — half-written frames and abrupt closes must not wedge the
       server (a fresh PING succeeds after each);
     slow-loris — a frame trickled slower than the read deadline gets
       the connection closed, and the server stays healthy;
     overload — a concurrent burst larger than the admission queue:
       every reply is oracle-correct or a clean typed error
       (Resource_exhausted / Deadline_exceeded), nothing hangs;
     sigterm — SIGTERM lands mid-burst: in-flight replies stay
       correct-or-typed (Shutting_down included), stragglers see a
       clean EOF at a frame boundary, the child exits 0, and the
       ledger is published (atomically — it either parses or is
       absent, and the soak requires present).

   A violation is anything outside that contract: a wrong answer, an
   undecodable reply, a hang, a non-zero exit, a missing ledger, or a
   queue peak above the configured bound.  The soak returns them all
   rather than aborting at the first, so one run reports the full
   damage. *)

type outcome = {
  checks : int;
  violations : string list;
  queries : int;  (* client-side query count, burst phases included *)
  p50_ms : float;
  p99_ms : float;
  qps : float;
  server_exit : int option;  (* None = had to be killed *)
  ledger_ok : bool;
}

let queue_max = 32 (* deliberately small so the overload phase sheds *)

let read_timeout_s = 2.0

let manifest_lines ~n1 ~n2 ~seed =
  [
    "# chaos --serve corpus";
    Printf.sprintf "id=clq,family=clique,n=%d,a=%d,r=2,seed=%d" n1 n1 seed;
    Printf.sprintf "id=gnp,family=gnp:4,n=%d,a=%d,r=1,seed=%d" n2 n2 (seed + 1);
    (* A spec that cannot build: keeps the server in degraded mode so
       the Unavailable path is exercised live. *)
    "id=broken,family=clique,n=0";
  ]

(* ------------------------------------------------------------------ *)

type ctx = {
  address : Frontend.address;
  oracle : (string * int, int array) Hashtbl.t;
  instances : (string * int) list;  (* healthy: (id, n) *)
  kill_armed : bool;
      (* sharded soak with the shard-kill fault rolling: a typed
         Unavailable is then a legitimate answer in any phase (the
         owning shard may be mid-respawn) *)
  cm : Mutex.t;
  mutable checks : int;
  mutable violations : string list;
  mutable latencies : float list;  (* ms *)
  mutable query_count : int;
  c_checks : Obs.Metrics.counter;
  c_violations : Obs.Metrics.counter;
  h_latency : Obs.Metrics.histogram;
}

let check ctx ~phase ok detail =
  Mutex.lock ctx.cm;
  ctx.checks <- ctx.checks + 1;
  if not ok then
    ctx.violations <-
      Printf.sprintf "[%s] %s" phase detail :: ctx.violations;
  Mutex.unlock ctx.cm;
  Obs.Metrics.incr ctx.c_checks;
  if not ok then Obs.Metrics.incr ctx.c_violations

let note_latency ctx ms =
  Mutex.lock ctx.cm;
  ctx.latencies <- ms :: ctx.latencies;
  ctx.query_count <- ctx.query_count + 1;
  Mutex.unlock ctx.cm;
  Obs.Metrics.observe ctx.h_latency ms

(* Expected response for a query op, from the oracle row. *)
let expected ctx op (q : Proto.query) =
  match Hashtbl.find_opt ctx.oracle (q.Proto.instance, q.Proto.source) with
  | None -> None
  | Some row -> (
    match op with
    | `Foremost ->
      Some
        (Proto.Ok_value
           (if row.(q.Proto.target) = max_int then None
            else Some row.(q.Proto.target)))
    | `Arrivals -> Some (Proto.Ok_vector row)
    | `Reach ->
      let c = ref 0 in
      Array.iter (fun v -> if v <> max_int then incr c) row;
      Some (Proto.Ok_count !c)
    | `Ecc ->
      let m = ref 0 and unreachable = ref false in
      Array.iter
        (fun v -> if v = max_int then unreachable := true else m := max !m v)
        row;
      Some (Proto.Ok_value (if !unreachable then None else Some !m)))

let response_equal a b =
  match (a, b) with
  | Proto.Ok_vector x, Proto.Ok_vector y -> x = y
  | a, b -> a = b

let request_of op q =
  match op with
  | `Foremost -> Proto.Foremost q
  | `Arrivals -> Proto.Arrivals q
  | `Reach -> Proto.Reach q
  | `Ecc -> Proto.Ecc q

let op_name = function
  | `Foremost -> "foremost"
  | `Arrivals -> "arrivals"
  | `Reach -> "reach"
  | `Ecc -> "ecc"

(* One checked query.  [lenient] adds the load-shedding codes to the
   acceptable set (burst phases); [draining] additionally accepts
   Shutting_down and clean transport EOF (the SIGTERM phase). *)
let checked_query ctx ~phase ~lenient ~draining client op q =
  let t0 = Unix.gettimeofday () in
  let r = Client.call ~timeout_s:30. client (request_of op q) in
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  (match r with Ok _ -> note_latency ctx ms | Error _ -> ());
  match r with
  | Ok resp -> (
    match expected ctx op q with
    | None -> () (* query against a degraded instance: checked elsewhere *)
    | Some want ->
      let ok =
        response_equal resp want
        ||
        match resp with
        | Proto.Error (Proto.Resource_exhausted, _)
        | Proto.Error (Proto.Deadline_exceeded, _) ->
          lenient
        | Proto.Error (Proto.Shutting_down, _) -> draining
        | Proto.Error (Proto.Unavailable, _) -> ctx.kill_armed
        | _ -> false
      in
      check ctx ~phase ok
        (Printf.sprintf "%s %s src=%d tgt=%d: got %s, want %s" (op_name op)
           q.Proto.instance q.Proto.source q.Proto.target
           (Proto.render_response resp)
           (Proto.render_response want)))
  | Error m ->
    let clean_close = draining && m = Client.closed_by_server in
    check ctx ~phase clean_close
      (Printf.sprintf "%s %s src=%d: transport: %s" (op_name op)
         q.Proto.instance q.Proto.source m)

let q ?(target = 0) ?(deadline_ms = 0) instance source =
  { Proto.instance; source; target; deadline_ms }

(* A raw write for the drop and slow-loris phases.  SIGPIPE is ignored,
   so a server that closed first surfaces here as EPIPE/ECONNRESET: the
   dropped connection those phases expect, which their next read sees
   as EOF. *)
let raw_write fd s =
  try ignore (Unix.write_substring fd s 0 (String.length s))
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()

(* ------------------------------------------------------------------ *)
(* Phases *)

let phase_correctness ctx rng ~rounds =
  let phase = "correctness" in
  match Client.connect ctx.address with
  | Error m -> check ctx ~phase false ("connect: " ^ m)
  | Ok client ->
    let ops = [| `Foremost; `Arrivals; `Reach; `Ecc |] in
    for _ = 1 to rounds do
      let id, n =
        List.nth ctx.instances (Prng.Rng.int rng (List.length ctx.instances))
      in
      let src = Prng.Rng.int rng n in
      let tgt = Prng.Rng.int rng n in
      let op = ops.(Prng.Rng.int rng (Array.length ops)) in
      checked_query ctx ~phase ~lenient:false ~draining:false client op
        (q ~target:tgt id src)
    done;
    Client.close client

let phase_typed_errors ctx =
  let phase = "typed-errors" in
  let expect_error client req want detail =
    match Client.call client req with
    | Ok (Proto.Error (code, _)) when code = want -> check ctx ~phase true ""
    | Ok resp ->
      check ctx ~phase false
        (Printf.sprintf "%s: got %s" detail (Proto.render_response resp))
    | Error m -> check ctx ~phase false (Printf.sprintf "%s: %s" detail m)
  in
  match Client.connect ctx.address with
  | Error m -> check ctx ~phase false ("connect: " ^ m)
  | Ok client ->
    let id, n = List.hd ctx.instances in
    expect_error client
      (Proto.Foremost (q "nosuch" 0))
      Proto.Unknown_instance "unknown instance";
    expect_error client
      (Proto.Foremost (q "broken" 0))
      Proto.Unavailable "degraded instance";
    expect_error client
      (Proto.Foremost (q id n))
      Proto.Bad_arg "source out of range";
    expect_error client
      (Proto.Foremost (q ~target:n id 0))
      Proto.Bad_arg "target out of range";
    (* Raw malformed payloads: the framing stays in sync, so the reply
       must be typed and the connection must survive. *)
    let raw payload =
      let fd = Client.fd client in
      match
        Proto.write_frame fd payload;
        Proto.read_frame ~deadline_s:10. fd
      with
      | Proto.Frame reply -> Proto.decode_response reply
      | _ | (exception Unix.Unix_error _) -> Stdlib.Error "no reply frame"
    in
    (match raw "\xee" with
    | Ok (Proto.Error (Proto.Unknown_op, _)) -> check ctx ~phase true ""
    | other ->
      check ctx ~phase false
        (Printf.sprintf "unknown opcode: got %s"
           (match other with
           | Ok r -> Proto.render_response r
           | Error m -> m)));
    (match raw "\x10\x00" with
    | Ok (Proto.Error (Proto.Parse_error, _)) -> check ctx ~phase true ""
    | other ->
      check ctx ~phase false
        (Printf.sprintf "truncated payload: got %s"
           (match other with
           | Ok r -> Proto.render_response r
           | Error m -> m)));
    (* Still alive on the same connection? *)
    (match Client.call client Proto.Ping with
    | Ok Proto.Ok_empty -> check ctx ~phase true ""
    | other ->
      check ctx ~phase false
        (Printf.sprintf "ping after malformed payloads: %s"
           (match other with
           | Ok r -> Proto.render_response r
           | Error m -> m)));
    Client.close client

let ping_ok ctx ~phase detail =
  match Client.connect ctx.address with
  | Error m -> check ctx ~phase false (detail ^ ": connect: " ^ m)
  | Ok c ->
    (match Client.call c Proto.Ping with
    | Ok Proto.Ok_empty -> check ctx ~phase true ""
    | Ok r ->
      check ctx ~phase false
        (Printf.sprintf "%s: ping got %s" detail (Proto.render_response r))
    | Error m -> check ctx ~phase false (Printf.sprintf "%s: ping: %s" detail m));
    Client.close c

let phase_drops ctx =
  let phase = "drops" in
  (* Half a frame header, then abrupt close. *)
  (match Client.connect ctx.address with
  | Error m -> check ctx ~phase false ("connect: " ^ m)
  | Ok c ->
    let fd = Client.fd c in
    raw_write fd "\x00\x00";
    Client.close c);
  ping_ok ctx ~phase "after half-header drop";
  (* A declared length with no payload, then close. *)
  (match Client.connect ctx.address with
  | Error m -> check ctx ~phase false ("connect: " ^ m)
  | Ok c ->
    let fd = Client.fd c in
    raw_write fd "\x00\x00\x00\x08";
    Client.close c);
  ping_ok ctx ~phase "after headerless-payload drop";
  (* An oversized declaration: one Too_large frame, then closed. *)
  (match Client.connect ctx.address with
  | Error m -> check ctx ~phase false ("connect: " ^ m)
  | Ok c ->
    let fd = Client.fd c in
    raw_write fd "\x7f\xff\xff\xff";
    (match Proto.read_frame ~deadline_s:10. fd with
    | Proto.Frame reply -> (
      match Proto.decode_response reply with
      | Ok (Proto.Error (Proto.Too_large, _)) -> check ctx ~phase true ""
      | Ok r ->
        check ctx ~phase false
          (Printf.sprintf "oversized: got %s" (Proto.render_response r))
      | Error m -> check ctx ~phase false ("oversized: " ^ m))
    | Proto.Eof -> check ctx ~phase true "" (* close without reply: also clean *)
    | _ -> check ctx ~phase false "oversized: no reply and no close");
    Client.close c);
  ping_ok ctx ~phase "after oversized declaration"

let phase_slow_loris ctx =
  let phase = "slow-loris" in
  match Client.connect ctx.address with
  | Error m -> check ctx ~phase false ("connect: " ^ m)
  | Ok c ->
    let fd = Client.fd c in
    let hdr = Bytes.create 4 in
    Bytes.set_int32_be hdr 0
      (Int32.of_int (String.length (Proto.encode_request Proto.Ping)));
    raw_write fd (Bytes.to_string hdr);
    (* Trickle nothing past the header for longer than the read
       deadline; the server must close rather than hold the slot. *)
    let t0 = Unix.gettimeofday () in
    let closed =
      match Proto.read_frame ~deadline_s:(read_timeout_s *. 4.) fd with
      | Proto.Eof -> true
      | _ -> false
    in
    let waited = Unix.gettimeofday () -. t0 in
    check ctx ~phase closed
      (Printf.sprintf "stalled frame not closed after %.1fs" waited);
    check ctx ~phase
      (waited <= read_timeout_s *. 3.)
      (Printf.sprintf "close took %.1fs (timeout %.1fs)" waited read_timeout_s);
    Client.close c;
    ping_ok ctx ~phase "after loris connection"

let phase_overload ctx rng ~threads ~per_thread ~deadline_every =
  let phase = "overload" in
  let rngs = Prng.Rng.split_n rng threads in
  let workers =
    List.init threads (fun i ->
        Thread.create
          (fun () ->
            match Client.connect ctx.address with
            | Error m -> check ctx ~phase false ("connect: " ^ m)
            | Ok client ->
              let rng = rngs.(i) in
              let ops = [| `Foremost; `Arrivals; `Reach; `Ecc |] in
              for k = 1 to per_thread do
                let id, n =
                  List.nth ctx.instances
                    (Prng.Rng.int rng (List.length ctx.instances))
                in
                let src = Prng.Rng.int rng n in
                let op = ops.(Prng.Rng.int rng (Array.length ops)) in
                (* A sprinkle of aggressive deadlines provokes the
                   Deadline_exceeded path under load. *)
                let deadline_ms = if k mod deadline_every = 0 then 1 else 0 in
                checked_query ctx ~phase ~lenient:true ~draining:false client
                  op
                  (q ~target:(Prng.Rng.int rng n) ~deadline_ms id src)
              done;
              Client.close client)
          ())
  in
  List.iter Thread.join workers;
  (* The server must still account coherently after the burst. *)
  match Client.connect ctx.address with
  | Error m -> check ctx ~phase false ("post-burst connect: " ^ m)
  | Ok c ->
    (match Client.call c Proto.Stats with
    | Ok (Proto.Ok_text _) -> check ctx ~phase true ""
    | Ok r ->
      check ctx ~phase false
        (Printf.sprintf "post-burst stats: got %s" (Proto.render_response r))
    | Error m -> check ctx ~phase false ("post-burst stats: " ^ m));
    Client.close c

(* Sustained traffic while the router's shard-kill fault SIGKILLs live
   shards: every reply must still be oracle-correct or a clean typed
   error (Unavailable while the owning shard respawns), and the
   connection to the router itself must never die or desync. *)
let phase_shard_kill ctx rng ~threads ~per_thread =
  let phase = "shard-kill" in
  let rngs = Prng.Rng.split_n rng threads in
  let workers =
    List.init threads (fun i ->
        Thread.create
          (fun () ->
            match Client.connect ctx.address with
            | Error m -> check ctx ~phase false ("connect: " ^ m)
            | Ok client ->
              let rng = rngs.(i) in
              let ops = [| `Foremost; `Arrivals; `Reach; `Ecc |] in
              for _ = 1 to per_thread do
                let id, n =
                  List.nth ctx.instances
                    (Prng.Rng.int rng (List.length ctx.instances))
                in
                let src = Prng.Rng.int rng n in
                let op = ops.(Prng.Rng.int rng (Array.length ops)) in
                checked_query ctx ~phase ~lenient:true ~draining:false client
                  op
                  (q ~target:(Prng.Rng.int rng n) id src);
                (* Pace the burst so kills land mid-traffic rather
                   than between two instants of it. *)
                Thread.delay 0.005
              done;
              Client.close client)
          ())
  in
  List.iter Thread.join workers;
  ping_ok ctx ~phase "after shard-kill burst"

let phase_sigterm ctx rng ~pid ~threads ~per_thread =
  let phase = "sigterm" in
  let rngs = Prng.Rng.split_n rng threads in
  let workers =
    List.init threads (fun i ->
        Thread.create
          (fun () ->
            match Client.connect ctx.address with
            | Error m ->
              (* The listener may already be gone — that is a clean
                 refusal, not a violation. *)
              ignore m
            | Ok client ->
              let rng = rngs.(i) in
              let ops = [| `Foremost; `Reach; `Ecc |] in
              (try
                 for _ = 1 to per_thread do
                   let id, n =
                     List.nth ctx.instances
                       (Prng.Rng.int rng (List.length ctx.instances))
                   in
                   let src = Prng.Rng.int rng n in
                   let op = ops.(Prng.Rng.int rng (Array.length ops)) in
                   checked_query ctx ~phase ~lenient:true ~draining:true
                     client op
                     (q ~target:(Prng.Rng.int rng n) id src)
                 done
               with _ -> ());
              Client.close client)
          ())
  in
  (* Let the burst get airborne, then pull the trigger. *)
  Unix.sleepf 0.05;
  Unix.kill pid Sys.sigterm;
  List.iter Thread.join workers

(* ------------------------------------------------------------------ *)
(* Child-server management *)

let spawn_server ~exe ~args =
  let stdout_r, stdout_w = Unix.pipe () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: args))
      Unix.stdin stdout_w Unix.stderr
  in
  Unix.close stdout_w;
  (pid, stdout_r)

let wait_ready fd ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let buf = Buffer.create 64 in
  let b = Bytes.create 256 in
  let rec go () =
    if Buffer.contents buf |> String.split_on_char '\n'
       |> List.exists (fun l -> String.length l >= 5 && String.sub l 0 5 = "READY")
    then true
    else begin
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0. then false
      else
        match Unix.select [ fd ] [] [] remaining with
        | [], _, _ -> false
        | _ -> (
          match Unix.read fd b 0 256 with
          | 0 -> false
          | k ->
            Buffer.add_subbytes buf b 0 k;
            go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
    end
  in
  go ()

let wait_exit pid ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then None
      else begin
        Unix.sleepf 0.05;
        go ()
      end
    | _, Unix.WEXITED c -> Some c
    | _, Unix.WSIGNALED s -> Some (-s)
    | _, Unix.WSTOPPED _ ->
      Unix.sleepf 0.05;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let percentile_of sorted qv =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (qv *. float_of_int (n - 1) +. 0.5)))

(* ------------------------------------------------------------------ *)

(* Substring scan, used for both the schema tag and spec keys. *)
let contains body needle =
  let nl = String.length needle and bl = String.length body in
  let rec scan i = i + nl <= bl && (String.sub body i nl = needle || scan (i + 1)) in
  scan 0

let run ~exe ~dir ~seed ~quick ~fault_spec ~backend ~jobs ~shards =
  (* A write to a connection the server already closed must fail with
     EPIPE, not kill the soak. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Store.Fsio.ensure_dir dir;
  (* A sharded soak arms the shard-kill site unless the caller's spec
     already decided the rate: crash-respawn must run under live
     traffic, not just in unit tests.  The rate is low enough that a
     shard essentially never exhausts its respawn budget. *)
  let fault_spec =
    if shards <= 0 then fault_spec
    else
      match fault_spec with
      | Some s when contains s "shard-kill" -> Some s
      | Some s -> Some (s ^ ",shard-kill=0.008")
      | None -> Some (Printf.sprintf "seed=%d,shard-kill=0.008" seed)
  in
  let kill_armed =
    shards > 0
    && (match fault_spec with Some s -> contains s "shard-kill" | None -> false)
  in
  let n1, n2 = if quick then (32, 40) else (96, 128) in
  let manifest_path = Filename.concat dir "manifest.txt" in
  let socket_path = Filename.concat dir "serve.sock" in
  let ledger_path = Filename.concat dir "ledger.json" in
  let store_dir = Filename.concat dir "store" in
  let lines = manifest_lines ~n1 ~n2 ~seed in
  Store.Fsio.write_atomic manifest_path (String.concat "\n" lines ^ "\n");
  (* The oracle: rows computed in-process from the same specs.  The
     implicit backend is label-identical to the dense one, so this
     covers whichever backend the child serves. *)
  let corpus = Corpus.load ~backend:Sim.Backend.Implicit lines in
  let oracle = Hashtbl.create 512 in
  let instances =
    Corpus.available corpus
    |> List.map (fun (id, net) ->
           let n = Temporal.Tgraph.n net in
           for src = 0 to n - 1 do
             let arr = Temporal.Foremost.arrivals_borrowed net src in
             Hashtbl.add oracle (id, src) (Array.sub arr 0 n)
           done;
           (id, n))
  in
  if instances = [] then Stdlib.Error "soak corpus has no healthy instances"
  else begin
    let args =
      [
        "serve";
        "--socket"; socket_path;
        "--manifest"; manifest_path;
        "--backend"; Sim.Backend.to_string backend;
        "--jobs"; string_of_int jobs;
        "--queue-max"; string_of_int queue_max;
        "--read-timeout"; Printf.sprintf "%g" read_timeout_s;
        "--batch-window-ms"; "1";
        "--report"; ledger_path;
        "--store"; store_dir;
        "--seed"; string_of_int seed;
      ]
      @ (if shards > 0 then [ "--shards"; string_of_int shards ] else [])
      @ (match fault_spec with
        | Some s -> [ "--fault-spec"; s ]
        | None -> [])
    in
    let pid, child_out = spawn_server ~exe ~args in
    let ready = wait_ready child_out ~timeout_s:30. in
    if not ready then begin
      (try Unix.kill pid Sys.sigkill with _ -> ());
      ignore (wait_exit pid ~timeout_s:5.);
      (try Unix.close child_out with _ -> ());
      Stdlib.Error "server never announced READY"
    end
    else begin
      let ctx =
        {
          address = Frontend.Unix_path socket_path;
          oracle;
          instances;
          kill_armed;
          cm = Mutex.create ();
          checks = 0;
          violations = [];
          latencies = [];
          query_count = 0;
          c_checks = Obs.Metrics.counter "soak.checks";
          c_violations = Obs.Metrics.counter "soak.violations";
          h_latency = Obs.Metrics.histogram "soak.latency_ms";
        }
      in
      let rng = Prng.Rng.create seed in
      let t0 = Unix.gettimeofday () in
      phase_correctness ctx (Prng.Rng.split rng)
        ~rounds:(if quick then 60 else 300);
      phase_typed_errors ctx;
      phase_drops ctx;
      phase_slow_loris ctx;
      (* More clients than [queue_max] admission slots: with the
         1 ms coalescing window the queue genuinely overfills, so the
         Resource_exhausted path runs live, not just in unit tests. *)
      phase_overload ctx (Prng.Rng.split rng)
        ~threads:(if quick then 40 else 48)
        ~per_thread:(if quick then 8 else 25)
        ~deadline_every:7;
      if kill_armed then
        phase_shard_kill ctx (Prng.Rng.split rng) ~threads:4
          ~per_thread:(if quick then 120 else 250);
      phase_sigterm ctx (Prng.Rng.split rng) ~pid
        ~threads:(if quick then 3 else 6)
        ~per_thread:(if quick then 15 else 60);
      let wall_s = Unix.gettimeofday () -. t0 in
      let server_exit = wait_exit pid ~timeout_s:30. in
      (match server_exit with
      | Some 0 -> check ctx ~phase:"exit" true ""
      | Some c ->
        check ctx ~phase:"exit" false
          (Printf.sprintf "server exited %d, want 0" c)
      | None ->
        (try Unix.kill pid Sys.sigkill with _ -> ());
        ignore (wait_exit pid ~timeout_s:5.);
        check ctx ~phase:"exit" false "server hung after SIGTERM; killed");
      (try Unix.close child_out with _ -> ());
      (* The ledger must have been published atomically on drain:
         present, schema-tagged, queue peak within the bound. *)
      let ledger_ok =
        match Store.Fsio.read_file ledger_path with
        | None ->
          check ctx ~phase:"ledger" false "ledger not published";
          false
        | Some body ->
          let has_schema =
            let needle = "ephemeral-serve-ledger" in
            let nl = String.length needle and bl = String.length body in
            let rec scan i =
              i + nl <= bl && (String.sub body i nl = needle || scan (i + 1))
            in
            scan 0
          in
          check ctx ~phase:"ledger" has_schema "ledger missing schema tag";
          let peak_ok =
            match
              String.split_on_char '\n' body
              |> List.find_opt (fun l ->
                     String.length l > 0
                     &&
                     let t = String.trim l in
                     String.length t > 13 && String.sub t 0 13 = {|"queue_peak":|})
            with
            | None -> false
            | Some l -> (
              let t = String.trim l in
              let v =
                String.sub t 13 (String.length t - 13)
                |> String.map (fun c -> if c = ',' then ' ' else c)
                |> String.trim
              in
              match int_of_string_opt v with
              | Some p -> p <= queue_max
              | None -> false)
          in
          check ctx ~phase:"ledger" peak_ok
            (Printf.sprintf "queue_peak missing or above bound %d" queue_max);
          has_schema && peak_ok
      in
      let lat = Array.of_list ctx.latencies in
      Array.sort compare lat;
      Stdlib.Ok
        {
          checks = ctx.checks;
          violations = List.rev ctx.violations;
          queries = ctx.query_count;
          p50_ms = percentile_of lat 0.5;
          p99_ms = percentile_of lat 0.99;
          qps =
            (if wall_s > 0. then float_of_int ctx.query_count /. wall_s
             else 0.);
          server_exit;
          ledger_ok;
        }
    end
  end
