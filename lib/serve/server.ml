(* The single-process `ephemeral serve`: the {!Frontend} over a local
   backend — one {!Engine} answering every query op in this process.

   Degraded mode: a corpus with failed instances still serves — LIST
   shows them as failed, queries against them answer [Unavailable],
   HEALTH says "degraded".  Only an entirely-unhealthy corpus makes
   READY answer [Unavailable]. *)

type address = Frontend.address = Unix_path of string | Tcp of string * int

type config = {
  address : address;
  read_timeout_s : float;  (** per-frame deadline on connection reads *)
  engine : Engine.config;
  ledger_path : string option;  (** published atomically on drain *)
}

let default_config =
  {
    address = Unix_path "ephemeral.sock";
    read_timeout_s = 10.;
    engine = Engine.default_config;
    ledger_path = None;
  }

(* ------------------------------------------------------------------ *)
(* Query ops: every one is a readout of one (instance, source) row *)

let max_vector = (Proto.max_frame - 16) / 4

let handle_query engine (q : Proto.query) readout =
  let deadline_s =
    if q.Proto.deadline_ms > 0 then
      Some (float_of_int q.Proto.deadline_ms /. 1000.)
    else None
  in
  match
    Engine.submit engine ~instance:q.Proto.instance ~source:q.Proto.source
      ?deadline_s ()
  with
  | Engine.Rejected (code, msg) -> Proto.Error (code, msg)
  | Engine.Admitted ticket -> (
    match Engine.await ticket with
    | Engine.Err (code, msg) -> Proto.Error (code, msg)
    | Engine.Row row -> readout row)

let query engine payload =
  match Proto.decode_request payload with
  | Error (code, msg) -> Proto.Error (code, msg)
  | Ok (Proto.Foremost q) ->
    handle_query engine q (fun row ->
        if q.Proto.target < 0 || q.Proto.target >= Array.length row then
          Proto.Error
            ( Proto.Bad_arg,
              Printf.sprintf "target %d out of range [0, %d)" q.Proto.target
                (Array.length row) )
        else
          Proto.Ok_value
            (if row.(q.Proto.target) = max_int then None
             else Some row.(q.Proto.target)))
  | Ok (Proto.Arrivals q) ->
    handle_query engine q (fun row ->
        if Array.length row > max_vector then
          Proto.Error
            ( Proto.Too_large,
              Printf.sprintf "arrival vector of %d entries exceeds frame limit"
                (Array.length row) )
        else Proto.Ok_vector row)
  | Ok (Proto.Reach q) ->
    handle_query engine q (fun row ->
        let c = ref 0 in
        Array.iter (fun v -> if v <> max_int then incr c) row;
        Proto.Ok_count !c)
  | Ok (Proto.Ecc q) ->
    handle_query engine q (fun row ->
        let m = ref 0 and unreachable = ref false in
        Array.iter
          (fun v -> if v = max_int then unreachable := true else m := max !m v)
          row;
        Proto.Ok_value (if !unreachable then None else Some !m))
  | Ok (Proto.Ping | Proto.Health | Proto.Ready | Proto.List | Proto.Stats) ->
    (* Unreachable: the front-end answers control ops itself. *)
    Proto.Error (Proto.Internal, "control op reached query path")

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

(* Bound listener over a started engine: what both entry points serve. *)
let local config corpus =
  let engine = Engine.create ~config:config.engine corpus in
  let tallies () = Ledger.of_stats (Engine.stats engine) in
  let fe =
    Frontend.create ~address:config.address
      ~read_timeout_s:config.read_timeout_s ~ledger_path:config.ledger_path
      {
        Frontend.kind = Corpus.backend corpus;
        queue_max = config.engine.Engine.queue_max;
        rows = (fun () -> Corpus.list_rows corpus);
        open_conn = ignore;
        close_conn = ignore;
        query =
          (fun () payload _ -> Proto.encode_response (query engine payload));
        stats = tallies;
        (* Every admitted job is answered before connections are shut
           down, so pending replies complete. *)
        quiesce = (fun () -> Engine.drain engine);
        final = tallies;
      }
  in
  Engine.start engine;
  fe

let run ?(config = default_config) corpus = Frontend.run (local config corpus)

let run_background ?(config = default_config) corpus =
  Frontend.run_background (local config corpus)
