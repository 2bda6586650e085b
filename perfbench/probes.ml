(* The serve path's per-layer probes, made from the benchmark's own
   code during the traced run.  Each probe times one public entry
   point of a layer in a span: Serve.Corpus.load, Tgraph.materialize,
   Serve.Engine submit/process_pending/await, the Proto codecs,
   Store.Objects.put, and PING/query round trips against the real
   `ephemeral serve` binary, single-process and sharded behind its
   router.  Open-loop traffic on the single-process server then gives
   the engine's STATS counters and the load generator's lateness. *)

module Proto = Serve.Proto
module Span = Obs.Span
module Engine = Serve.Engine

type servers = {
  single : Rpc.server;
  router : Rpc.server;
}

(* One query of the probe traffic, and the arrival row that answers it. *)
type req = { op : Oracle.op; payload : string; row : int array }

let arrivals_share = 10  (* one query in ten asks for the full row *)

let make_req st ~instance ~n ~src ~row =
  let op =
    if Random.State.int st arrivals_share = 0 then Oracle.Arrivals
    else Oracle.Foremost ((src + 1 + Random.State.int st (n - 1)) mod n)
  in
  { op; payload = Oracle.request ~instance ~source:src op; row }

let spans name k f =
  for i = 1 to k do
    ignore (Spans.under (Printf.sprintf "%s-%d" name i) (fun () -> f i))
  done

let must verdict what =
  match verdict with
  | Loadgen.Ok -> ()
  | Loadgen.Wrong m | Loadgen.Failed m -> Out.fail "%s: %s" what m

let engine_row e ~instance ~source =
  match Engine.submit e ~instance ~source () with
  | Engine.Rejected (_, m) -> Out.fail "engine refused %s/%d: %s" instance source m
  | Engine.Admitted ticket -> (
    Engine.process_pending e;
    match Engine.await ticket with
    | Engine.Row r -> r
    | Engine.Err (_, m) -> Out.fail "engine failed %s/%d: %s" instance source m)

(* The in-process and round-trip probes.  The codec probe runs on
   [frames], the hop probe sends the first of them to [instance]. *)
let layers ~dir ~lines ~backend ~instance ~frames ~servers =
  let corpus =
    Span.with_span "corpus.load" (fun () -> Serve.Corpus.load ~backend lines)
  in
  if Serve.Corpus.degraded corpus then Out.fail "probe corpus failed to load";
  let id0, net0 = List.hd (Serve.Corpus.available corpus) in
  let spec0 =
    match (List.hd (Serve.Corpus.instances corpus)).Serve.Corpus.spec with
    | Some s -> s
    | None -> Out.fail "probe corpus has no spec"
  in
  (* Materialize the implicit twin of the first instance; the twin must
     answer source 0 exactly as the corpus instance does. *)
  (match (Serve.Corpus.load_spec Sim.Backend.Implicit spec0).Serve.Corpus.status with
  | Serve.Corpus.Available lazy_net ->
    for i = 1 to 3 do
      let dense =
        Spans.under (Printf.sprintf "materialize-%d" i) (fun () ->
            Span.with_span "tgraph.materialize" (fun () ->
                Temporal.Tgraph.materialize lazy_net))
      in
      if i = 1 && Oracle.scalar_row dense 0 <> Oracle.scalar_row net0 0 then
        Out.fail "materialized twin disagrees with the corpus instance"
    done
  | Serve.Corpus.Failed m -> Out.fail "implicit twin failed to load: %s" m);
  (* Engine, in-process, no store: a miss sweeps, the repeat hits. *)
  let engine = Engine.create ~config:{ Engine.default_config with Engine.store = None } corpus in
  let n = Temporal.Tgraph.n net0 in
  List.iteri
    (fun i source ->
      let oracle = Oracle.scalar_row net0 source in
      let miss =
        Spans.under (Printf.sprintf "engine-%d" i) (fun () ->
            Span.with_span "engine.miss" (fun () -> engine_row engine ~instance:id0 ~source))
      in
      let hit =
        Spans.under (Printf.sprintf "engine-%d" i) (fun () ->
            Span.with_span "engine.hit" (fun () -> engine_row engine ~instance:id0 ~source))
      in
      if miss <> oracle || hit <> oracle then
        Out.fail "in-process engine row for %s/%d disagrees with the oracle" id0 source)
    (List.init 16 (fun i -> i * (n / 16)));
  (* Proto codecs on the probe traffic's frames: request and response,
     encode and decode, each round trip checked. *)
  let nf = Array.length frames in
  let responses = Array.map (fun f -> Proto.encode_response (Oracle.expected f.row f.op)) frames in
  let per_span = 2000 in
  spans "codec" 7 (fun _ ->
      Span.with_span "proto.codec" (fun () ->
          for k = 0 to per_span - 1 do
            let f = frames.(k mod nf) in
            (match Proto.decode_request f.payload with
            | Ok req ->
              if Proto.encode_request req <> f.payload then
                Out.fail "request frame does not round-trip"
            | Error _ -> Out.fail "request frame does not decode");
            match Proto.decode_response responses.(k mod nf) with
            | Ok r ->
              if Proto.encode_response r <> responses.(k mod nf) then
                Out.fail "response frame does not round-trip"
            | Error _ -> Out.fail "response frame does not decode"
          done));
  (* Durable publish of one encoded row's worth of bytes. *)
  let store = Store.Objects.open_ ~dir:(Filename.concat dir "put-store") in
  let payload = Proto.encode_response (Proto.Ok_vector (Oracle.scalar_row net0 0)) in
  spans "put" 24 (fun i ->
      Span.with_span "store.put" (fun () ->
          ignore (Store.Objects.put store ~key:(Printf.sprintf "probe-%d" i) ~meta:[] payload)));
  (match Store.Objects.get store ~key:"probe-1" with
  | Some (bytes, _) when bytes = payload -> ()
  | _ -> Out.fail "store did not return the published row");
  (* Front ends: PING round trips, and one warm query through the
     router against the same query sent straight to its shard. *)
  let rounds = 300 in
  let ping name (s : Rpc.server) =
    let c = Rpc.connect s.Rpc.socket in
    Fun.protect
      ~finally:(fun () -> Serve.Client.close c)
      (fun () ->
        let ping = Proto.encode_request Proto.Ping in
        spans name rounds (fun _ ->
            Span.with_span name (fun () -> ignore (Rpc.call_raw c ping))))
  in
  ping "server.ping" servers.single;
  ping "router.ping" servers.router;
  let f = frames.(0) in
  let owner = Serve.Corpus.shard_of ~shards:servers.router.Rpc.shards instance in
  let via = Rpc.connect servers.router.Rpc.socket in
  let direct = Rpc.connect (Serve.Shard.socket_path servers.router.Rpc.socket owner) in
  Fun.protect
    ~finally:(fun () -> Serve.Client.close via; Serve.Client.close direct)
    (fun () ->
      must (Oracle.check ~row:f.row f.op (Rpc.call_raw via f.payload)) "router warm-up";
      spans "hop" (3 * rounds) (fun _ ->
          must
            (Oracle.check ~row:f.row f.op
               (Span.with_span "router.via" (fun () -> Rpc.call_raw via f.payload)))
            "query via router";
          must
            (Oracle.check ~row:f.row f.op
               (Span.with_span "router.direct" (fun () -> Rpc.call_raw direct f.payload)))
            "query to owning shard"))

(* ---- the serve side of a traced run ------------------------------ *)

(* Probe traffic: 600 queries at 600 q/s over 16 sources of the
   instance.  The generator has fallen behind only when it is
   typically late: host stalls delay single sends, and latency from
   the due time already charges those. *)
let traffic = 600
let rate = 600.
let late_limit_ms = 50.

type outcome = {
  late_ms : float array;
  before : Serve.Ledger.volatile;  (** STATS before the traffic *)
  after : Serve.Ledger.volatile;
}

let judge acc (r : Loadgen.open_result) =
  Option.iter (fun m -> Out.fail "oracle mismatch on a probe reply: %s" m) r.Loadgen.first_wrong;
  Out.count acc ~attempted:traffic ~failed:(r.Loadgen.wrong + r.Loadgen.failed);
  let typical = Stats.Quantile.median r.Loadgen.late_ms in
  if typical > late_limit_ms then
    Out.fail "load generator fell behind: median lateness %.3f ms over the %.0f ms limit; run invalid"
      typical late_limit_ms;
  Out.note "probe traffic: %d sent, %d correct, %d failed; median latency %.4f ms, median lateness %.4f ms"
    traffic r.Loadgen.ok r.Loadgen.failed
    (if r.Loadgen.latency_ms = [||] then nan else Stats.Quantile.median r.Loadgen.latency_ms)
    typical

(* Start a single-process server and a two-shard router over the
   manifest [line], probe every layer, send the probe traffic, and
   drain both servers cleanly. *)
let run acc ~exe ~dir ~instance ~line ~backend ~seed ~n =
  let lines = [ line ] in
  let manifest_path = Filename.concat dir "probe-manifest" in
  Rpc.write_manifest manifest_path lines;
  let started = ref [] in
  let start tag shards =
    let s = Rpc.start ~exe ~dir ~tag ~manifest_path ~backend ~shards in
    started := s :: !started;
    s
  in
  Fun.protect
    ~finally:(fun () -> List.iter Rpc.kill_if_running !started)
    (fun () ->
      let servers = { single = start "probe-single" 0; router = start "probe-router" 2 } in
      let net =
        match Serve.Corpus.available (Serve.Corpus.load ~backend lines) with
        | [ (_, net) ] -> net
        | _ -> Out.fail "probe corpus failed to load"
      in
      let st = Random.State.make [| seed; 0x9b0 |] in
      let sources = Array.init 16 (fun _ -> Random.State.int st n) in
      let rows = Hashtbl.create 16 in
      let row s =
        match Hashtbl.find_opt rows s with
        | Some r -> r
        | None ->
          let r = Oracle.scalar_row net s in
          Hashtbl.add rows s r;
          r
      in
      let reqs =
        Array.init traffic (fun _ ->
            let src = sources.(Random.State.int st (Array.length sources)) in
            make_req st ~instance ~n ~src ~row:(row src))
      in
      layers ~dir ~lines ~backend ~instance ~frames:(Array.sub reqs 0 64) ~servers;
      let single = servers.single in
      let before = Rpc.stats single.Rpc.socket in
      let conns = [| Rpc.connect single.Rpc.socket; Rpc.connect single.Rpc.socket |] in
      let r =
        Fun.protect
          ~finally:(fun () -> Array.iter Serve.Client.close conns)
          (fun () ->
            Loadgen.open_loop ~fds:(Array.map Serve.Client.fd conns)
              ~payloads:(Array.map (fun q -> q.payload) reqs) ~rate
              ~check:(fun j reply -> Oracle.check ~row:reqs.(j).row reqs.(j).op reply))
      in
      judge acc r;
      let after = Rpc.stats single.Rpc.socket in
      Rpc.stop servers.router;
      Rpc.stop single;
      { late_ms = r.Loadgen.late_ms; before; after })

(* Per-layer values of the probe spans, the engine counters as STATS
   deltas over the probe traffic, and the generator's lateness. *)
let report acc selfs o =
  let ms x = x /. 1e6 and us x = x /. 1e3 in
  Out.add acc "corpus.load_s" (Spans.median_dur "corpus.load" selfs /. 1e9) "s";
  Out.add acc "tgraph.materialize_ms" (ms (Spans.median_dur "tgraph.materialize" selfs)) "ms";
  Out.add acc "proto.codec_ns" (Spans.median_dur "proto.codec" selfs /. 2000.) "ns";
  Out.add acc "engine.hit_us" (us (Spans.median_dur "engine.hit" selfs)) "us";
  Out.add acc "engine.miss_us" (us (Spans.median_dur "engine.miss" selfs)) "us";
  Out.add acc "store.put_us" (us (Spans.median_dur "store.put" selfs)) "us";
  Out.add acc "server.ping_us" (us (Spans.median_dur "server.ping" selfs)) "us";
  Out.add acc "router.ping_us" (us (Spans.median_dur "router.ping" selfs)) "us";
  (* Each round sends the query through the router, then straight to
     its shard; the hop is the median of the paired differences, so a
     drift in host speed cancels within a pair. *)
  let direct = Hashtbl.create 1024 in
  List.iter
    (fun ((r : Span.record), _) ->
      if Spans.leaf r.Span.name = "router.direct" then
        Hashtbl.replace direct (Spans.parent r.Span.name) r.Span.dur_ns)
    selfs;
  let hops =
    List.filter_map
      (fun ((r : Span.record), _) ->
        if Spans.leaf r.Span.name <> "router.via" then None
        else
          Option.map
            (fun d -> Int64.to_float (Int64.sub r.Span.dur_ns d))
            (Hashtbl.find_opt direct (Spans.parent r.Span.name)))
      selfs
  in
  if hops = [] then Out.fail "trace has no router hop pairs";
  Out.add acc "router.hop_us" (us (Stats.Quantile.median (Array.of_list hops))) "us";
  let d f = f o.after - f o.before in
  let queries = d (fun v -> v.Serve.Ledger.queries) in
  let hits = d (fun v -> v.Serve.Ledger.cache_hits) in
  let store_hits = d (fun v -> v.Serve.Ledger.store_hits) in
  let sweeps = d (fun v -> v.Serve.Ledger.sweeps) in
  if queries <= 0 then Out.fail "STATS counted no queries over the probe traffic";
  Out.add acc "engine.cache_hit_ratio" (float_of_int hits /. float_of_int queries) "ratio";
  Out.add acc "engine.rows_per_sweep"
    (if sweeps = 0 then 0. else float_of_int (queries - hits - store_hits) /. float_of_int sweeps)
    "rows";
  Out.add acc "engine.queue_peak" (float_of_int o.after.Serve.Ledger.queue_peak) "count";
  Out.add acc "engine.shed" (float_of_int (d (fun v -> v.Serve.Ledger.shed))) "count";
  Out.add acc "engine.expired" (float_of_int (d (fun v -> v.Serve.Ledger.expired))) "count";
  match Pct.windowed_tail o.late_ms ~size:200 with
  | None -> Out.fail "too few probe requests for a lateness tail"
  | Some (v, _, _) -> Out.add acc "loadgen.late_ms" v "ms"
