(* lib/serve: wire protocol codecs and framing, manifest corpus, the
   batching query engine's robustness contract (admission bound,
   deadlines, drain-flush, caches), and a live in-process server —
   plus the retry/shutdown/store regressions that ride with it:
   deterministic backoff jitter and retry budgets, the
   register-during-drain race, and concurrent quarantine recovery. *)

open Helpers
module Proto = Serve.Proto
module Corpus = Serve.Corpus
module Engine = Serve.Engine
module Server = Serve.Server
module Client = Serve.Client
module Objects = Store.Objects

let check_string = Alcotest.(check string)

(* Fresh scratch directory per test; best-effort removal. *)
let with_tmp_dir f =
  let dir = Filename.temp_file "ephemeral-test" ".serve" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> Store.Fsio.remove_tree dir) (fun () -> f dir)

let flip_byte path pos =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let bytes = really_input_string ic len in
  close_in ic;
  let b = Bytes.of_string bytes in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let count_files dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.length (Sys.readdir dir)
  else 0

(* ------------------------------------------------------------------ *)
(* Protocol codecs *)

let q ?(target = 0) ?(deadline_ms = 0) instance source =
  { Proto.instance; source; target; deadline_ms }

let request_roundtrip () =
  let reqs =
    [
      Proto.Ping; Proto.Health; Proto.Ready; Proto.List; Proto.Stats;
      Proto.Foremost (q "clq" 3 ~target:7 ~deadline_ms:250);
      Proto.Arrivals (q "a-b" 0);
      Proto.Reach (q "x" 12 ~deadline_ms:1);
      Proto.Ecc (q "star16" 15);
    ]
  in
  List.iter
    (fun r ->
      match Proto.decode_request (Proto.encode_request r) with
      | Stdlib.Ok r' -> check_bool "request round-trips" true (r = r')
      | Stdlib.Error (_, m) -> Alcotest.failf "decode failed: %s" m)
    reqs

let response_roundtrip () =
  let resps =
    [
      Proto.Ok_empty;
      Proto.Ok_value (Some 42);
      Proto.Ok_value None;
      Proto.Ok_count 0;
      Proto.Ok_count 100_000;
      Proto.Ok_vector [||];
      Proto.Ok_vector [| 0; 17; max_int; 3; max_int |];
      Proto.Ok_list [ ("clq", "available", "n=8 a=8 dense"); ("bad", "failed", "bad spec: missing id") ];
      Proto.Ok_list [];
      Proto.Ok_text "queries=12 shed=0";
      Proto.Error (Proto.Resource_exhausted, "queue full");
      Proto.Error (Proto.Deadline_exceeded, "");
    ]
  in
  List.iter
    (fun r ->
      match Proto.decode_response (Proto.encode_response r) with
      | Stdlib.Ok r' -> check_bool "response round-trips" true (r = r')
      | Stdlib.Error m -> Alcotest.failf "decode failed: %s" m)
    resps

let all_error_codes =
  [
    Proto.Parse_error; Proto.Unknown_op; Proto.Unknown_instance;
    Proto.Unavailable; Proto.Resource_exhausted; Proto.Deadline_exceeded;
    Proto.Shutting_down; Proto.Too_large; Proto.Bad_arg; Proto.Internal;
  ]

let error_code_roundtrip () =
  List.iter
    (fun c ->
      match Proto.decode_response (Proto.encode_response (Proto.Error (c, "m"))) with
      | Stdlib.Ok (Proto.Error (c', "m")) ->
        check_bool
          (Printf.sprintf "code %s survives" (Proto.error_code_to_string c))
          true (c = c')
      | _ -> Alcotest.fail "error response did not round-trip")
    all_error_codes

let decode_rejects_garbage () =
  (match Proto.decode_request "\xee" with
  | Stdlib.Error (Proto.Unknown_op, _) -> ()
  | _ -> Alcotest.fail "unknown opcode must be Unknown_op");
  (match Proto.decode_request "\x10\x00" with
  | Stdlib.Error (Proto.Parse_error, _) -> ()
  | _ -> Alcotest.fail "truncated query must be Parse_error");
  (match Proto.decode_request "" with
  | Stdlib.Error (Proto.Parse_error, _) -> ()
  | _ -> Alcotest.fail "empty request must be Parse_error");
  (match Proto.decode_request (Proto.encode_request Proto.Ping ^ "\x00") with
  | Stdlib.Error (Proto.Parse_error, _) -> ()
  | _ -> Alcotest.fail "trailing bytes must be Parse_error");
  (match Proto.decode_response (Proto.encode_response Proto.Ok_empty ^ "!") with
  | Stdlib.Error _ -> ()
  | Stdlib.Ok _ -> Alcotest.fail "trailing response bytes must fail");
  match Proto.decode_response "" with
  | Stdlib.Error _ -> ()
  | Stdlib.Ok _ -> Alcotest.fail "empty response must fail"

let render_deterministic () =
  check_string "value" (Proto.render_response (Proto.Ok_value (Some 3)))
    (Proto.render_response (Proto.Ok_value (Some 3)));
  check_bool "unreachable renders as dash" true
    (contains (Proto.render_response (Proto.Ok_value None)) "-");
  check_bool "vector sentinel renders as dash" true
    (contains (Proto.render_response (Proto.Ok_vector [| 1; max_int |])) "-")

(* ------------------------------------------------------------------ *)
(* Framing over a socketpair *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let frame_roundtrip () =
  with_socketpair (fun a b ->
      Proto.write_frame a "hello";
      Proto.write_frame a "";
      (match Proto.read_frame ~deadline_s:2. b with
      | Proto.Frame s -> check_string "payload" "hello" s
      | _ -> Alcotest.fail "expected a frame");
      match Proto.read_frame ~deadline_s:2. b with
      | Proto.Frame s -> check_string "empty payload" "" s
      | _ -> Alcotest.fail "expected the empty frame")

let frame_eof () =
  with_socketpair (fun a b ->
      Unix.close a;
      match Proto.read_frame ~deadline_s:2. b with
      | Proto.Eof -> ()
      | _ -> Alcotest.fail "closed peer must read Eof")

let frame_timeout () =
  with_socketpair (fun a b ->
      (* Half a header, then silence: the slow-loris read must give up
         at its deadline rather than block. *)
      let n = Unix.write_substring a "\x00\x00" 0 2 in
      check_int "partial header written" 2 n;
      let t0 = Unix.gettimeofday () in
      match Proto.read_frame ~deadline_s:0.1 b with
      | Proto.Timeout ->
        check_bool "returned promptly" true (Unix.gettimeofday () -. t0 < 2.)
      | _ -> Alcotest.fail "stalled frame must time out")

let frame_oversized () =
  with_socketpair (fun a b ->
      (* A header declaring max_frame + 1 bytes; the reader must refuse
         before allocating the payload. *)
      let declared = Proto.max_frame + 1 in
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 (Int32.of_int declared);
      ignore (Unix.write a hdr 0 4);
      (match Proto.read_frame ~deadline_s:2. b with
      | Proto.Oversized n -> check_int "declared length" declared n
      | _ -> Alcotest.fail "oversized declaration must be refused");
      Alcotest.check_raises "oversized write refused"
        (Invalid_argument "Proto.write_frame: payload too large")
        (fun () -> Proto.write_frame a (String.make (Proto.max_frame + 1) 'x')))

(* ------------------------------------------------------------------ *)
(* Codec properties: encode∘decode = id over generated values, and no
   truncation of a valid payload ever parses — a payload that peeks an
   instance reaches the backend (in sharded mode, the owning shard's
   decoder), so rejection behaviour is part of the sharded
   byte-identity contract. *)

let gen_query =
  QCheck2.Gen.(
    let* instance = string_size (int_range 0 48) in
    let* source = int_range 0 0xFFFF in
    let* target = int_range 0 0xFFFF in
    let+ deadline_ms = int_range 0 1_000_000 in
    { Proto.instance; source; target; deadline_ms })

let gen_request =
  QCheck2.Gen.(
    let* q = gen_query in
    oneofl
      [
        Proto.Ping; Proto.Health; Proto.Ready; Proto.List; Proto.Stats;
        Proto.Foremost q; Proto.Arrivals q; Proto.Reach q; Proto.Ecc q;
      ])

let gen_response =
  QCheck2.Gen.(
    let small = string_size (int_range 0 32) in
    (* u32 codomain with the unreachable sentinel sprinkled in. *)
    let cell = map (fun x -> if x mod 7 = 0 then max_int else x) (int_range 0 100_000) in
    oneof
      [
        return Proto.Ok_empty;
        map (fun v -> Proto.Ok_value v) (option (int_range 0 1_000_000));
        map (fun k -> Proto.Ok_count k) (int_range 0 10_000_000);
        map (fun l -> Proto.Ok_vector (Array.of_list l))
          (list_size (int_range 0 24) cell);
        map (fun rows -> Proto.Ok_list rows)
          (list_size (int_range 0 6) (triple small small small));
        map (fun s -> Proto.Ok_text s) small;
        map2 (fun c m -> Proto.Error (c, m)) (oneofl all_error_codes) small;
      ])

let prop_request_roundtrip r =
  match Proto.decode_request (Proto.encode_request r) with
  | Stdlib.Ok r' -> r = r'
  | Stdlib.Error (_, m) -> QCheck2.Test.fail_reportf "decode failed: %s" m

let prop_response_roundtrip r =
  match Proto.decode_response (Proto.encode_response r) with
  | Stdlib.Ok r' -> r = r'
  | Stdlib.Error m -> QCheck2.Test.fail_reportf "decode failed: %s" m

(* Every strict prefix of a valid request payload must be rejected —
   there is no valid payload that is also a prefix of a longer one. *)
let prop_request_prefix_rejected r =
  let enc = Proto.encode_request r in
  let ok = ref true in
  for len = 0 to String.length enc - 1 do
    match Proto.decode_request (String.sub enc 0 len) with
    | Stdlib.Error _ -> ()
    | Stdlib.Ok _ -> ok := false
  done;
  (* ...and so must trailing garbage after a complete one. *)
  (match Proto.decode_request (enc ^ "\x00") with
  | Stdlib.Error (Proto.Parse_error, _) -> ()
  | _ -> ok := false);
  !ok

let prop_response_prefix_rejected r =
  let enc = Proto.encode_response r in
  let ok = ref true in
  for len = 0 to String.length enc - 1 do
    match Proto.decode_response (String.sub enc 0 len) with
    | Stdlib.Error _ -> ()
    | Stdlib.Ok _ -> ok := false
  done;
  !ok

(* The router's routing key agrees with the full decoder: queries peek
   their instance id, control ops peek nothing. *)
let prop_peek_agrees r =
  let peeked = Proto.peek_instance (Proto.encode_request r) in
  match r with
  | Proto.Foremost q | Proto.Arrivals q | Proto.Reach q | Proto.Ecc q ->
    peeked = Some q.Proto.instance
  | _ -> peeked = None

(* Hand-built rejection vectors: payloads that lie about their instance
   length, or stop mid-operand. *)
let query_truncation_vectors () =
  let mk op k body =
    Printf.sprintf "%c%c%c%s" (Char.chr op)
      (Char.chr ((k lsr 8) land 0xff))
      (Char.chr (k land 0xff))
      body
  in
  List.iter
    (fun op ->
      (* Declared instance length runs past the payload. *)
      (match Proto.decode_request (mk op 9 "short") with
      | Stdlib.Error (Proto.Parse_error, _) -> ()
      | _ -> Alcotest.failf "op %#x: lying length must be Parse_error" op);
      check_bool
        (Printf.sprintf "op %#x: peek refuses the lying length" op)
        true
        (Proto.peek_instance (mk op 9 "short") = None);
      (* Maximal u16 length on a near-empty payload. *)
      (match Proto.decode_request (mk op 0xFFFF "x") with
      | Stdlib.Error (Proto.Parse_error, _) -> ()
      | _ -> Alcotest.failf "op %#x: oversize length must be Parse_error" op);
      (* Instance present, u32 operands missing. *)
      match Proto.decode_request (mk op 2 "ab") with
      | Stdlib.Error (Proto.Parse_error, _) -> ()
      | _ -> Alcotest.failf "op %#x: missing operands must be Parse_error" op)
    [ 0x10; 0x11; 0x12; 0x13 ]

(* ------------------------------------------------------------------ *)
(* Corpus: spec parsing and degraded loading *)

let spec_defaults () =
  match Corpus.parse_spec "id=clq,family=clique,n=8" with
  | Stdlib.Ok s ->
    check_string "id" "clq" s.Corpus.id;
    check_int "a defaults to n" 8 s.Corpus.a;
    check_int "r defaults to 1" 1 s.Corpus.r;
    check_int "seed defaults to 1" 1 s.Corpus.seed;
    check_string "canonical form" "id=clq,family=clique,n=8,a=8,r=1,seed=1"
      (Corpus.spec_to_string s)
  | Stdlib.Error m -> Alcotest.failf "parse failed: %s" m

let spec_errors () =
  let expect_err line =
    match Corpus.parse_spec line with
    | Stdlib.Error _ -> ()
    | Stdlib.Ok _ -> Alcotest.failf "%S must not parse" line
  in
  expect_err "family=clique,n=8";           (* missing id *)
  expect_err "id=x,family=clique";          (* missing n *)
  expect_err "id=x,family=clique,n=0";      (* non-positive n *)
  expect_err "id=x,family=nope,n=4";        (* unknown family *)
  expect_err "id=x,family=clique,n=four";   (* non-integer *)
  expect_err "id=x,family=clique,n=4,n=5";  (* duplicate key *)
  expect_err "id=x,family=clique,n=4,z=1";  (* unknown key *)
  expect_err "id=x,family=clique,n=4,r=0";  (* r < 1 *)
  expect_err "just words"                   (* not key=value at all *)

let degraded_load () =
  let corpus =
    Corpus.load ~backend:Sim.Backend.Implicit
      [
        "# comment";
        "";
        "id=ok,family=path,n=5,seed=2";
        "id=bad,family=clique,n=0";
        "total garbage";
      ]
  in
  check_bool "degraded" true (Corpus.degraded corpus);
  check_bool "still healthy" true (Corpus.healthy corpus);
  check_int "three instances" 3 (List.length (Corpus.instances corpus));
  (match Corpus.find corpus "ok" with
  | Some { status = Corpus.Available _; _ } -> ()
  | _ -> Alcotest.fail "ok instance must be available");
  (match Corpus.find corpus "bad" with
  | Some { status = Corpus.Failed _; spec = None; _ } -> ()
  | _ -> Alcotest.fail "bad spec must be Failed with no spec");
  (* The unparseable line still gets a stable positional id. *)
  (match Corpus.find corpus "line5" with
  | Some { status = Corpus.Failed _; _ } -> ()
  | _ -> Alcotest.fail "garbage line must salvage a positional id");
  let rows = Corpus.list_rows corpus in
  check_int "list rows" 3 (List.length rows);
  match rows with
  | (id0, st0, _) :: _ ->
    check_string "manifest order" "ok" id0;
    check_string "status word" "available" st0
  | [] -> Alcotest.fail "rows empty"

let all_failed_unhealthy () =
  let corpus = Corpus.load ~backend:Sim.Backend.Dense [ "id=b,family=star,n=0" ] in
  check_bool "degraded" true (Corpus.degraded corpus);
  check_bool "not healthy" false (Corpus.healthy corpus)

(* Dense and implicit backends must serve label-identical instances:
   every arrival row byte-compares.  The soak's single oracle and the
   scripted-session byte-diff both stand on this. *)
let backend_row_identity () =
  let line = "id=g,family=gnp:4,n=24,a=12,r=2,seed=9" in
  let row backend src =
    match Corpus.available (Corpus.load ~backend [ line ]) with
    | [ (_, net) ] -> Array.copy (Temporal.Foremost.arrivals_borrowed net src)
    | _ -> Alcotest.fail "instance did not load"
  in
  for src = 0 to 23 do
    Alcotest.(check (array int))
      (Printf.sprintf "row %d identical across backends" src)
      (row Sim.Backend.Dense src)
      (row Sim.Backend.Implicit src)
  done

(* ------------------------------------------------------------------ *)
(* Engine: admission, deadlines, drain, caches *)

let test_corpus ?(backend = Sim.Backend.Implicit) ?(n = 7) ?(seed = 5) () =
  Corpus.load ~backend
    [ Printf.sprintf "id=t,family=path,n=%d,a=%d,r=1,seed=%d" n n seed ]

let oracle_row corpus src =
  match Corpus.available corpus with
  | (_, net) :: _ ->
    (* The borrowed scratch may be longer than n; only the prefix is
       the row. *)
    Array.sub (Temporal.Foremost.arrivals_borrowed net src) 0
      (Temporal.Tgraph.n net)
  | [] -> Alcotest.fail "no available instance"

let expect_row = function
  | Engine.Row r -> r
  | Engine.Err (c, m) ->
    Alcotest.failf "expected a row, got %s: %s" (Proto.error_code_to_string c) m

let expect_admitted = function
  | Engine.Admitted t -> t
  | Engine.Rejected (c, m) ->
    Alcotest.failf "expected admission, got %s: %s"
      (Proto.error_code_to_string c) m

let engine_answers_correct_rows () =
  let corpus = test_corpus () in
  let eng = Engine.create corpus in
  let tickets =
    List.init 7 (fun src ->
        (src, expect_admitted (Engine.submit eng ~instance:"t" ~source:src ())))
  in
  Engine.process_pending eng;
  List.iter
    (fun (src, t) ->
      Alcotest.(check (array int))
        (Printf.sprintf "row for source %d" src)
        (oracle_row corpus src)
        (expect_row (Engine.await t)))
    tickets;
  check_int "all admitted" 7 (Engine.stats eng).Engine.queries

let engine_rejects_bad_submissions () =
  let corpus =
    Corpus.load ~backend:Sim.Backend.Implicit
      [ "id=t,family=path,n=4"; "id=broken,family=clique,n=0" ]
  in
  let eng = Engine.create corpus in
  (match Engine.submit eng ~instance:"nope" ~source:0 () with
  | Engine.Rejected (Proto.Unknown_instance, _) -> ()
  | _ -> Alcotest.fail "unknown instance must be rejected");
  (match Engine.submit eng ~instance:"broken" ~source:0 () with
  | Engine.Rejected (Proto.Unavailable, _) -> ()
  | _ -> Alcotest.fail "failed instance must answer Unavailable");
  (match Engine.submit eng ~instance:"t" ~source:4 () with
  | Engine.Rejected (Proto.Bad_arg, _) -> ()
  | _ -> Alcotest.fail "out-of-range source must be Bad_arg");
  match Engine.submit eng ~instance:"t" ~source:(-1) () with
  | Engine.Rejected (Proto.Bad_arg, _) -> ()
  | _ -> Alcotest.fail "negative source must be Bad_arg"

(* The admission bound: with the dispatcher never started, the queue
   fills to exactly queue_max and the next submission is shed — no
   unbounded buffering, and queue_peak proves it. *)
let engine_sheds_at_bound () =
  let corpus = test_corpus () in
  let config = { Engine.default_config with Engine.queue_max = 2 } in
  let eng = Engine.create ~config corpus in
  let t0 = expect_admitted (Engine.submit eng ~instance:"t" ~source:0 ()) in
  let t1 = expect_admitted (Engine.submit eng ~instance:"t" ~source:1 ()) in
  (match Engine.submit eng ~instance:"t" ~source:2 () with
  | Engine.Rejected (Proto.Resource_exhausted, _) -> ()
  | _ -> Alcotest.fail "third submit must be shed");
  Engine.process_pending eng;
  ignore (expect_row (Engine.await t0));
  ignore (expect_row (Engine.await t1));
  let s = Engine.stats eng in
  check_int "shed counted" 1 s.Engine.shed;
  check_int "queue peak at bound" 2 s.Engine.queue_peak;
  check_bool "peak never exceeds bound" true (s.Engine.queue_peak <= 2)

let engine_deadline_expires () =
  let corpus = test_corpus () in
  let eng = Engine.create corpus in
  let t =
    expect_admitted
      (Engine.submit eng ~instance:"t" ~source:0 ~deadline_s:0.005 ())
  in
  Unix.sleepf 0.03;
  Engine.process_pending eng;
  (match Engine.await t with
  | Engine.Err (Proto.Deadline_exceeded, _) -> ()
  | Engine.Row _ -> Alcotest.fail "expired job must answer Deadline_exceeded"
  | Engine.Err (c, m) ->
    Alcotest.failf "wrong error %s: %s" (Proto.error_code_to_string c) m);
  check_int "expired counted" 1 (Engine.stats eng).Engine.expired

let engine_drain_flushes_then_refuses () =
  let corpus = test_corpus () in
  let eng = Engine.create corpus in
  let t = expect_admitted (Engine.submit eng ~instance:"t" ~source:3 ()) in
  Engine.drain eng;
  (* The queued job was answered, not dropped. *)
  Alcotest.(check (array int))
    "drained job answered" (oracle_row corpus 3)
    (expect_row (Engine.await t));
  (match Engine.submit eng ~instance:"t" ~source:0 () with
  | Engine.Rejected (Proto.Shutting_down, _) -> ()
  | _ -> Alcotest.fail "post-drain submit must be Shutting_down");
  Engine.drain eng (* idempotent *)

let engine_cache_and_dedupe () =
  let corpus = test_corpus () in
  let eng = Engine.create corpus in
  (* Two jobs for the same source in one cycle: one sweep, two answers. *)
  let ta = expect_admitted (Engine.submit eng ~instance:"t" ~source:2 ()) in
  let tb = expect_admitted (Engine.submit eng ~instance:"t" ~source:2 ()) in
  Engine.process_pending eng;
  let ra = expect_row (Engine.await ta) and rb = expect_row (Engine.await tb) in
  Alcotest.(check (array int)) "deduped rows agree" ra rb;
  check_int "one sweep for duplicate sources" 1 (Engine.stats eng).Engine.sweeps;
  (* A later cycle for the same source hits the row cache: no new sweep. *)
  let tc = expect_admitted (Engine.submit eng ~instance:"t" ~source:2 ()) in
  Engine.process_pending eng;
  ignore (expect_row (Engine.await tc));
  let s = Engine.stats eng in
  check_int "cache hit counted" 1 s.Engine.cache_hits;
  check_int "still one sweep" 1 s.Engine.sweeps

let engine_store_round_trip () =
  with_tmp_dir (fun dir ->
      let corpus = test_corpus () in
      let config store =
        { Engine.default_config with Engine.store = Some store; cache_max = 0 }
      in
      (* First engine computes and persists the row... *)
      let eng1 = Engine.create ~config:(config (Objects.open_ ~dir)) corpus in
      let t1 = expect_admitted (Engine.submit eng1 ~instance:"t" ~source:4 ()) in
      Engine.process_pending eng1;
      let row1 = expect_row (Engine.await t1) in
      check_int "computed, not store-served" 0
        (Engine.stats eng1).Engine.store_hits;
      (* ...a fresh engine over the same store serves it without a sweep. *)
      let eng2 = Engine.create ~config:(config (Objects.open_ ~dir)) corpus in
      let t2 = expect_admitted (Engine.submit eng2 ~instance:"t" ~source:4 ()) in
      Engine.process_pending eng2;
      let row2 = expect_row (Engine.await t2) in
      Alcotest.(check (array int)) "persisted row identical" row1 row2;
      let s = Engine.stats eng2 in
      check_int "served from store" 1 s.Engine.store_hits;
      check_int "no sweep on the hit" 0 s.Engine.sweeps)

(* A corrupted stored row must be recomputed, not trusted: the codec
   check quarantines it and the engine falls back to the kernel. *)
let engine_store_corruption_recovers () =
  with_tmp_dir (fun dir ->
      let corpus = test_corpus () in
      let config store =
        { Engine.default_config with Engine.store = Some store; cache_max = 0 }
      in
      let store1 = Objects.open_ ~dir in
      let eng1 = Engine.create ~config:(config store1) corpus in
      let t1 = expect_admitted (Engine.submit eng1 ~instance:"t" ~source:1 ()) in
      Engine.process_pending eng1;
      ignore (expect_row (Engine.await t1));
      (match Objects.entries store1 with
      | entry :: _ ->
        flip_byte (Objects.object_path store1 ~digest:entry.Objects.digest) 5
      | [] -> Alcotest.fail "row was not persisted");
      let eng2 = Engine.create ~config:(config (Objects.open_ ~dir)) corpus in
      let t2 = expect_admitted (Engine.submit eng2 ~instance:"t" ~source:1 ()) in
      Engine.process_pending eng2;
      Alcotest.(check (array int))
        "recomputed row correct" (oracle_row corpus 1)
        (expect_row (Engine.await t2));
      let s = Engine.stats eng2 in
      check_int "corrupt row is a miss" 0 s.Engine.store_hits;
      check_int "recomputed by sweep" 1 s.Engine.sweeps)

(* The row cache is LRU with touch-on-hit: a re-queried row survives an
   eviction pass that displaces a colder one, and every displacement is
   counted.  (A FIFO cache would evict the re-queried row instead —
   this test distinguishes the policies.) *)
let engine_lru_touch_on_hit () =
  let corpus = test_corpus () in
  let config = { Engine.default_config with Engine.cache_max = 2 } in
  let eng = Engine.create ~config corpus in
  let run_one src =
    let t = expect_admitted (Engine.submit eng ~instance:"t" ~source:src ()) in
    Engine.process_pending eng;
    expect_row (Engine.await t)
  in
  ignore (run_one 0);                     (* cache {0} *)
  ignore (run_one 1);                     (* cache {0, 1} *)
  Alcotest.(check (array int)) "hit serves the correct row"
    (oracle_row corpus 0) (run_one 0);    (* hit: 0 becomes most-recent *)
  check_int "hit counted" 1 (Engine.stats eng).Engine.cache_hits;
  check_int "no eviction while under capacity" 0
    (Engine.stats eng).Engine.evictions;
  ignore (run_one 2);                     (* full: evicts 1, not the hot 0 *)
  check_int "one eviction at capacity" 1 (Engine.stats eng).Engine.evictions;
  ignore (run_one 0);                     (* still cached — the hit saved it *)
  let s = Engine.stats eng in
  check_int "hot row survived the eviction" 2 s.Engine.cache_hits;
  check_int "sweeps only for the three misses" 3 s.Engine.sweeps;
  ignore (run_one 1);                     (* was evicted: must re-sweep *)
  let s = Engine.stats eng in
  check_int "evicted row re-swept" 4 s.Engine.sweeps;
  check_int "second eviction" 2 s.Engine.evictions

(* ------------------------------------------------------------------ *)
(* Sharding: the consistent-hash partition and the router's pure merge
   helpers *)

let shard_manifest =
  [
    "# comment";
    "id=a,family=path,n=4";
    "id=b,family=clique,n=4";
    "not a spec";
    "id=c,family=star,n=5";
    "id=d,family=gnp:3,n=8";
    "id=e,family=clique,n=0";
  ]

let corpus_shard_partition () =
  let ids = Corpus.manifest_ids shard_manifest in
  Alcotest.(check (list string))
    "manifest ids in order, salvaged ids included"
    [ "a"; "b"; "line4"; "c"; "d"; "e" ]
    ids;
  List.iter
    (fun id ->
      check_int (Printf.sprintf "%s: one shard means shard 0" id) 0
        (Corpus.shard_of ~shards:1 id))
    ids;
  let shards = 3 in
  let parts =
    List.init shards (fun k ->
        Corpus.load ~shard:(k, shards) ~backend:Sim.Backend.Implicit
          shard_manifest
        |> Corpus.instances
        |> List.map (fun i -> i.Corpus.spec_id))
  in
  (* Each partition holds exactly the ids the hash assigns to it... *)
  List.iteri
    (fun k part ->
      List.iter
        (fun id ->
          check_int
            (Printf.sprintf "%s landed on its hash shard" id)
            k
            (Corpus.shard_of ~shards id))
        part)
    parts;
  (* ...and the partitions are disjoint and exhaustive: their union is
     the whole manifest, failed and salvaged lines included. *)
  Alcotest.(check (list string))
    "partitions cover the manifest exactly once"
    (List.sort compare ids)
    (List.sort compare (List.concat parts))

let shard_of_range () =
  let ids = [ ""; "a"; "clq1k"; "line17"; String.make 64 'x' ] in
  List.iter
    (fun id ->
      List.iter
        (fun shards ->
          let k = Corpus.shard_of ~shards id in
          check_bool
            (Printf.sprintf "shard_of %S mod %d in range" id shards)
            true
            (k >= 0 && k < shards);
          check_int "deterministic" k (Corpus.shard_of ~shards id))
        [ 1; 2; 3; 4; 7; 16 ])
    ids

let router_stats_text_roundtrip () =
  let v =
    {
      Serve.Ledger.queries = 12; shed = 3; expired = 2; cache_hits = 5;
      store_hits = 1; sweeps = 7; evictions = 4; queue_peak = 9;
      p50_ms = 0.; p99_ms = 0.; qps = 0.; wall_s = 0.; shards = None;
    }
  in
  (match Serve.Router.parse_stats_text (Serve.Ledger.render_stats_text v) with
  | Some v' ->
    check_bool "tallies survive the round-trip" true (v = v')
  | None -> Alcotest.fail "rendered stats must parse");
  check_bool "garbage does not parse" true
    (Serve.Router.parse_stats_text "hello world" = None);
  check_bool "non-numeric values ignored" true
    (Serve.Router.parse_stats_text "queries=many" = None)

let router_merge_list_rows () =
  let manifest_ids = [ "a"; "b"; "c"; "d" ] in
  let shard0 = [ ("b", "available", "n=4"); ("d", "failed", "boom") ] in
  let shard1 = [ ("a", "available", "n=8") ] in
  let merged =
    Serve.Router.merge_list_rows ~manifest_ids [ shard0; shard1 ]
  in
  Alcotest.(check (list (triple string string string)))
    "manifest order restored; unreported id kept as a failed row"
    [
      ("a", "available", "n=8");
      ("b", "available", "n=4");
      ("c", "failed", "shard unavailable at snapshot");
      ("d", "failed", "boom");
    ]
    merged;
  (* A manifest that repeats an id consumes that id's rows in shard
     order, one per occurrence. *)
  let merged_dup =
    Serve.Router.merge_list_rows ~manifest_ids:[ "x"; "x" ]
      [ [ ("x", "available", "first"); ("x", "failed", "second") ] ]
  in
  Alcotest.(check (list (triple string string string)))
    "duplicate ids merge FIFO"
    [ ("x", "available", "first"); ("x", "failed", "second") ]
    merged_dup

(* A shard link reset while the router waits for the reply must answer
   a typed UNAVAILABLE rather than escape as a [Unix_error].  The stub
   shard takes the request and resets the link: over TCP it reads the
   whole frame and closes with SO_LINGER 0; over a Unix socket — the
   transport shards use — it reads only the frame header and closes
   with the payload unread, which the router's read sees as
   ECONNRESET. *)
let router_link_reset_unavailable () =
  let expect_unavailable name link stub =
    let server = Thread.create stub () in
    let reply =
      Serve.Router.exchange_once link
        (Proto.encode_request
           (Proto.Reach
              { Proto.instance = "clq"; source = 0; target = 1; deadline_ms = 0 }))
    in
    Thread.join server;
    match Proto.decode_response reply with
    | Ok (Proto.Error (Proto.Unavailable, _)) -> ()
    | Ok r ->
      Alcotest.failf "%s: expected unavailable, got %s" name
        (Proto.render_response r)
    | Error e -> Alcotest.failf "%s: undecodable reply: %s" name e
  in
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close listener)
    (fun () ->
      Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen listener 1;
      let link = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect link (Unix.getsockname listener);
      expect_unavailable "tcp reset" link (fun () ->
          let fd, _ = Unix.accept listener in
          ignore (Proto.read_frame ~deadline_s:5. fd);
          Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
          Unix.close fd));
  let link, shard = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  expect_unavailable "unix reset" link (fun () ->
      ignore (Unix.read shard (Bytes.create 4) 0 4);
      Unix.close shard)

let router_snapshot_health () =
  check_string "all available is ok" "ok"
    (Serve.Frontend.health [ ("a", "available", "") ]);
  check_string "any failed is degraded" "degraded"
    (Serve.Frontend.health
       [ ("a", "available", ""); ("b", "failed", "x") ]);
  check_string "none available is unhealthy" "unhealthy"
    (Serve.Frontend.health [ ("b", "failed", "x") ]);
  check_string "empty snapshot is unhealthy" "unhealthy"
    (Serve.Frontend.health [])

(* ------------------------------------------------------------------ *)
(* Live server over a Unix socket *)

let with_server ?(manifest = [ "id=t,family=path,n=7,seed=5"; "id=broken,family=clique,n=0" ])
    ?(backend = Sim.Backend.Implicit) f =
  with_tmp_dir (fun dir ->
      Store.Fsio.ensure_dir dir;
      let corpus = Corpus.load ~backend manifest in
      let address = Server.Unix_path (Filename.concat dir "srv.sock") in
      let ledger = Filename.concat dir "ledger.json" in
      let config =
        {
          Server.address;
          ledger_path = Some ledger;
          read_timeout_s = 5.;
          engine = { Engine.default_config with Engine.queue_max = 16 };
        }
      in
      let stop = Server.run_background ~config corpus in
      let finish () = stop () in
      Fun.protect ~finally:finish (fun () -> f corpus address ledger))

let expect_ok = function
  | Stdlib.Ok r -> r
  | Stdlib.Error m -> Alcotest.failf "call failed: %s" m

let server_answers_queries () =
  with_server (fun corpus address _ledger ->
      let c = expect_ok (Client.connect ~timeout_s:5. address) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (match expect_ok (Client.call c Proto.Ping) with
          | Proto.Ok_empty -> ()
          | _ -> Alcotest.fail "ping must answer Ok_empty");
          let row = oracle_row corpus 0 in
          (match expect_ok (Client.call c (Proto.Arrivals (q "t" 0))) with
          | Proto.Ok_vector v -> Alcotest.(check (array int)) "arrivals" row v
          | _ -> Alcotest.fail "arrivals must answer a vector");
          (match expect_ok (Client.call c (Proto.Foremost (q "t" 0 ~target:6))) with
          | Proto.Ok_value v ->
            check_int_option "foremost"
              (if row.(6) = max_int then None else Some row.(6))
              v
          | _ -> Alcotest.fail "foremost must answer a value");
          (match expect_ok (Client.call c (Proto.Reach (q "t" 0))) with
          | Proto.Ok_count k ->
            check_int "reach" (Array.length (Array.of_list (List.filter (fun x -> x < max_int) (Array.to_list row)))) k
          | _ -> Alcotest.fail "reach must answer a count");
          (match expect_ok (Client.call c (Proto.Foremost (q "nope" 0))) with
          | Proto.Error (Proto.Unknown_instance, _) -> ()
          | _ -> Alcotest.fail "unknown instance must be a typed error");
          (match expect_ok (Client.call c (Proto.Foremost (q "broken" 0))) with
          | Proto.Error (Proto.Unavailable, _) -> ()
          | _ -> Alcotest.fail "degraded instance must answer Unavailable");
          (match expect_ok (Client.call c Proto.Health) with
          | Proto.Ok_text s -> check_bool "health mentions degraded" true (contains s "degraded")
          | _ -> Alcotest.fail "health must answer text");
          match expect_ok (Client.call c Proto.List) with
          | Proto.Ok_list rows -> check_int "list rows" 2 (List.length rows)
          | _ -> Alcotest.fail "list must answer rows"))

let server_drain_publishes_ledger () =
  with_server (fun _corpus address ledger ->
      let c = expect_ok (Client.connect ~timeout_s:5. address) in
      ignore (expect_ok (Client.call c (Proto.Arrivals (q "t" 1))));
      Client.close c;
      check_bool "no ledger before drain" false (Sys.file_exists ledger));
  (* with_server's finally ran the drain; the ledger must now exist. *)
  ()

let server_ledger_contents () =
  with_tmp_dir (fun dir ->
      Store.Fsio.ensure_dir dir;
      let corpus = Corpus.load ~backend:Sim.Backend.Implicit [ "id=t,family=path,n=7,seed=5" ] in
      let address = Server.Unix_path (Filename.concat dir "srv.sock") in
      let ledger = Filename.concat dir "ledger.json" in
      let config =
        { Server.default_config with Server.address; ledger_path = Some ledger }
      in
      let stop = Server.run_background ~config corpus in
      let c = expect_ok (Client.connect ~timeout_s:5. address) in
      ignore (expect_ok (Client.call c (Proto.Arrivals (q "t" 2))));
      Client.close c;
      stop ();
      check_bool "ledger published on drain" true (Sys.file_exists ledger);
      let ic = open_in ledger in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      check_bool "schema tag" true (contains text "ephemeral-serve-ledger/v1");
      check_bool "query counted" true (contains text "\"queries\": 1");
      check_bool "socket unlinked" false
        (Sys.file_exists (Filename.concat dir "srv.sock")))

(* The determinism claim at the protocol level: the same scripted
   session renders byte-identically on dense and implicit servers. *)
let server_backend_byte_identical () =
  let script c =
    [
      Client.call c (Proto.Arrivals (q "t" 0));
      Client.call c (Proto.Foremost (q "t" 1 ~target:5));
      Client.call c (Proto.Ecc (q "t" 2));
      Client.call c (Proto.Reach (q "t" 3));
    ]
    |> List.map (fun r -> Proto.render_response (expect_ok r))
    |> String.concat "\n"
  in
  let session backend =
    let out = ref "" in
    with_server ~manifest:[ "id=t,family=path,n=9,a=9,r=2,seed=11" ] ~backend
      (fun _ address _ ->
        let c = expect_ok (Client.connect ~timeout_s:5. address) in
        Fun.protect ~finally:(fun () -> Client.close c)
          (fun () -> out := script c));
    !out
  in
  check_string "dense and implicit sessions byte-identical"
    (session Sim.Backend.Dense)
    (session Sim.Backend.Implicit)

(* One raw request frame, one raw reply frame: the exact bytes. *)
let raw_call address payload =
  let c = expect_ok (Client.connect ~timeout_s:5. address) in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      Proto.write_frame (Client.fd c) payload;
      match Proto.read_frame ~deadline_s:5. (Client.fd c) with
      | Proto.Frame bytes -> bytes
      | _ -> Alcotest.fail "no reply frame")

(* An unroutable payload (unknown opcode, query too short to carry an
   instance id) is answered by the front-end's own decoder: a backend
   whose shards are all down must not turn it into Unavailable.  The
   stub stands in for such a backend and records any query call. *)
let frontend_unroutable_never_reaches_backend () =
  let payloads =
    [ ("\xee", Proto.Unknown_op); ("\x10\x00", Proto.Parse_error) ]
  in
  let single =
    let out = ref [] in
    with_server (fun _ address _ ->
        out := List.map (fun (p, _) -> raw_call address p) payloads);
    !out
  in
  with_tmp_dir (fun dir ->
      Store.Fsio.ensure_dir dir;
      let called = Atomic.make false in
      let tallies () = Serve.Ledger.merge_volatile [] ~shards:1 in
      let backend =
        {
          Serve.Frontend.kind = Sim.Backend.Dense;
          queue_max = 1;
          rows = (fun () -> [ ("t", "failed", "shard unavailable") ]);
          open_conn = ignore;
          close_conn = ignore;
          query =
            (fun () _ _ ->
              Atomic.set called true;
              "");
          stats = (fun () -> tallies ());
          quiesce = ignore;
          final = tallies;
        }
      in
      let address = Server.Unix_path (Filename.concat dir "fe.sock") in
      let fe =
        Serve.Frontend.create ~address ~read_timeout_s:5. ~ledger_path:None
          backend
      in
      let stop = Serve.Frontend.run_background fe in
      Fun.protect ~finally:stop (fun () ->
          List.iter2
            (fun (payload, code) expected ->
              let got = raw_call address payload in
              check_string
                (Printf.sprintf "%S: single-process bytes" payload)
                expected got;
              match Proto.decode_response got with
              | Stdlib.Ok (Proto.Error (c, _)) ->
                check_string "typed error code"
                  (Proto.error_code_to_string code)
                  (Proto.error_code_to_string c)
              | _ -> Alcotest.fail "unroutable payload must answer an error")
            payloads single;
          check_bool "backend query never called" false (Atomic.get called)))

(* The connection table holds live connections only: a long-running
   server must not keep a handle per connection it ever accepted. *)
let server_conn_table_drains () =
  with_tmp_dir (fun dir ->
      Store.Fsio.ensure_dir dir;
      let corpus =
        Corpus.load ~backend:Sim.Backend.Implicit
          [ "id=t,family=path,n=7,seed=5" ]
      in
      let address = Server.Unix_path (Filename.concat dir "srv.sock") in
      let fe =
        Server.local { Server.default_config with Server.address } corpus
      in
      let stop = Serve.Frontend.run_background fe in
      Fun.protect ~finally:stop (fun () ->
          let ping c =
            match expect_ok (Client.call c Proto.Ping) with
            | Proto.Ok_empty -> ()
            | _ -> Alcotest.fail "ping must answer Ok_empty"
          in
          let held = expect_ok (Client.connect ~timeout_s:5. address) in
          ping held;
          check_int "one open connection is live" 1
            (Serve.Frontend.live_conns fe);
          Client.close held;
          for _ = 1 to 50 do
            let c = expect_ok (Client.connect ~timeout_s:5. address) in
            ping c;
            Client.close c
          done;
          let deadline = Unix.gettimeofday () +. 5. in
          while
            Serve.Frontend.live_conns fe > 0 && Unix.gettimeofday () < deadline
          do
            Thread.delay 0.01
          done;
          check_int "closed connections leave the table" 0
            (Serve.Frontend.live_conns fe)))

(* ------------------------------------------------------------------ *)
(* Fault.Retry: deterministic jitter and the wall-time budget *)

let backoff_legacy_delays () =
  check_float "k=0" 0.001 (Fault.Retry.backoff_delay 0);
  check_float "k=1" 0.002 (Fault.Retry.backoff_delay 1);
  check_float "k=2" 0.004 (Fault.Retry.backoff_delay 2);
  check_float "capped" 0.05 (Fault.Retry.backoff_delay 12)

let backoff_jitter_deterministic () =
  for k = 0 to 7 do
    let d1 = Fault.Retry.backoff_delay ~jitter:0.5 ~jitter_seed:7L k in
    let d2 = Fault.Retry.backoff_delay ~jitter:0.5 ~jitter_seed:7L k in
    check_float (Printf.sprintf "k=%d reproducible" k) d1 d2;
    let base = Fault.Retry.backoff_delay k in
    check_bool
      (Printf.sprintf "k=%d within jitter band" k)
      true
      (d1 >= base *. 0.75 -. 1e-12 && d1 <= base *. 1.25 +. 1e-12)
  done;
  let differs =
    List.exists
      (fun k ->
        Fault.Retry.backoff_delay ~jitter:0.5 ~jitter_seed:1L k
        <> Fault.Retry.backoff_delay ~jitter:0.5 ~jitter_seed:2L k)
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  check_bool "seeds decorrelate" true differs;
  Alcotest.check_raises "jitter out of range"
    (Invalid_argument "Retry.backoff_delay: jitter must be in [0, 1]")
    (fun () -> ignore (Fault.Retry.backoff_delay ~jitter:1.5 0))

let retry_budget_zero_never_retries () =
  let count = ref 0 in
  (try
     Fault.Retry.with_backoff ~attempts:5 ~budget_s:0.
       ~retryable:(fun _ -> true)
       ~on_retry:(fun _ _ -> ())
       (fun _ ->
         incr count;
         failwith "transient")
   with Failure _ -> ());
  check_int "exactly one attempt under a zero budget" 1 !count

let retry_budget_allows_recovery () =
  let count = ref 0 in
  let v =
    Fault.Retry.with_backoff ~attempts:5 ~budget_s:5.
      ~retryable:(fun _ -> true)
      ~on_retry:(fun _ _ -> ())
      (fun _ ->
        incr count;
        if !count < 3 then failwith "transient" else !count)
  in
  check_int "recovered on third attempt" 3 v;
  Alcotest.check_raises "negative budget refused"
    (Invalid_argument "Retry.with_backoff: negative budget")
    (fun () ->
      Fault.Retry.with_backoff ~budget_s:(-1.)
        ~retryable:(fun _ -> true)
        ~on_retry:(fun _ _ -> ())
        (fun _ -> ()))

(* ------------------------------------------------------------------ *)
(* Fault.Shutdown: the register-during-drain race *)

let shutdown_register_after_drain () =
  Fault.Shutdown.reset ();
  Fun.protect ~finally:Fault.Shutdown.reset (fun () ->
      let early = ref 0 and late = ref 0 in
      Fault.Shutdown.on_shutdown (fun () -> incr early);
      Fault.Shutdown.run_hooks ();
      check_int "early hook ran" 1 !early;
      (* The race: a thread registers while/after the drain runs the
         hooks.  The late hook must still run — immediately, exactly
         once — not be silently dropped. *)
      Fault.Shutdown.on_shutdown (fun () -> incr late);
      check_int "late hook ran immediately" 1 !late;
      Fault.Shutdown.run_hooks ();
      check_int "early hook not re-run" 1 !early;
      check_int "late hook not re-run" 1 !late)

let shutdown_hooks_lifo_once () =
  Fault.Shutdown.reset ();
  Fun.protect ~finally:Fault.Shutdown.reset (fun () ->
      let order = ref [] in
      Fault.Shutdown.on_shutdown (fun () -> order := 1 :: !order);
      Fault.Shutdown.on_shutdown (fun () -> order := 2 :: !order);
      Fault.Shutdown.run_hooks ();
      Fault.Shutdown.run_hooks ();
      Alcotest.(check (list int)) "LIFO, exactly once" [ 1; 2 ] !order)

(* ------------------------------------------------------------------ *)
(* Store.Objects: concurrent quarantine-then-repopulate *)

let store_concurrent_quarantine () =
  with_tmp_dir (fun dir ->
      let s = Objects.open_ ~dir in
      let key = "serve.row/test" and payload = "quarantine-me-please" in
      let entry = Objects.put s ~key ~meta:[] payload in
      flip_byte (Objects.object_path s ~digest:entry.Objects.digest) 3;
      (* Two domains race the corrupted read: both must see a miss,
         and the rename race must leave exactly one quarantined file. *)
      let reader () = Objects.get s ~key in
      let d1 = Domain.spawn reader and d2 = Domain.spawn reader in
      let r1 = Domain.join d1 and r2 = Domain.join d2 in
      check_bool "first racer misses" true (r1 = None);
      check_bool "second racer misses" true (r2 = None);
      check_int "no double-quarantine" 1 (count_files (Objects.quarantine_dir s));
      (* Repopulate and race again: both readers recover the bytes. *)
      ignore (Objects.put s ~key ~meta:[] payload);
      let d1 = Domain.spawn reader and d2 = Domain.spawn reader in
      let r1 = Domain.join d1 and r2 = Domain.join d2 in
      (match (r1, r2) with
      | Some (b1, _), Some (b2, _) ->
        check_string "first recovers" payload b1;
        check_string "second recovers" payload b2
      | _ -> Alcotest.fail "repopulated object must serve both readers");
      check_int "still one quarantined file" 1
        (count_files (Objects.quarantine_dir s)))

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "serve.proto",
      [
        case "request round-trip" request_roundtrip;
        case "response round-trip" response_roundtrip;
        case "error codes round-trip" error_code_roundtrip;
        case "garbage rejected" decode_rejects_garbage;
        case "render deterministic" render_deterministic;
        case "frame round-trip" frame_roundtrip;
        case "frame eof" frame_eof;
        case "frame timeout (slow loris)" frame_timeout;
        case "frame oversized" frame_oversized;
        case "query truncation vectors" query_truncation_vectors;
        qcase ~count:200 "request encode∘decode = id" gen_request
          prop_request_roundtrip;
        qcase ~count:200 "response encode∘decode = id" gen_response
          prop_response_roundtrip;
        qcase ~count:200 "no request prefix parses" gen_request
          prop_request_prefix_rejected;
        qcase ~count:200 "no response prefix parses" gen_response
          prop_response_prefix_rejected;
        qcase ~count:200 "peek agrees with the decoder" gen_request
          prop_peek_agrees;
      ] );
    ( "serve.corpus",
      [
        case "spec defaults" spec_defaults;
        case "spec errors" spec_errors;
        case "degraded load" degraded_load;
        case "all failed is unhealthy" all_failed_unhealthy;
        case "backend row identity" backend_row_identity;
      ] );
    ( "serve.engine",
      [
        case "answers correct rows" engine_answers_correct_rows;
        case "rejects bad submissions" engine_rejects_bad_submissions;
        case "sheds at the admission bound" engine_sheds_at_bound;
        case "deadline expiry" engine_deadline_expires;
        case "drain flushes then refuses" engine_drain_flushes_then_refuses;
        case "cache and dedupe" engine_cache_and_dedupe;
        case "store round-trip" engine_store_round_trip;
        case "store corruption recovers" engine_store_corruption_recovers;
        case "LRU touch-on-hit" engine_lru_touch_on_hit;
      ] );
    ( "serve.shard",
      [
        case "consistent-hash partition" corpus_shard_partition;
        case "shard_of range and determinism" shard_of_range;
        case "stats text round-trip" router_stats_text_roundtrip;
        case "LIST merge" router_merge_list_rows;
        case "snapshot health" router_snapshot_health;
        case "link reset answers unavailable" router_link_reset_unavailable;
      ] );
    ( "serve.server",
      [
        case "answers queries" server_answers_queries;
        case "drain publishes ledger" server_drain_publishes_ledger;
        case "ledger contents" server_ledger_contents;
        case "backend byte-identical sessions" server_backend_byte_identical;
        case "unroutable payload answered by the front-end"
          frontend_unroutable_never_reaches_backend;
        case "connection table holds live connections only"
          server_conn_table_drains;
      ] );
    ( "serve.retry",
      [
        case "legacy delays exact" backoff_legacy_delays;
        case "jitter deterministic and bounded" backoff_jitter_deterministic;
        case "zero budget never retries" retry_budget_zero_never_retries;
        case "budget allows recovery" retry_budget_allows_recovery;
      ] );
    ( "serve.shutdown",
      [
        case "register after drain runs immediately" shutdown_register_after_drain;
        case "hooks LIFO exactly once" shutdown_hooks_lifo_once;
      ] );
    ( "serve.store",
      [ case "concurrent quarantine then repopulate" store_concurrent_quarantine ] );
  ]
