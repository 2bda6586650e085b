(* The benchmark's own checks: the tail-percentile rule, the windowed median,
   and that the oracles flag a corrupted reply or diameter.  `bench.exe
   --self-test` prints one line per check and exits non-zero if any fails. *)

module Proto = Serve.Proto

let run () =
  let failures = ref 0 in
  let expect name ok =
    Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") name;
    if not ok then incr failures
  in
  (* n samples valued 1..n, given in descending order. *)
  let samples n = Array.init n (fun i -> float_of_int (n - i)) in
  let tail_is n ~bp ~value =
    match Pct.tail (samples n) with
    | Some t -> t.Pct.bp = bp && t.Pct.value = value && t.Pct.beyond >= 10 && t.Pct.count = n
    | None -> false
  in
  expect "19 samples have no tail" (Pct.tail (samples 19) = None);
  expect "20 samples: p50 with 10 beyond" (tail_is 20 ~bp:5000 ~value:10.);
  expect "100 samples: p90" (tail_is 100 ~bp:9000 ~value:90.);
  expect "101 samples: p90 at rank 91" (tail_is 101 ~bp:9000 ~value:91.);
  expect "1000 samples: p99" (tail_is 1000 ~bp:9900 ~value:990.);
  expect "10000 samples: p99.9" (tail_is 10000 ~bp:9990 ~value:9990.);
  expect "200000 samples: p99.99" (tail_is 200000 ~bp:9999 ~value:199980.);
  expect "every chosen tail leaves at least 10 samples beyond"
    (List.for_all
       (fun n ->
         match Pct.tail (samples n) with
         | Some t -> t.Pct.beyond >= 10 && (t.Pct.bp = 9999 || n - Pct.rank ~n (List.find (fun c -> c > t.Pct.bp) (List.rev Pct.candidates)) < 10)
         | None -> n < 20)
       (List.init 3000 Fun.id));
  let typical runs =
    Option.map fst (Pct.windowed_median (List.map Array.of_list runs) ~size:5)
  in
  let fast = List.init 5 (fun _ -> 1.) and slow = List.init 5 (fun _ -> 2.) in
  expect "windowed median follows the share of slow windows"
    (typical [ fast @ fast @ slow; slow ] = Some 1.5);
  expect "windowed median ignores an outlier in each window"
    (typical [ [ 1.; 1.; 100.; 1.; 1.; 2.; 2.; 2.; 0.; 2. ] ] = Some 1.5);
  expect "no trials give no windowed median" (typical [ []; [] ] = None);
  (* Serve replies. *)
  let row = [| 0; 3; max_int; 7 |] in
  let verdict op r = Oracle.check ~row op (Proto.encode_response r) in
  expect "correct foremost reply passes" (verdict (Oracle.Foremost 1) (Proto.Ok_value (Some 3)) = Loadgen.Ok);
  expect "unreachable target passes as none" (verdict (Oracle.Foremost 2) (Proto.Ok_value None) = Loadgen.Ok);
  let wrong = function Loadgen.Wrong _ -> true | _ -> false in
  expect "corrupted foremost reply is flagged" (wrong (verdict (Oracle.Foremost 1) (Proto.Ok_value (Some 4))));
  expect "reachable reported unreachable is flagged" (wrong (verdict (Oracle.Foremost 3) (Proto.Ok_value None)));
  expect "corrupted arrival row is flagged"
    (wrong (verdict Oracle.Arrivals (Proto.Ok_vector [| 0; 3; max_int; 8 |])));
  expect "reply of the wrong kind is flagged" (wrong (verdict Oracle.Arrivals (Proto.Ok_count 3)));
  expect "truncated reply is flagged"
    (let s = Proto.encode_response (Proto.Ok_value (Some 3)) in
     wrong (Oracle.check ~row (Oracle.Foremost 1) (String.sub s 0 (String.length s - 1))));
  expect "typed error counts as failed"
    (match verdict (Oracle.Foremost 1) (Proto.Error (Proto.Resource_exhausted, "full")) with
    | Loadgen.Failed _ -> true
    | _ -> false);
  (* Trial diameters. *)
  Exec.Pool.set_jobs 1;
  let flagged shape g =
    let rng = Prng.Rng.create 5 in
    let d = Trials.run shape g (Prng.Rng.copy rng) in
    let good = { Pipeline.rng; diameter = d; ms = 1. } in
    let bad = { good with Pipeline.diameter = Option.map succ d } in
    Pipeline.verify shape g [| good |] = 0 && Pipeline.verify shape g [| bad |] = 1
  in
  Sim.Backend.set Sim.Backend.Dense;
  let e1 = Trials.E1 24 in
  expect "E1 oracle accepts the estimator and flags a corrupted diameter"
    (flagged e1 (Trials.graph e1));
  Sim.Backend.set Sim.Backend.Implicit;
  expect "E23 oracle accepts the estimator and flags a corrupted diameter"
    (flagged (Trials.E23 48) None);
  if !failures = 0 then (print_endline "self-test passed"; 0)
  else (Printf.printf "self-test: %d check(s) failed\n" !failures; 1)
