(* Tests for lib/prng: generators, sampling, label distributions. *)

open Helpers
module Rng = Prng.Rng
module Sample = Prng.Sample
module Dist = Prng.Dist

(* --------------------------------------------------------------- *)
(* Splitmix64 / Xoshiro256 *)

let splitmix_deterministic () =
  let a = Prng.Splitmix64.create 42 and b = Prng.Splitmix64.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.Splitmix64.next a)
      (Prng.Splitmix64.next b)
  done

let splitmix_copy_replays () =
  let a = Prng.Splitmix64.create 7 in
  ignore (Prng.Splitmix64.next a);
  let b = Prng.Splitmix64.copy a in
  for _ = 1 to 50 do
    Alcotest.(check int64) "copy replays" (Prng.Splitmix64.next a)
      (Prng.Splitmix64.next b)
  done

let splitmix_seeds_differ () =
  let a = Prng.Splitmix64.create 1 and b = Prng.Splitmix64.create 2 in
  check_bool "different seeds diverge" false
    (Prng.Splitmix64.next a = Prng.Splitmix64.next b)

let splitmix_next_in_bounds () =
  let g = Prng.Splitmix64.create 5 in
  for _ = 1 to 1000 do
    let v = Prng.Splitmix64.next_in g 7 in
    check_bool "in [0,7)" true (v >= 0 && v < 7)
  done

let splitmix_next_in_invalid () =
  let g = Prng.Splitmix64.create 5 in
  Alcotest.check_raises "bound 0" (Invalid_argument
    "Splitmix64.next_in: bound must be positive") (fun () ->
      ignore (Prng.Splitmix64.next_in g 0))

let xoshiro_deterministic () =
  let a = Prng.Xoshiro256.create 9 and b = Prng.Xoshiro256.create 9 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.Xoshiro256.next a)
      (Prng.Xoshiro256.next b)
  done

let xoshiro_zero_state_rejected () =
  Alcotest.check_raises "all-zero"
    (Invalid_argument "Xoshiro256.of_state: all-zero state") (fun () ->
      ignore (Prng.Xoshiro256.of_state 0L 0L 0L 0L))

let xoshiro_jump_diverges () =
  let a = Prng.Xoshiro256.create 3 in
  let b = Prng.Xoshiro256.copy a in
  Prng.Xoshiro256.jump b;
  let overlap = ref false in
  let first_a = Prng.Xoshiro256.next a in
  for _ = 1 to 1000 do
    if Prng.Xoshiro256.next b = first_a then overlap := true
  done;
  check_bool "jumped stream avoids the original prefix" false !overlap

(* --------------------------------------------------------------- *)
(* Rng *)

let rng_int_bounds () =
  let g = rng () in
  for bound = 1 to 20 do
    for _ = 1 to 200 do
      let v = Rng.int g bound in
      check_bool "0 <= v < bound" true (v >= 0 && v < bound)
    done
  done

let rng_int_invalid () =
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int (rng ()) 0))

let rng_int_covers_range () =
  let g = rng () in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    seen.(Rng.int g 5) <- true
  done;
  check_bool "all values hit" true (Array.for_all Fun.id seen)

let rng_int_in () =
  let g = rng () in
  let lo = ref max_int and hi = ref min_int in
  for _ = 1 to 2000 do
    let v = Rng.int_in g 3 9 in
    check_bool "in [3,9]" true (v >= 3 && v <= 9);
    lo := min !lo v;
    hi := max !hi v
  done;
  check_int "min attained" 3 !lo;
  check_int "max attained" 9 !hi

let rng_int_in_singleton () =
  check_int "degenerate range" 4 (Rng.int_in (rng ()) 4 4)

let rng_int_in_invalid () =
  Alcotest.check_raises "empty range"
    (Invalid_argument "Rng.int_in: empty range") (fun () ->
      ignore (Rng.int_in (rng ()) 5 4))

let rng_float_range () =
  let g = rng () in
  for _ = 1 to 2000 do
    let v = Rng.float g in
    check_bool "in [0,1)" true (v >= 0. && v < 1.)
  done

let rng_float_mean () =
  let g = rng () in
  let total = ref 0. in
  let n = 20000 in
  for _ = 1 to n do
    total := !total +. Rng.float g
  done;
  let mean = !total /. float_of_int n in
  check_bool "mean near 0.5" true (abs_float (mean -. 0.5) < 0.02)

let rng_bool_both () =
  let g = rng () in
  let t = ref 0 in
  for _ = 1 to 1000 do
    if Rng.bool g then incr t
  done;
  check_bool "roughly balanced" true (!t > 400 && !t < 600)

let rng_bernoulli_extremes () =
  let g = rng () in
  for _ = 1 to 100 do
    check_bool "p=1 always true" true (Rng.bernoulli g 1.0);
    check_bool "p=0 always false" false (Rng.bernoulli g 0.0)
  done

let rng_split_independent () =
  let g = rng () in
  let a = Rng.split g and b = Rng.split g in
  let equal = ref 0 in
  for _ = 1 to 100 do
    if Rng.bits64 a = Rng.bits64 b then incr equal
  done;
  check_bool "children differ" true (!equal < 5)

let rng_split_reproducible () =
  let stream seed =
    let g = Rng.create seed in
    let child = Rng.split g in
    List.init 20 (fun _ -> Rng.bits64 child)
  in
  Alcotest.(check (list int64)) "same split stream" (stream 11) (stream 11)

let rng_split_n () =
  let g = rng () in
  check_int "split_n length" 7 (Array.length (Rng.split_n g 7))

(* The parallel runner's determinism rests on this: pre-splitting all
   per-trial streams upfront gives each child exactly the stream it
   would have under lazy sequential splitting, and draws from one child
   never perturb another — so any execution interleaving of the
   children reads the same numbers. *)
let split_n_interleaving_independent =
  qcase "split_n streams independent of draw interleaving"
    ~print:(fun (seed, k) -> Printf.sprintf "(seed=%d, k=%d)" seed k)
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 8))
    (fun (seed, k) ->
      let draws = 5 in
      (* All children split upfront, each drained in turn. *)
      let upfront =
        let rs = Rng.split_n (Rng.create seed) k in
        Array.map (fun r -> Array.init draws (fun _ -> Rng.bits64 r)) rs
      in
      (* Child i split lazily, only after children < i were drained. *)
      let lazy_interleaved =
        let g = Rng.create seed in
        let out = Array.make k [||] in
        for i = 0 to k - 1 do
          let r = Rng.split g in
          out.(i) <- Array.init draws (fun _ -> Rng.bits64 r)
        done;
        out
      in
      (* All children split upfront, drained round-robin. *)
      let round_robin =
        let rs = Rng.split_n (Rng.create seed) k in
        let out = Array.make_matrix k draws 0L in
        for j = 0 to draws - 1 do
          for i = 0 to k - 1 do
            out.(i).(j) <- Rng.bits64 rs.(i)
          done
        done;
        out
      in
      upfront = lazy_interleaved && upfront = round_robin)

let rng_copy_replays () =
  let g = rng () in
  ignore (Rng.bits64 g);
  let twin = Rng.copy g in
  for _ = 1 to 50 do
    Alcotest.(check int64) "copy replays" (Rng.bits64 g) (Rng.bits64 twin)
  done

(* --------------------------------------------------------------- *)
(* Reference vectors: literals recorded from the boxed-int64 generator
   and the Int64 rejection sampler, so a change to the state layout or
   the draw arithmetic that moves a single output fails here. *)

let xoshiro_reference_outputs () =
  let x = Prng.Xoshiro256.of_state 1L 2L 3L 4L in
  List.iter
    (fun expected ->
      Alcotest.(check int64) "next" expected (Prng.Xoshiro256.next x))
    [ 0x0000000000002D00L; 0x0000000000000000L; 0x000000005A007080L;
      0x10E0000000009D80L; 0x10E0B61CE1009D80L; 0x0870021CE143AD00L;
      0xE071C3C2E143F089L; 0x75A1690EF7A20380L ]

let xoshiro_reference_jump () =
  let x = Prng.Xoshiro256.of_state 1L 2L 3L 4L in
  Prng.Xoshiro256.jump x;
  List.iter
    (fun expected ->
      Alcotest.(check int64) "next after jump" expected (Prng.Xoshiro256.next x))
    [ 0xBBD2F312298443D8L; 0x62E57DB2D5706577L; 0x34D1890374A6D72BL;
      0xA0425028CA8B66A0L ]

let xoshiro_top62_is_shifted_next () =
  let a = Prng.Xoshiro256.create 11 in
  let b = Prng.Xoshiro256.copy a in
  for _ = 1 to 1000 do
    check_int "top 62 bits"
      (Int64.to_int (Int64.shift_right_logical (Prng.Xoshiro256.next a) 2))
      (Prng.Xoshiro256.next_top62 b)
  done

(* Four draws per bound, in this order, from one [Rng.create 7] stream. *)
let rng_int_reference () =
  let g = Rng.create 7 in
  List.iter
    (fun (bound, expected) ->
      List.iter
        (fun e -> check_int (Printf.sprintf "int bound %d" bound) e (Rng.int g bound))
        expected)
    [ (1, [ 0; 0; 0; 0 ]);
      (2, [ 0; 0; 1; 1 ]);
      (7, [ 6; 4; 3; 3 ]);
      (512, [ 116; 133; 430; 146 ]);
      (2048, [ 1903; 1127; 1358; 235 ]);
      (1 lsl 40, [ 628653570782; 304992418987; 718665906767; 337587167850 ]);
      ( (1 lsl 61) + 12345,
        [ 593817715809498456; 188696664511578872; 809367683062927938;
          2212402123716314391 ] );
      ( max_int,
        [ 403862553435877753; 632207907611505462; 3797506159036556396;
          4539839599659455563 ] ) ]

let rng_float_reference () =
  let g = Rng.create 7 in
  List.iter
    (fun expected -> Alcotest.(check (float 0.)) "float" expected (Rng.float g))
    [ 0x1.66b1f5ee9df2ep-1; 0x1.1d70f6593d20ap-2; 0x1.ade3a6932a58fp-1;
      0x1.f65270e63d00ep-1 ]

let rng_bernoulli_reference () =
  let g = Rng.create 7 in
  List.iter
    (fun expected -> check_bool "bernoulli 0.3" expected (Rng.bernoulli g 0.3))
    [ false; true; false; false; false; false; true; true;
      false; true; false; false; false; false; false; false ]

(* The Int64 formulation [Rng.int] replaced, kept as the reference:
   the top 62 bits of [bits64] against the largest multiple of the
   bound not above 2^62 - 1. *)
let reference_int t bound =
  let range = Int64.of_int bound in
  let limit = Int64.mul (Int64.div 0x3FFF_FFFF_FFFF_FFFFL range) range in
  let rec draw () =
    let v = Int64.shift_right_logical (Rng.bits64 t) 2 in
    if v < limit then Int64.to_int (Int64.rem v range) else draw ()
  in
  draw ()

let reference_float t =
  Int64.to_float (Int64.shift_right_logical (Rng.bits64 t) 11) *. 0x1p-53

let rng_int_matches_int64_reference =
  let bound =
    QCheck2.Gen.(
      oneof
        [ int_range 1 1000;
          map (fun k -> 1 lsl k) (int_range 0 61);
          map (fun k -> max_int - k) (int_range 0 1000);
          map (fun k -> (1 lsl 61) + k) (int_range 0 100_000);
          int_range 1 max_int ])
  in
  qcase "rng int = Int64 reference sampler"
    ~print:(fun (seed, bound) -> Printf.sprintf "(seed=%d, bound=%d)" seed bound)
    QCheck2.Gen.(pair (int_range 0 10_000) bound)
    (fun (seed, bound) ->
      let a = Rng.create seed in
      let b = Rng.copy a in
      let same = ref true in
      for _ = 1 to 64 do
        if Rng.int a bound <> reference_int b bound then same := false
      done;
      (* Same number of underlying draws: the streams stay in step. *)
      !same && Rng.bits64 a = Rng.bits64 b)

let rng_float_matches_int64_reference =
  qcase "rng float = Int64 reference" ~print:string_of_int
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let a = Rng.create seed in
      let b = Rng.copy a in
      List.for_all
        (fun _ -> Int64.bits_of_float (Rng.float a) = Int64.bits_of_float (reference_float b))
        (List.init 64 Fun.id))

(* --------------------------------------------------------------- *)
(* Sample *)

let sorted_copy a =
  let c = Array.copy a in
  Array.sort compare c;
  c

let shuffle_is_permutation =
  qcase "shuffle preserves the multiset" ~print:(fun l ->
      String.concat "," (List.map string_of_int l))
    QCheck2.Gen.(list_size (int_range 0 30) (int_range 0 100))
    (fun l ->
      let a = Array.of_list l in
      Sample.shuffle (rng ()) a;
      sorted_copy a = sorted_copy (Array.of_list l))

let permutation_is_permutation =
  qcase "permutation of 0..n-1" ~print:string_of_int
    QCheck2.Gen.(int_range 1 50)
    (fun n ->
      let p = Sample.permutation (rng ~seed:n ()) n in
      sorted_copy p = Array.init n Fun.id)

let shuffle_varies () =
  let g = rng () in
  let a = Array.init 20 Fun.id in
  Sample.shuffle g a;
  check_bool "some element moved (overwhelmingly likely)" true
    (a <> Array.init 20 Fun.id)

let choose_distinct_basic () =
  let picks = Sample.choose_distinct (rng ()) ~k:5 ~n:10 in
  check_int "k picks" 5 (Array.length picks);
  let sorted = sorted_copy picks in
  Array.iteri
    (fun i v ->
      check_bool "in range" true (v >= 0 && v < 10);
      if i > 0 then check_bool "distinct" true (sorted.(i) <> sorted.(i - 1)))
    sorted

let choose_distinct_all () =
  let picks = Sample.choose_distinct (rng ()) ~k:6 ~n:6 in
  Alcotest.(check (array int)) "k = n is a permutation"
    (Array.init 6 Fun.id) (sorted_copy picks)

let choose_distinct_none () =
  check_int "k = 0" 0 (Array.length (Sample.choose_distinct (rng ()) ~k:0 ~n:5))

let choose_distinct_invalid () =
  Alcotest.check_raises "k > n"
    (Invalid_argument "Sample.choose_distinct: need 0 <= k <= n") (fun () ->
      ignore (Sample.choose_distinct (rng ()) ~k:4 ~n:3))

let geometric_support () =
  let g = rng () in
  for _ = 1 to 1000 do
    check_bool ">= 1" true (Sample.geometric g ~p:0.3 >= 1)
  done

let geometric_p1 () =
  check_int "p = 1 is always 1" 1 (Sample.geometric (rng ()) ~p:1.0)

let geometric_mean () =
  let g = rng () in
  let total = ref 0 in
  let n = 20000 in
  for _ = 1 to n do
    total := !total + Sample.geometric g ~p:0.25
  done;
  let mean = float_of_int !total /. float_of_int n in
  check_bool "mean near 1/p = 4" true (abs_float (mean -. 4.) < 0.2)

let geometric_invalid () =
  Alcotest.check_raises "p = 0"
    (Invalid_argument "Sample.geometric: need 0 < p <= 1") (fun () ->
      ignore (Sample.geometric (rng ()) ~p:0.))

let binomial_bounds () =
  let g = rng () in
  for _ = 1 to 500 do
    let v = Sample.binomial g ~n:20 ~p:0.4 in
    check_bool "0 <= v <= n" true (v >= 0 && v <= 20)
  done

let binomial_extremes () =
  check_int "p=0" 0 (Sample.binomial (rng ()) ~n:50 ~p:0.);
  check_int "p=1" 50 (Sample.binomial (rng ()) ~n:50 ~p:1.);
  check_int "n=0" 0 (Sample.binomial (rng ()) ~n:0 ~p:0.5)

let binomial_mean () =
  let g = rng () in
  let total = ref 0 in
  for _ = 1 to 5000 do
    total := !total + Sample.binomial g ~n:10 ~p:0.3
  done;
  let mean = float_of_int !total /. 5000. in
  check_bool "mean near np = 3" true (abs_float (mean -. 3.) < 0.15)

let zipf_range () =
  let g = rng () in
  for _ = 1 to 500 do
    let v = Sample.zipf g ~s:1.2 ~n:30 in
    check_bool "in {1..30}" true (v >= 1 && v <= 30)
  done

let zipf_head_heavy () =
  let cache = Sample.Zipf_cache.create ~s:1.5 ~n:50 in
  let g = rng () in
  let ones = ref 0 and fifties = ref 0 in
  for _ = 1 to 5000 do
    match Sample.Zipf_cache.draw cache g with
    | 1 -> incr ones
    | 50 -> incr fifties
    | _ -> ()
  done;
  check_bool "mass decreasing in rank" true (!ones > !fifties)

(* --------------------------------------------------------------- *)
(* Dist *)

let dist_uniform_range () =
  let sampler = Dist.Sampler.create Uniform ~a:9 in
  let g = rng () in
  let seen = Array.make 10 false in
  for _ = 1 to 2000 do
    let v = Dist.Sampler.draw sampler g in
    check_bool "in {1..9}" true (v >= 1 && v <= 9);
    seen.(v) <- true
  done;
  for i = 1 to 9 do
    check_bool "every label reachable" true seen.(i)
  done

let dist_geometric_truncated () =
  let sampler = Dist.Sampler.create (Geometric 0.1) ~a:5 in
  let g = rng () in
  for _ = 1 to 2000 do
    let v = Dist.Sampler.draw sampler g in
    check_bool "truncated to {1..5}" true (v >= 1 && v <= 5)
  done

let dist_zipf_range () =
  let sampler = Dist.Sampler.create (Zipf 1.0) ~a:7 in
  let g = rng () in
  for _ = 1 to 500 do
    let v = Dist.Sampler.draw sampler g in
    check_bool "in {1..7}" true (v >= 1 && v <= 7)
  done

let dist_point_clamped () =
  let g = rng () in
  check_int "point within" 3 (Dist.draw (Point 3) ~a:10 g);
  check_int "point clamped high" 10 (Dist.draw (Point 99) ~a:10 g);
  check_int "point clamped low" 1 (Dist.draw (Point (-2)) ~a:10 g)

let dist_names () =
  Alcotest.(check string) "uniform" "uniform" (Dist.to_string Uniform);
  Alcotest.(check string) "point" "point(4)" (Dist.to_string (Point 4));
  Alcotest.(check string) "zipf" "zipf(1.5)" (Dist.to_string (Zipf 1.5))

let dist_invalid_lifetime () =
  Alcotest.check_raises "a = 0"
    (Invalid_argument "Dist.Sampler.create: lifetime must be positive")
    (fun () -> ignore (Dist.Sampler.create Uniform ~a:0))

let suites =
  [
    ( "prng.core",
      [
        case "splitmix deterministic" splitmix_deterministic;
        case "splitmix copy replays" splitmix_copy_replays;
        case "splitmix seeds differ" splitmix_seeds_differ;
        case "splitmix next_in bounds" splitmix_next_in_bounds;
        case "splitmix next_in invalid" splitmix_next_in_invalid;
        case "xoshiro deterministic" xoshiro_deterministic;
        case "xoshiro zero state rejected" xoshiro_zero_state_rejected;
        case "xoshiro jump diverges" xoshiro_jump_diverges;
        case "rng int bounds" rng_int_bounds;
        case "rng int invalid" rng_int_invalid;
        case "rng int covers range" rng_int_covers_range;
        case "rng int_in" rng_int_in;
        case "rng int_in singleton" rng_int_in_singleton;
        case "rng int_in invalid" rng_int_in_invalid;
        case "rng float range" rng_float_range;
        case "rng float mean" rng_float_mean;
        case "rng bool balanced" rng_bool_both;
        case "rng bernoulli extremes" rng_bernoulli_extremes;
        case "rng split independent" rng_split_independent;
        case "rng split reproducible" rng_split_reproducible;
        case "rng split_n" rng_split_n;
        split_n_interleaving_independent;
        case "rng copy replays" rng_copy_replays;
      ] );
    ( "prng.reference",
      [
        case "xoshiro outputs from (1,2,3,4)" xoshiro_reference_outputs;
        case "xoshiro outputs after jump" xoshiro_reference_jump;
        case "xoshiro next_top62 = next >>> 2" xoshiro_top62_is_shifted_next;
        case "rng int vectors" rng_int_reference;
        case "rng float vectors" rng_float_reference;
        case "rng bernoulli vectors" rng_bernoulli_reference;
        rng_int_matches_int64_reference;
        rng_float_matches_int64_reference;
      ] );
    ( "prng.sample",
      [
        shuffle_is_permutation;
        permutation_is_permutation;
        case "shuffle varies" shuffle_varies;
        case "choose_distinct basic" choose_distinct_basic;
        case "choose_distinct all" choose_distinct_all;
        case "choose_distinct none" choose_distinct_none;
        case "choose_distinct invalid" choose_distinct_invalid;
        case "geometric support" geometric_support;
        case "geometric p = 1" geometric_p1;
        case "geometric mean" geometric_mean;
        case "geometric invalid" geometric_invalid;
        case "binomial bounds" binomial_bounds;
        case "binomial extremes" binomial_extremes;
        case "binomial mean" binomial_mean;
        case "zipf range" zipf_range;
        case "zipf head heavy" zipf_head_heavy;
      ] );
    ( "prng.dist",
      [
        case "uniform range and coverage" dist_uniform_range;
        case "geometric truncated" dist_geometric_truncated;
        case "zipf range" dist_zipf_range;
        case "point clamped" dist_point_clamped;
        case "names" dist_names;
        case "invalid lifetime" dist_invalid_lifetime;
      ] );
  ]
