(* Implicit-backend suite: arithmetic shapes against a CSR reference,
   the QCheck equivalence oracle (derived-label instances byte-identical
   to their materialized twins across Foremost / reachability /
   diameter), prefix-stream completeness, boundary cases, the
   clear-error contract of the whole-stream accessors, and the
   workspace sizing contract (no n×k arrival matrix on implicit
   networks). *)

module Graph = Sgraph.Graph
module Gen = Sgraph.Gen
module Rng = Prng.Rng
open Temporal
open Helpers

(* ------------------------------------------------------------------ *)
(* Topology: the generators' arithmetic shapes = a CSR built here from
   the documented numbering, observable by every accessor a kernel
   uses. *)

(* Push the pairs in emission order and hand them to the trusted CSR
   constructor — reversed, so edge id 0 is the last pair emitted, when
   [reverse] (clique, grid); in emission order otherwise (star). *)
let csr_of_emission kind ~n ~reverse emit =
  let pairs = ref [] in
  emit (fun u v -> pairs := (u, v) :: !pairs);
  let pairs = Array.of_list (if reverse then !pairs else List.rev !pairs) in
  Graph.of_arrays kind ~n (Array.map fst pairs) (Array.map snd pairs)

(* u ascending, v ascending; v <> u if directed, v > u if undirected. *)
let reference_clique kind n =
  csr_of_emission kind ~n ~reverse:true (fun push ->
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if (if kind = Graph.Directed then u <> v else u < v) then push u v
        done
      done)

(* Edge i is (0, i+1). *)
let reference_star n =
  csr_of_emission Undirected ~n ~reverse:false (fun push ->
      for i = 0 to n - 2 do
        push 0 (i + 1)
      done)

(* Row-major cells, each emitting its right edge then its down edge. *)
let reference_grid rows cols =
  let cell r c = (r * cols) + c in
  csr_of_emission Undirected ~n:(rows * cols) ~reverse:true (fun push ->
      for r = 0 to rows - 1 do
        for c = 0 to cols - 1 do
          if c + 1 < cols then push (cell r c) (cell r (c + 1));
          if r + 1 < rows then push (cell r c) (cell (r + 1) c)
        done
      done)

let neighbors_of iter g v =
  let acc = ref [] in
  iter g v (fun e w -> acc := (e, w) :: !acc);
  List.rev !acc

let edges_of g =
  let acc = ref [] in
  Graph.iter_edges g (fun e u v -> acc := (e, u, v) :: !acc);
  List.rev !acc

let check_same_graph name reference shape =
  check_int (name ^ ": n") (Graph.n reference) (Graph.n shape);
  check_int (name ^ ": m") (Graph.m reference) (Graph.m shape);
  check_bool (name ^ ": kind") true (Graph.kind reference = Graph.kind shape);
  for e = 0 to Graph.m reference - 1 do
    check_bool
      (Printf.sprintf "%s: endpoints of edge %d" name e)
      true
      (Graph.edge_endpoints reference e = Graph.edge_endpoints shape e)
  done;
  for v = 0 to Graph.n reference - 1 do
    check_bool
      (Printf.sprintf "%s: out arcs of %d" name v)
      true
      (neighbors_of Graph.iter_out reference v
      = neighbors_of Graph.iter_out shape v);
    check_bool
      (Printf.sprintf "%s: in arcs of %d" name v)
      true
      (neighbors_of Graph.iter_in reference v
      = neighbors_of Graph.iter_in shape v)
  done;
  for u = 0 to Graph.n reference - 1 do
    for v = 0 to Graph.n reference - 1 do
      check_int_option
        (Printf.sprintf "%s: find_edge %d %d" name u v)
        (Graph.find_edge reference u v)
        (Graph.find_edge shape u v)
    done
  done;
  check_bool (name ^ ": iter_edges") true (edges_of reference = edges_of shape);
  let rr = Graph.reverse reference and rs = Graph.reverse shape in
  check_bool (name ^ ": reversed iter_edges") true (edges_of rr = edges_of rs);
  for v = 0 to Graph.n reference - 1 do
    check_bool
      (Printf.sprintf "%s: reversed out arcs of %d" name v)
      true
      (neighbors_of Graph.iter_out rr v = neighbors_of Graph.iter_out rs v)
  done

let shapes_match_csr () =
  List.iter
    (fun n ->
      check_same_graph
        (Printf.sprintf "directed clique %d" n)
        (reference_clique Directed n) (Gen.clique Directed n);
      check_same_graph
        (Printf.sprintf "undirected clique %d" n)
        (reference_clique Undirected n) (Gen.clique Undirected n))
    [ 1; 2; 6; 7 ];
  List.iter
    (fun n ->
      check_same_graph (Printf.sprintf "star %d" n) (reference_star n)
        (Gen.star n))
    [ 2; 9 ];
  List.iter
    (fun (rows, cols) ->
      check_same_graph
        (Printf.sprintf "grid %dx%d" rows cols)
        (reference_grid rows cols) (Gen.grid rows cols))
    [ (3, 4); (4, 3); (1, 1); (1, 5); (5, 1) ]

(* ------------------------------------------------------------------ *)
(* The equivalence oracle.  A derived instance and its materialized
   twin must be indistinguishable: same per-edge labels, same Foremost
   arrivals from every source and start time, same temporal
   reachability, same diameter (batched on the dense twin, the scalar
   chunked path on the implicit one — so this also pins scalar =
   batched). *)

let gen_derived =
  QCheck2.Gen.(
    let* n = int_range 2 16 in
    let* seed = int_range 0 1_000_000 in
    let* a = int_range 1 12 in
    let* r = int_range 1 3 in
    let* shape = int_range 0 3 in
    return (n, seed, a, r, shape))

let print_derived (n, seed, a, r, shape) =
  Printf.sprintf "(n=%d, seed=%d, a=%d, r=%d, shape=%d)" n seed a r shape

let graph_of_shape ~n ~seed = function
  | 0 -> random_graph ~n ~seed
  | 1 -> Gen.clique Directed n
  | 2 -> Gen.star n
  | _ -> Gen.grid 2 ((n + 1) / 2)

let derived_pair (n, seed, a, r, shape) =
  let g = graph_of_shape ~n ~seed shape in
  let net = Tgraph.of_derived g ~a ~seed:(Int64.of_int seed) ~r in
  (net, Tgraph.materialize net)

let edge_labels net e =
  let acc = ref [] in
  Tgraph.iter_edge_labels net e (fun l -> acc := l :: !acc);
  List.rev !acc

let labels_agree net twin =
  let ok = ref true in
  for e = 0 to Graph.m (Tgraph.graph net) - 1 do
    if edge_labels net e <> edge_labels twin e then ok := false;
    if Tgraph.edge_label_size net e <> Tgraph.edge_label_size twin e then
      ok := false;
    for x = 0 to Tgraph.lifetime net + 1 do
      if Tgraph.edge_has_label net e x <> Tgraph.edge_has_label twin e x then
        ok := false;
      if
        Tgraph.edge_next_label_after net e x
        <> Tgraph.edge_next_label_after twin e x
      then ok := false
    done
  done;
  !ok

let oracle_labels =
  qcase ~count:120 ~print:print_derived
    "derived labels = materialized twin (scalar queries)" gen_derived
    (fun params ->
      let net, twin = derived_pair params in
      labels_agree net twin)

let arrivals_agree ?(start_time = 1) net twin =
  let n = Tgraph.n net in
  let ok = ref true in
  for s = 0 to n - 1 do
    let a1 = Foremost.arrival_array (Foremost.run ~start_time net s) in
    let a2 = Foremost.arrival_array (Foremost.run ~start_time twin s) in
    if a1 <> a2 then ok := false
  done;
  !ok

let oracle_foremost =
  qcase ~count:120 ~print:print_derived
    "derived Foremost arrivals = materialized twin" gen_derived (fun params ->
      let net, twin = derived_pair params in
      arrivals_agree net twin
      (* Start at the lifetime (last usable step) and past it (nothing
         usable): the chunked prefix scan must agree on both horizons. *)
      && arrivals_agree ~start_time:(Tgraph.lifetime net) net twin
      && arrivals_agree ~start_time:(Tgraph.lifetime net + 1) net twin)

let oracle_consumers =
  qcase ~count:80 ~print:print_derived
    "derived treach / diameter = materialized twin" gen_derived (fun params ->
      let net, twin = derived_pair params in
      Reachability.treach net = Reachability.treach twin
      && Reachability.reachable_pair_count net
         = Reachability.reachable_pair_count twin
      && Distance.instance_diameter net = Distance.instance_diameter twin
      && Distance.instance_diameter net = Distance.instance_diameter_scalar net)

let oracle_flooding =
  qcase ~count:60 ~print:print_derived
    "derived flooding broadcast = materialized twin" gen_derived (fun params ->
      let net, twin = derived_pair params in
      let ok = ref true in
      for s = 0 to Tgraph.n net - 1 do
        if Flooding.broadcast_time net s <> Flooding.broadcast_time twin s then
          ok := false
      done;
      !ok)

(* Forcing the prefix to completion must reproduce the dense stream
   byte for byte — arrays, not just statistics. *)
let oracle_full_prefix =
  qcase ~count:80 ~print:print_derived
    "completed prefix = materialized stream arrays" gen_derived (fun params ->
      let net, twin = derived_pair params in
      let rec force () =
        if not (Tgraph.stream_complete net) then begin
          ignore (Tgraph.stream_extend net ~past:(Tgraph.stream_prefix_bound net));
          force ()
        end
      in
      force ();
      Tgraph.stream_prefix net = Tgraph.stream twin
      && Tgraph.stream_prefix_bound net >= Tgraph.lifetime net)

(* ------------------------------------------------------------------ *)
(* Assignment constructors: the implicit uniform families must
   materialize into networks the dense accessors accept, with labels
   inside {1..a} and exactly r rolls per edge (counted with
   multiplicity collapsed — the support size is <= r). *)

let assignment_constructors () =
  let g = Gen.clique Directed 6 in
  let net = Assignment.uniform_single_implicit (rng ()) g ~a:6 in
  check_bool "single: implicit" true (Tgraph.is_implicit net);
  let twin = Tgraph.materialize net in
  check_bool "single: twin dense" false (Tgraph.is_implicit twin);
  check_bool "single: labels agree" true (labels_agree net twin);
  check_int "single: one label per edge" (Graph.m g) (Tgraph.label_count net);
  let multi = Assignment.uniform_multi_implicit (rng ()) g ~a:4 ~r:3 in
  let mtwin = Tgraph.materialize multi in
  check_bool "multi: labels agree" true (labels_agree multi mtwin);
  Graph.iter_edges g (fun e _ _ ->
      let ls = edge_labels multi e in
      check_bool "multi: support <= r" true (List.length ls <= 3);
      List.iter
        (fun l -> check_bool "multi: label in 1..a" true (l >= 1 && l <= 4))
        ls);
  Alcotest.check_raises "multi: r = 0 rejected"
    (Invalid_argument "Assignment.uniform_multi_implicit: r must be >= 1")
    (fun () -> ignore (Assignment.uniform_multi_implicit (rng ()) g ~a:4 ~r:0))

(* Boundary instances the generators rarely hit squarely. *)
let boundary_cases () =
  (* r > a: supports collapse, never exceed the lifetime. *)
  let g = Gen.clique Directed 4 in
  let net = Tgraph.of_derived g ~a:2 ~seed:77L ~r:6 in
  let twin = Tgraph.materialize net in
  check_bool "r > a: labels agree" true (labels_agree net twin);
  check_bool "r > a: diameters agree" true
    (Distance.instance_diameter net = Distance.instance_diameter twin);
  (* a = 1: every edge alive exactly at time 1. *)
  let one = Tgraph.of_derived g ~a:1 ~seed:5L ~r:1 in
  Graph.iter_edges g (fun e _ _ ->
      check_bool "a = 1: label is 1" true (Tgraph.edge_has_label one e 1);
      check_int "a = 1: nothing after 1" max_int
        (Tgraph.edge_next_label_after one e 1));
  check_int_option "a = 1: clique diameter 1" (Some 1)
    (Distance.instance_diameter one);
  (* n = 1: empty edge set, diameter of the single vertex. *)
  let solo =
    Tgraph.of_derived (Gen.clique Directed 1) ~a:3 ~seed:9L ~r:1
  in
  check_int_option "n = 1: diameter" (Distance.instance_diameter
      (Tgraph.materialize solo))
    (Distance.instance_diameter solo);
  check_bool "n = 1: treach" true (Reachability.treach solo);
  (* Constructor argument checks. *)
  Alcotest.check_raises "a = 0 rejected"
    (Invalid_argument "Implicit.Labels.make: need a >= 1") (fun () ->
      ignore (Tgraph.of_derived g ~a:0 ~seed:1L ~r:1));
  Alcotest.check_raises "r = 0 rejected"
    (Invalid_argument "Implicit.Labels.make: need r >= 1") (fun () ->
      ignore (Tgraph.of_derived g ~a:3 ~seed:1L ~r:0))

(* Whole-stream accessors refuse implicit networks with an error that
   names the fix. *)
let whole_stream_errors () =
  let net =
    Tgraph.of_derived (Gen.clique Directed 5) ~a:5 ~seed:3L ~r:1
  in
  let expect_materialize_error name f =
    match f () with
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument msg ->
      check_bool (name ^ ": names the accessor") true (contains msg name);
      check_bool (name ^ ": names materialize") true
        (contains msg "materialize")
  in
  expect_materialize_error "stream" (fun () -> ignore (Tgraph.stream net));
  expect_materialize_error "time_edge_count" (fun () ->
      ignore (Tgraph.time_edge_count net));
  expect_materialize_error "iter_time_edges" (fun () ->
      Tgraph.iter_time_edges net (fun ~src:_ ~dst:_ ~label:_ ~edge:_ -> ()))

(* Determinism and site-independence of the label hash: rolls depend
   only on (seed, edge, k) — never on query order — and distinct seeds
   give distinct labellings somewhere on a big enough instance. *)
let site_independence () =
  let d = Implicit.Labels.make ~seed:42L ~a:10 ~r:3 in
  let first = Array.init 30 (fun i -> Implicit.Labels.roll d ~edge:(i / 3) ~k:(i mod 3)) in
  (* Query backwards, interleaved with unrelated probes. *)
  for i = 29 downto 0 do
    ignore (Implicit.Labels.has d ~edge:((i * 7) mod 10) ((i mod 10) + 1));
    check_int
      (Printf.sprintf "roll (%d, %d) stable" (i / 3) (i mod 3))
      first.(i)
      (Implicit.Labels.roll d ~edge:(i / 3) ~k:(i mod 3))
  done;
  let d' = Implicit.Labels.make ~seed:43L ~a:10 ~r:3 in
  let differs = ref false in
  for e = 0 to 9 do
    for k = 0 to 2 do
      if Implicit.Labels.roll d ~edge:e ~k <> Implicit.Labels.roll d' ~edge:e ~k
      then differs := true
    done
  done;
  check_bool "distinct seeds differ" true !differs;
  Array.iter
    (fun l -> check_bool "rolls inside 1..a" true (l >= 1 && l <= 10))
    first

(* The workspace sizing contract of the implicit backend: the
   arrival-free entry point never grows the n×lanes arrival matrix, so
   temporal kernel scratch stays O(n) words on derived instances. *)
let workspace_planes_sizing () =
  let n = 1_000_000 in
  let ws = Workspace.get_batch_planes ~n in
  check_bool "bitset planes sized" true (Array.length ws.lane_reached >= n);
  check_bool "delta plane sized" true (Array.length ws.lane_delta >= n);
  check_bool "no n*lanes arrival matrix" true
    (Array.length ws.lane_arrival < n);
  (* And the arrival-free consumers really do run on an instance of
     that character without touching the matrix. *)
  let net =
    Tgraph.of_derived (Gen.clique Directed 128) ~a:128 ~seed:11L ~r:1
  in
  ignore (Distance.instance_diameter net);
  let ws = Workspace.get_batch_planes ~n in
  check_bool "arrival matrix still un-grown" true
    (Array.length ws.lane_arrival < n)

let suites =
  [
    ( "implicit",
      [
        case "arithmetic shapes = CSR twins" shapes_match_csr;
        oracle_labels;
        oracle_foremost;
        oracle_consumers;
        oracle_flooding;
        oracle_full_prefix;
        case "implicit assignment constructors" assignment_constructors;
        case "boundary cases" boundary_cases;
        case "whole-stream accessors refuse implicit" whole_stream_errors;
        case "label hash site-independent" site_independence;
        case "planes workspace stays O(n) words" workspace_planes_sizing;
      ] );
  ]
