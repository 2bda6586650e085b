(* The lazy prefix stream, on every label layout.  A QCheck property
   pins each published view against a whole-stream counting sort kept
   here as an independent reference, across CSR (directed and undirected), clique, star and grid
   graphs and the [Sets], [Single] and [Derived] layouts; unit cases pin
   the whole-stream accessors, [is_implicit], Foremost's exhaustion
   probe and the batched route of [Distance.all_pairs] on dense
   layouts. *)

module Graph = Sgraph.Graph
module Gen = Sgraph.Gen
module Rng = Prng.Rng
open Temporal
open Helpers

(* Reference: every time edge of [net], counting-sorted by label —
   stable, so ties keep emission order (edge id ascending, labels of an
   edge ascending, u->v before v->u).  Labels come from the scalar
   per-edge queries, which no stream code touches. *)
let reference_stream net =
  let g = Tgraph.graph net in
  let lifetime = Tgraph.lifetime net in
  let directions = if Graph.is_directed g then 1 else 2 in
  let counts = Array.make (lifetime + 2) 0 in
  Graph.iter_edges g (fun e _ _ ->
      Tgraph.iter_edge_labels net e (fun l ->
          counts.(l + 1) <- counts.(l + 1) + directions));
  for l = 1 to lifetime + 1 do
    counts.(l) <- counts.(l) + counts.(l - 1)
  done;
  let total = counts.(lifetime + 1) in
  let src = Array.make total 0 and dst = Array.make total 0 in
  let label = Array.make total 0 and edge = Array.make total 0 in
  let put pos u v l e =
    src.(pos) <- u;
    dst.(pos) <- v;
    label.(pos) <- l;
    edge.(pos) <- e
  in
  Graph.iter_edges g (fun e u v ->
      Tgraph.iter_edge_labels net e (fun l ->
          let pos = counts.(l) in
          counts.(l) <- pos + directions;
          put pos u v l e;
          if directions = 2 then put (pos + 1) v u l e));
  (src, dst, label, edge)

let sub4 (a, b, c, d) len =
  (Array.sub a 0 len, Array.sub b 0 len, Array.sub c 0 len, Array.sub d 0 len)

let length4 (_, _, label, _) = Array.length label

(* The reference filtered to labels <= bound: a prefix, since it is
   label-sorted. *)
let reference_prefix ((_, _, label, _) as full) bound =
  let len = ref 0 in
  while !len < Array.length label && label.(!len) <= bound do
    incr len
  done;
  sub4 full !len

let is_prefix_of small big = sub4 big (length4 small) = small

(* Directed CSR: a seeded random arc set (self-loops dropped). *)
let random_digraph ~n ~seed =
  let rng = Rng.create seed in
  let arcs = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Rng.float rng < 0.4 then arcs := (u, v) :: !arcs
    done
  done;
  Graph.create Directed ~n (List.rev !arcs)

let graph_of ~n ~seed = function
  | 0 -> random_graph ~n ~seed
  | 1 -> random_digraph ~n ~seed
  | 2 -> Gen.clique Directed n
  | 3 -> Gen.clique Undirected n
  | 4 -> Gen.star (Stdlib.max 2 n)
  | _ -> Gen.grid 2 ((n + 1) / 2)

(* One labelling drawn per case, presented in the chosen layout: the
   derived instance itself, its flat twin (r = 1 only: one label per
   edge), or its labels boxed into sets. *)
let network (n, seed, a, r, shape, layout, _) =
  let g = graph_of ~n ~seed shape in
  let r = if layout = 1 then 1 else r in
  let derived = Tgraph.of_derived g ~a ~seed:(Int64.of_int seed) ~r in
  match layout with
  | 0 -> Tgraph.create g ~lifetime:a (Array.init (Graph.m g) (Tgraph.labels derived))
  | 1 -> Tgraph.materialize derived
  | _ -> derived

(* Lifetimes straddle the first band (64), so cases range from one band
   to several. *)
let gen_case =
  QCheck2.Gen.(
    let* n = int_range 1 12 in
    let* seed = int_range 0 1_000_000 in
    let* a = oneof [ int_range 1 12; int_range 60 300 ] in
    let* r = int_range 1 3 in
    let* shape = int_range 0 5 in
    let* layout = int_range 0 2 in
    let* pasts = list_size (int_range 0 6) (int_range 0 (a + 1)) in
    return (n, seed, a, r, shape, layout, pasts))

let print_case (n, seed, a, r, shape, layout, pasts) =
  Printf.sprintf "(n=%d, seed=%d, a=%d, r=%d, shape=%d, layout=%d, pasts=[%s])"
    n seed a r shape layout
    (String.concat ";" (List.map string_of_int pasts))

let prefix_views_are_filtered_sorts =
  qcase ~count:300 ~print:print_case
    "every published view = sorted stream filtered to its bound" gen_case
    (fun ((_, _, _, _, _, _, pasts) as case) ->
      let net = network case in
      let full = reference_stream net in
      let ok = ref (Tgraph.stream_prefix_bound net = 0) in
      let check_view prev =
        let view = Tgraph.stream_prefix net in
        let bound = Tgraph.stream_prefix_bound net in
        if view <> reference_prefix full bound then ok := false;
        if not (is_prefix_of prev view) then ok := false;
        if Tgraph.stream_complete net <> (bound >= Tgraph.lifetime net) then
          ok := false;
        view
      in
      let last =
        List.fold_left
          (fun prev past ->
            let more = Tgraph.stream_extend net ~past in
            if more <> (Tgraph.stream_prefix_bound net > past) then ok := false;
            if (not more) && not (Tgraph.stream_complete net) then ok := false;
            check_view prev)
          (check_view ([||], [||], [||], [||]))
          pasts
      in
      let whole =
        if Tgraph.is_implicit net then begin
          while
            Tgraph.stream_extend net ~past:(Tgraph.stream_prefix_bound net)
          do
            ()
          done;
          Tgraph.stream_prefix net
        end
        else begin
          if Tgraph.time_edge_count net <> length4 full then ok := false;
          Tgraph.stream net
        end
      in
      !ok && whole = full && is_prefix_of last whole
      && Tgraph.stream_complete net)

(* ------------------------------------------------------------------ *)
(* Unit cases. *)

let flat_net () =
  Tgraph.of_flat_arcs (Gen.clique Undirected 6) ~lifetime:100
    (Array.init 15 (fun e -> 1 + (e * 7 mod 100)))

let sets_net () =
  Tgraph.create (Gen.star 5) ~lifetime:90
    [| Label.of_list [ 3; 70 ]; Label.singleton 90; Label.empty; Label.of_list [ 1; 2; 65 ] |]

let dense_not_implicit () =
  check_bool "of_flat_arcs" false (Tgraph.is_implicit (flat_net ()));
  check_bool "create" false (Tgraph.is_implicit (sets_net ()));
  check_bool "of_derived" true
    (Tgraph.is_implicit (Tgraph.of_derived (Gen.clique Directed 4) ~a:4 ~seed:1L ~r:1))

(* The count comes from the labels; nothing is built for it. *)
let count_builds_nothing () =
  let check name net directions =
    check_int (name ^ ": count") (directions * Tgraph.label_count net)
      (Tgraph.time_edge_count net);
    check_int (name ^ ": prefix untouched") 0 (Tgraph.stream_prefix_bound net);
    check_bool (name ^ ": not complete") false (Tgraph.stream_complete net)
  in
  check "of_flat_arcs" (flat_net ()) 2;
  check "create" (sets_net ()) 2;
  check "directed create" (directed_line ()) 1

(* The whole-stream accessors complete an in-memory stream in one band,
   whatever prefix a kernel had built. *)
let whole_stream_completes () =
  let net = flat_net () in
  let expected = reference_stream net in
  check_bool "first band only" true
    (Tgraph.stream_extend net ~past:0 && not (Tgraph.stream_complete net));
  check_bool "stream = reference" true (Tgraph.stream net = expected);
  check_bool "complete after stream" true (Tgraph.stream_complete net);
  let net = sets_net () in
  let seen = ref [] in
  Tgraph.iter_time_edges net (fun ~src ~dst ~label ~edge ->
      seen := (src, dst, label, edge) :: !seen);
  let src, dst, label, edge = reference_stream net in
  check_bool "iter_time_edges = reference" true
    (List.rev !seen
    = List.init (Array.length label) (fun i -> (src.(i), dst.(i), label.(i), edge.(i))));
  (* An index past the built prefix completes the stream too. *)
  let net = flat_net () in
  let src, dst, label, _ = reference_stream net in
  let last = Array.length label - 1 in
  check_bool "time_edge past the prefix" true
    (Tgraph.time_edge net last = (src.(last), dst.(last), label.(last)));
  check_bool "completed by time_edge" true (Tgraph.stream_complete net)

let with_probes f =
  Obs.Metrics.reset ();
  Obs.Control.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Control.set_enabled false) f

let count name = Obs.Metrics.count (Obs.Metrics.counter name)

(* 0 -> 1 at 1, 1 -> 2 at 100, lifetime 200: the sweep reaches 2 on
   the last entry of the stream, inside the second band (bound 128) of
   a stream that is not complete.  Judged against the full time-edge
   count, that is exhaustion — the verdict a scan of the whole stream
   gives. *)
let foremost_exhaustion () =
  let net =
    Tgraph.of_flat_arcs (Graph.create Directed ~n:3 [ (0, 1); (1, 2) ])
      ~lifetime:200 [| 1; 100 |]
  in
  with_probes (fun () ->
      let r = Foremost.run net 0 in
      check_int_option "reaches 2" (Some 100) (Foremost.distance r 2);
      check_int "scanned to the end" 2 (count "kernel.edges_scanned");
      check_int "not early" 0 (count "kernel.early_exits"));
  check_bool "stream left incomplete" false (Tgraph.stream_complete net);
  (* The same sweep stopping short of the end is early. *)
  let net =
    Tgraph.of_flat_arcs (Graph.create Directed ~n:3 [ (0, 1); (1, 2); (2, 0) ])
      ~lifetime:200 [| 1; 100; 150 |]
  in
  with_probes (fun () ->
      ignore (Foremost.run net 0);
      check_int "early" 1 (count "kernel.early_exits"))

let all_pairs_batched () =
  let net = Assignment.normalized_uniform (rng ()) (Gen.clique Directed 12) in
  with_probes (fun () ->
      ignore (Distance.all_pairs net);
      if not (Batch.force_scalar ()) then begin
        check_bool "batch sweeps" true (count "kernel.batch_sweeps" > 0);
        check_int "no scalar sweeps" 0 (count "kernel.sweeps")
      end)

let suites =
  [
    ( "stream",
      [
        prefix_views_are_filtered_sorts;
        case "dense layouts are not implicit" dense_not_implicit;
        case "time_edge_count builds nothing" count_builds_nothing;
        case "whole-stream accessors complete" whole_stream_completes;
        case "foremost exhaustion vs full count" foremost_exhaustion;
        case "all_pairs on Single goes through Batch" all_pairs_batched;
      ] );
  ]
