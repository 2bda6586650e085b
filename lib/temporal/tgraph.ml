module Graph = Sgraph.Graph

(* Three label layouts share one temporal-network type.  [Sets] is the
   general per-edge label-set assignment; [Single] is the flat fast
   path for one-label-per-edge models (UNI-CASE, the normalized U-RTN
   clique), which stores the label as a bare int — no n² one-element
   arrays.  [Derived] stores nothing at all: labels are recomputed per
   query from [(seed, edge, roll)] by [Implicit.Labels], which is what
   lets instances scale past the O(n²·r) materialization wall.  Every
   kernel-facing query ([edge_next_label_after], …) dispatches once and
   works on unboxed ints whichever layout backs the network. *)
type labelling =
  | Sets of Label.t array
  | Single of int array
  | Derived of Implicit.Labels.t

(* The time-edge stream is one {!Implicit.Stream} whatever the
   layout: a label-bounded prefix (counting-sort order — label
   ascending, ties in emission order: edge id ascending, u->v before
   v->u) that grows when a kernel asks for more.  Sweeps on the
   normalized U-RTN clique read only the first few label groups, so an
   instance never builds the part of its stream no kernel reads. *)
type t = {
  graph : Graph.t;
  lifetime : int;
  labelling : labelling;
  stream : Implicit.Stream.t;
}

(* The dense constructors validate the labels and count the per-label
   histogram in one pass; the stream sizes every band from it. *)
let create g ~lifetime labels =
  if lifetime <= 0 then invalid_arg "Tgraph.create: lifetime must be positive";
  if Array.length labels <> Graph.m g then
    invalid_arg "Tgraph.create: one label set per edge required";
  let directions = if Graph.is_directed g then 1 else 2 in
  let histogram = Array.make (lifetime + 1) 0 in
  Array.iter
    (fun ls ->
      if not (Label.within_lifetime ls lifetime) then
        invalid_arg "Tgraph.create: label beyond the lifetime";
      let ls = (ls :> int array) in
      for i = 0 to Array.length ls - 1 do
        histogram.(ls.(i)) <- histogram.(ls.(i)) + directions
      done)
    labels;
  let stored = Array.map (fun (ls : Label.t) -> (ls :> int array)) labels in
  {
    graph = g;
    lifetime;
    labelling = Sets labels;
    stream =
      Implicit.Stream.create g (Sets { labels = stored; histogram }) ~lifetime;
  }

let of_flat_arcs g ~lifetime label =
  if lifetime <= 0 then
    invalid_arg "Tgraph.of_flat_arcs: lifetime must be positive";
  if Array.length label <> Graph.m g then
    invalid_arg "Tgraph.of_flat_arcs: one label per edge required";
  let directions = if Graph.is_directed g then 1 else 2 in
  let histogram = Array.make (lifetime + 1) 0 in
  Array.iter
    (fun l ->
      if l < 1 then invalid_arg "Tgraph.of_flat_arcs: labels must be positive";
      if l > lifetime then
        invalid_arg "Tgraph.of_flat_arcs: label beyond the lifetime";
      histogram.(l) <- histogram.(l) + directions)
    label;
  {
    graph = g;
    lifetime;
    labelling = Single label;
    stream = Implicit.Stream.create g (Flat { label; histogram }) ~lifetime;
  }

let of_derived g ~a ~seed ~r =
  let labels = Implicit.Labels.make ~seed ~a ~r in
  {
    graph = g;
    lifetime = a;
    labelling = Derived labels;
    stream = Implicit.Stream.create g (Rolled labels) ~lifetime:a;
  }

let is_implicit t =
  match t.labelling with Derived _ -> true | Sets _ | Single _ -> false

(* Re-rolling every site of a derived instance yields, by the
   site-independence of [Implicit.Labels.roll], exactly the label
   arrays the dense constructors would have been given — so every
   prefix of the twin's stream is byte-identical to the derived
   stream's prefix at the same bound (same order over the same
   entries).  This is
   the dense twin used by the equivalence oracle and by the [dense]
   backend of the scale experiment. *)
let materialize t =
  match t.labelling with
  | Sets _ | Single _ -> t
  | Derived d ->
    let g = t.graph in
    let m = Graph.m g in
    let r = Implicit.Labels.rolls_per_edge d in
    let net =
      if r = 1 then
        of_flat_arcs g ~lifetime:t.lifetime
          (Array.init m (fun e -> Implicit.Labels.roll d ~edge:e ~k:0))
      else begin
        let scratch = Array.make r 0 in
        create g ~lifetime:t.lifetime
          (Array.init m (fun e ->
               let cnt = Implicit.Labels.fill_sorted d ~edge:e scratch in
               Label.of_array (Array.sub scratch 0 cnt)))
      end
    in
    Implicit.Labels.note_bulk_rolls (m * r);
    net

let graph t = t.graph
let lifetime t = t.lifetime
let n t = Graph.n t.graph

let labels t e =
  match t.labelling with
  | Sets a -> a.(e)
  | Single l -> Label.singleton l.(e)
  | Derived d ->
    let acc = ref [] in
    Implicit.Labels.iter d ~edge:e (fun l -> acc := l :: !acc);
    Label.of_list (List.rev !acc)

let label_count t =
  match t.labelling with
  | Sets a -> Array.fold_left (fun acc ls -> acc + Label.size ls) 0 a
  | Single l -> Array.length l
  | Derived d ->
    let m = Graph.m t.graph in
    if Implicit.Labels.rolls_per_edge d = 1 then m
    else begin
      (* Honest O(m·r) count of the distinct supports. *)
      let scratch = Array.make (Implicit.Labels.rolls_per_edge d) 0 in
      let total = ref 0 in
      for e = 0 to m - 1 do
        total := !total + Implicit.Labels.fill_sorted d ~edge:e scratch
      done;
      Implicit.Labels.note_bulk_rolls (m * Implicit.Labels.rolls_per_edge d);
      !total
    end

let materialized_error fn =
  invalid_arg
    (Printf.sprintf
       "Tgraph.%s: derived-label stream is lazily materialized; scan \
        stream_prefix/stream_extend instead, or Tgraph.materialize the \
        instance first"
       fn)

(* The whole-stream accessors: a stored layout counts its stream off
   the histogram and builds the rest of it in one band on demand; a
   derived one refuses, since completing it is the O(m·r) cost the
   backend exists to avoid. *)
let whole_stream fn t =
  match t.labelling with
  | Derived _ -> materialized_error fn
  | Sets _ | Single _ -> Implicit.Stream.force_complete t.stream

let time_edge_count t =
  match Implicit.Stream.length t.stream with
  | Some len -> len
  | None -> materialized_error "time_edge_count"

let iter_time_edges t f =
  let s = whole_stream "iter_time_edges" t in
  for i = 0 to Array.length s.te_label - 1 do
    f ~src:s.te_src.(i) ~dst:s.te_dst.(i) ~label:s.te_label.(i)
      ~edge:s.te_edge.(i)
  done

let stream t =
  let s = whole_stream "stream" t in
  (s.te_src, s.te_dst, s.te_label, s.te_edge)

(* The prefix interface every sweep kernel scans.  The arrays grow (by
   replacement — grab them again after an extend) while remaining byte
   prefixes of the whole stream, so resuming a scan at a saved index is
   always valid. *)

let stream_prefix t =
  let v = Implicit.Stream.view t.stream in
  (v.te_src, v.te_dst, v.te_label, v.te_edge)

let stream_prefix_bound t = (Implicit.Stream.view t.stream).bound
let stream_complete t = (Implicit.Stream.view t.stream).complete
let stream_extend t ~past = Implicit.Stream.extend t.stream ~past

(* Any index a kernel has already scanned is in the published prefix,
   which only ever grows; a later one completes a dense stream. *)
let time_edge t i =
  let v = Implicit.Stream.view t.stream in
  let v = if i < Array.length v.te_label then v else whole_stream "time_edge" t in
  (v.te_src.(i), v.te_dst.(i), v.te_label.(i))

(* ---------------------------------------------------------------- *)
(* Per-edge label queries: the scalar kernel interface.  Each returns
   unboxed ints ([max_int] = none), whichever labelling backs the
   network; [Derived] recomputes the rolls in O(r) instead of reading
   an array. *)

let edge_label_size t e =
  match t.labelling with
  | Sets a -> Label.size a.(e)
  | Single _ -> 1
  | Derived d -> Implicit.Labels.size d ~edge:e

let edge_has_label t e x =
  match t.labelling with
  | Sets a -> Label.mem a.(e) x
  | Single l -> l.(e) = x
  | Derived d -> Implicit.Labels.has d ~edge:e x

let edge_next_label_after t e x =
  match t.labelling with
  | Sets a -> Label.next_after a.(e) x
  | Single l -> if l.(e) > x then l.(e) else max_int
  | Derived d -> Implicit.Labels.next_after d ~edge:e x

let edge_next_label_in t e ~lo ~hi =
  match t.labelling with
  | Sets a -> Label.next_in a.(e) ~lo ~hi
  | Single l -> if l.(e) > lo && l.(e) <= hi then l.(e) else max_int
  | Derived d -> Implicit.Labels.next_in d ~edge:e ~lo ~hi

let iter_edge_labels t e f =
  match t.labelling with
  | Sets a -> Array.iter f (a.(e) :> int array)
  | Single l -> f l.(e)
  | Derived d -> Implicit.Labels.iter d ~edge:e f

(* ---------------------------------------------------------------- *)
(* Crossings.  The adjacency of the underlying graph *is* the crossing
   table — arcs carry edge ids, labels are looked up by id — so the
   iterators read two flat int arrays (or pure shape arithmetic) and
   allocate nothing. *)

let iter_crossings_out t v f = Graph.iter_out t.graph v f
let iter_crossings_in t v f = Graph.iter_in t.graph v f

let crossings_out t v =
  Array.map (fun (e, target) -> (e, target, labels t e)) (Graph.out_arcs t.graph v)

let crossings_in t v =
  Array.map (fun (e, source) -> (e, source, labels t e)) (Graph.in_arcs t.graph v)

let can_cross_at t ~src ~dst time =
  let found = ref false in
  Graph.iter_out t.graph src (fun e target ->
      if (not !found) && target = dst && edge_has_label t e time then
        found := true);
  !found

let pp ppf t =
  match t.labelling with
  | Derived d ->
    Format.fprintf ppf
      "temporal network on %a, lifetime=%d, derived labels (a=%d, r=%d)"
      Graph.pp t.graph t.lifetime (Implicit.Labels.alpha d)
      (Implicit.Labels.rolls_per_edge d)
  | Sets _ | Single _ ->
    Format.fprintf ppf "temporal network on %a, lifetime=%d, labels=%d"
      Graph.pp t.graph t.lifetime (label_count t)
