module Graph = Sgraph.Graph

(* The time-edge stream, materialized lazily as a label-bounded
   *prefix*.  A view with [bound = B] holds exactly the entries whose
   label is <= B, in counting-sort order: label ascending, ties in
   emission order (edge id ascending, labels of one edge ascending,
   u->v before v->u).  Because that order is fixed, the view for bound
   B is a byte prefix of the view for bound 2B — so kernels that
   exhaust a view keep their stream indices (arrival predecessors, scan
   positions) and continue exactly where they stopped after an
   {!extend}.

   Every label layout goes through here.  A [Rolled] source (derived
   labels) recomputes its rolls per band; a [Flat] or [Sets] source
   reads stored labels, and its per-label histogram — counted by the
   caller in the same pass that validates the labels — fixes every
   entry's final position up front.

   On the normalized U-RTN clique the temporal diameter is
   Theta(log n), so sweeps only ever consume labels up to O(log n) out
   of a lifetime of n: the prefix holds ~ m * B / a entries — O(n log n)
   for the clique — while the whole stream holds all m * r.  That ratio
   is the whole point: at n = 512 the first band (B = 64) is an eighth
   of the stream and usually the only one a diameter sweep reads.

   Concurrency: views are immutable and published through an [Atomic]
   (release/acquire), so readers never lock.  Builders serialize on a
   mutex and re-check the published bound before building, so each step
   of the deterministic bound schedule (B0, 2*B0, ... capped at the
   lifetime) is built exactly once per instance no matter how many
   domains race — keeping the [implicit.label_rolls] probe identical at
   any [--jobs]. *)

type source =
  | Rolled of Labels.t
  | Flat of { label : int array; histogram : int array }
  | Sets of { labels : int array array; histogram : int array }

type view = {
  bound : int;  (* every entry with label <= bound is present *)
  complete : bool;  (* bound >= lifetime: this is the whole stream *)
  te_src : int array;
  te_dst : int array;
  te_label : int array;
  te_edge : int array;
}

type t = {
  graph : Graph.t;
  source : source;
  lifetime : int;
  initial_bound : int;
  (* Stored sources: [offsets.(l)] is the stream position of the first
     entry with label [l], for [l] in [1 .. lifetime + 1]; so
     [offsets.(b + 1)] is the length of the view with bound [b].  Empty
     on a [Rolled] source, whose entry count is never computed. *)
  offsets : int array;
  cur : view Atomic.t;
  lock : Mutex.t;
}

let default_initial_bound = 64

let offsets_of_histogram ~lifetime histogram =
  if Array.length histogram <> lifetime + 1 then
    invalid_arg "Implicit.Stream.create: histogram length must be lifetime + 1";
  let offsets = Array.make (lifetime + 2) 0 in
  for l = 1 to lifetime do
    offsets.(l + 1) <- offsets.(l) + histogram.(l)
  done;
  offsets

let create graph source ~lifetime =
  if lifetime < 1 then invalid_arg "Implicit.Stream.create: lifetime < 1";
  let offsets =
    match source with
    | Rolled _ -> [||]
    | Flat { histogram; _ } | Sets { histogram; _ } ->
      offsets_of_histogram ~lifetime histogram
  in
  {
    graph;
    source;
    lifetime;
    initial_bound = Stdlib.min lifetime default_initial_bound;
    offsets;
    cur =
      Atomic.make
        {
          bound = 0;
          complete = false;
          te_src = [||];
          te_dst = [||];
          te_label = [||];
          te_edge = [||];
        };
    lock = Mutex.create ();
  }

let view t = Atomic.get t.cur

let length t =
  match t.source with
  | Rolled _ -> None
  | Flat _ | Sets _ -> Some t.offsets.(t.lifetime + 1)

(* Growable quad buffer for one rolled collect pass. *)
type buf = {
  mutable len : int;
  mutable src : int array;
  mutable dst : int array;
  mutable lab : int array;
  mutable edg : int array;
}

let buf_push b u v l e =
  let cap = Array.length b.src in
  if b.len = cap then begin
    let cap' = Stdlib.max 1024 (2 * cap) in
    let grow a = Array.append a (Array.make (cap' - cap) 0) in
    b.src <- grow b.src;
    b.dst <- grow b.dst;
    b.lab <- grow b.lab;
    b.edg <- grow b.edg
  end;
  b.src.(b.len) <- u;
  b.dst.(b.len) <- v;
  b.lab.(b.len) <- l;
  b.edg.(b.len) <- e;
  b.len <- b.len + 1

(* Rolled band: one roll pass over all edges, keeping entries with
   lo < label <= hi in emission order, then a stable counting sort by
   label appended onto [prev]'s arrays.  All labels in the band exceed
   [prev.bound], so old arrays + sorted band is exactly the stream
   prefix for [hi]. *)
let build_rolled_band t labels (prev : view) ~hi =
  let lo = prev.bound in
  let g = t.graph in
  let undirected = not (Graph.is_directed g) in
  let r = Labels.rolls_per_edge labels in
  let scratch = Array.make r 0 in
  let b = { len = 0; src = [||]; dst = [||]; lab = [||]; edg = [||] } in
  Graph.iter_edges g (fun e u v ->
      if r = 1 then begin
        let l = Labels.roll labels ~edge:e ~k:0 in
        if l > lo && l <= hi then begin
          buf_push b u v l e;
          if undirected then buf_push b v u l e
        end
      end
      else begin
        let cnt = Labels.fill_sorted labels ~edge:e scratch in
        for j = 0 to cnt - 1 do
          let l = scratch.(j) in
          if l > lo && l <= hi then begin
            buf_push b u v l e;
            if undirected then buf_push b v u l e
          end
        done
      end);
  Labels.note_bulk_rolls (Graph.m g * r);
  let old_len = Array.length prev.te_label in
  let total = old_len + b.len in
  let extendarr old = Array.append old (Array.make b.len 0) in
  let te_src = extendarr prev.te_src in
  let te_dst = extendarr prev.te_dst in
  let te_label = extendarr prev.te_label in
  let te_edge = extendarr prev.te_edge in
  (* Stable counting sort of the band into the tail. *)
  let counts = Array.make (hi - lo + 1) 0 in
  for i = 0 to b.len - 1 do
    let c = b.lab.(i) - lo in
    counts.(c) <- counts.(c) + 1
  done;
  let sum = ref old_len in
  for c = 1 to hi - lo do
    let k = counts.(c) in
    counts.(c) <- !sum;
    sum := !sum + k
  done;
  assert (!sum = total);
  for i = 0 to b.len - 1 do
    let c = b.lab.(i) - lo in
    let pos = counts.(c) in
    counts.(c) <- pos + 1;
    te_src.(pos) <- b.src.(i);
    te_dst.(pos) <- b.dst.(i);
    te_label.(pos) <- b.lab.(i);
    te_edge.(pos) <- b.edg.(i)
  done;
  { bound = hi; complete = hi >= t.lifetime; te_src; te_dst; te_label; te_edge }

(* Stored band: the histogram already fixed every entry's position, so
   the arrays are allocated at their exact final length, the old
   prefix is blitted in, and one pass over the edges scatters each
   label in (lo, hi] to its slot through a per-label cursor. *)
let build_stored_band t (prev : view) ~hi =
  let lo = prev.bound in
  let old_len = Array.length prev.te_label in
  let len = t.offsets.(hi + 1) in
  let extendarr old =
    let a = Array.make len 0 in
    Array.blit old 0 a 0 old_len;
    a
  in
  let te_src = extendarr prev.te_src in
  let te_dst = extendarr prev.te_dst in
  let te_label = extendarr prev.te_label in
  let te_edge = extendarr prev.te_edge in
  (* [next.(l - lo)]: where the next entry with label l goes. *)
  let next = Array.sub t.offsets lo (hi - lo + 1) in
  let undirected = not (Graph.is_directed t.graph) in
  let[@inline] put e u v l =
    if l > lo && l <= hi then begin
      let pos = next.(l - lo) in
      te_src.(pos) <- u;
      te_dst.(pos) <- v;
      te_label.(pos) <- l;
      te_edge.(pos) <- e;
      if undirected then begin
        te_src.(pos + 1) <- v;
        te_dst.(pos + 1) <- u;
        te_label.(pos + 1) <- l;
        te_edge.(pos + 1) <- e;
        next.(l - lo) <- pos + 2
      end
      else next.(l - lo) <- pos + 1
    end
  in
  (match t.source with
  | Flat { label; _ } -> Graph.iter_edges t.graph (fun e u v -> put e u v label.(e))
  | Sets { labels; _ } ->
    (* Labels are ascending: stop at the first one past the band, so
       the bands of a sweep that runs to the end visit O(M) labels in
       all, not O(M) each. *)
    Graph.iter_edges t.graph (fun e u v ->
        let ls = labels.(e) in
        let j = ref 0 in
        while !j < Array.length ls && ls.(!j) <= hi do
          put e u v ls.(!j);
          incr j
        done)
  | Rolled _ -> assert false);
  { bound = hi; complete = hi >= t.lifetime; te_src; te_dst; te_label; te_edge }

let build_band t prev ~hi =
  match t.source with
  | Rolled labels -> build_rolled_band t labels prev ~hi
  | Flat _ | Sets _ -> build_stored_band t prev ~hi

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let extend t ~past =
  let v = Atomic.get t.cur in
  if v.bound > past then true
  else if v.complete then false
  else begin
    with_lock t (fun () ->
        (* Re-check under the lock: another domain may have published a
           deeper prefix while we waited.  Each schedule step is built
           at most once per instance. *)
        let rec grow () =
          let v = Atomic.get t.cur in
          if v.bound > past || v.complete then ()
          else begin
            let hi =
              if v.bound = 0 then t.initial_bound
              else Stdlib.min t.lifetime (2 * v.bound)
            in
            Atomic.set t.cur (build_band t v ~hi);
            grow ()
          end
        in
        grow ());
    (Atomic.get t.cur).bound > past
  end

let force_complete t =
  if not (Atomic.get t.cur).complete then
    with_lock t (fun () ->
        let v = Atomic.get t.cur in
        if not v.complete then Atomic.set t.cur (build_band t v ~hi:t.lifetime));
  Atomic.get t.cur
