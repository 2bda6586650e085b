(** The time-edge stream of a temporal network, materialized lazily as
    a label-bounded prefix — for every label layout.

    A {!view} with [bound = B] holds exactly the stream entries with
    label [<= B], byte-identical to the corresponding prefix of the
    whole counting-sorted stream (label ascending, ties in emission
    order: edge id ascending, labels of one edge ascending, u->v before
    v->u).  Views for growing bounds are byte prefixes of each other,
    so kernels keep their stream indices across {!extend} and resume
    scanning exactly where they stopped.

    The labels come from a {!source}: recomputed rolls ([Rolled], the
    implicit backend) or stored arrays ([Flat], one label per edge;
    [Sets], sorted duplicate-free label sets).  A stored source carries
    its per-label histogram, so each band is allocated at its exact
    length and written by one scatter pass.

    Views are immutable and published through an [Atomic]; builders
    serialize on a mutex and follow a fixed doubling bound schedule, so
    each prefix step is built exactly once per instance regardless of
    how many domains race — the [implicit.label_rolls] probe stays
    deterministic at any [--jobs]. *)

type source =
  | Rolled of Labels.t  (** derived labels, rolled per band *)
  | Flat of { label : int array; histogram : int array }
      (** [label.(e)] is the one label of edge [e] *)
  | Sets of { labels : int array array; histogram : int array }
      (** [labels.(e)] is edge [e]'s labels, ascending, distinct *)
(** For the stored layouts, [histogram.(l)] is the number of stream
    entries with label [l] (directions counted: two per label of an
    undirected edge), for [l] in [1..lifetime]; length [lifetime + 1].
    The stream borrows the arrays; the caller must not mutate them. *)

type view = {
  bound : int;  (** every entry with label [<= bound] is present *)
  complete : bool;  (** [bound >= lifetime]: this is the whole stream *)
  te_src : int array;
  te_dst : int array;
  te_label : int array;
  te_edge : int array;
}

type t

val create : Sgraph.Graph.t -> source -> lifetime:int -> t
(** Nothing is built here; the first {!extend} builds the first prefix
    (bound 64, capped at the lifetime; each later band doubles it).
    Labels must lie in [1..lifetime] and agree with the histogram —
    the caller validates them.
    @raise Invalid_argument if [lifetime < 1] or a histogram has the
    wrong length. *)

val length : t -> int option
(** Length of the whole stream, without building it: [Some] on stored
    sources (read off the histogram), [None] on [Rolled]. *)

val view : t -> view
(** The currently published prefix (initially empty with [bound = 0]).
    Lock-free. *)

val extend : t -> past:int -> bool
(** [extend t ~past] ensures the published prefix reaches strictly past
    bound [past] (or is complete).  Returns [false] iff the stream is
    complete and holds nothing beyond [past] — i.e. there is nothing
    left to scan for a caller that has consumed a view with that
    bound. *)

val force_complete : t -> view
(** Build everything past the current bound in one band straight to
    the lifetime, and return the complete stream. *)
