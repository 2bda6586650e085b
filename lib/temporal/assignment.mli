(** Label assignments: how a static graph becomes a temporal network.

    Random assignments realise the paper's models — UNI-CASE (one uniform
    label per edge, Definition 4), the [r]-labels-per-edge experiment of
    §4–5, and the F-CASE extension — while deterministic assignments
    provide fixtures and the OPT-side constructions live in {!Opt}. *)

val uniform_single : Prng.Rng.t -> Sgraph.Graph.t -> a:int -> Tgraph.t
(** UNI-CASE: every edge gets exactly one label, uniform on [{1..a}],
    independently (Definition 4).  With [a = n] this is the Normalized
    U-RTN of §3. *)

val normalized_uniform : Prng.Rng.t -> Sgraph.Graph.t -> Tgraph.t
(** {!uniform_single} with [a = n] — the Normalized U-RTN. *)

val uniform_single_implicit : Prng.Rng.t -> Sgraph.Graph.t -> a:int -> Tgraph.t
(** UNI-CASE on the implicit backend: one [bits64] draw from [rng]
    seeds a derived-label instance ({!Tgraph.of_derived}) whose labels
    are recomputed per query instead of stored — O(1) label memory at
    build time, O(n log n) expected working set under the kernels'
    lazy prefix streams.  [Tgraph.materialize] of the result is
    label-identical to it, so every statistic agrees byte-for-byte
    with the dense twin.  The label values differ from what
    {!uniform_single} would draw from the same [rng] state (different
    site function, same uniform marginal). *)

val uniform_multi_implicit :
  Prng.Rng.t -> Sgraph.Graph.t -> a:int -> r:int -> Tgraph.t
(** [r] i.i.d. uniform labels per edge on the implicit backend;
    collisions collapse on query exactly as {!uniform_multi}'s sets
    do.  @raise Invalid_argument if [r < 1] (a derived instance cannot
    represent label-free edges). *)

val uniform_multi : Prng.Rng.t -> Sgraph.Graph.t -> a:int -> r:int -> Tgraph.t
(** Each edge gets [r] labels drawn i.i.d. uniform on [{1..a}].  Labels
    form a *set*, so collisions collapse (irrelevant for the paper's
    bounds, which only ever ask whether some label hits an interval).
    With [r = 1] it is {!uniform_single} — the same draws in the same
    order — and yields the flat single-label layout
    ({!Tgraph.of_flat_arcs}), with no per-edge [Label.t].
    @raise Invalid_argument if [r < 0]. *)

val of_dist :
  Prng.Rng.t -> Prng.Dist.t -> Sgraph.Graph.t -> a:int -> r:int -> Tgraph.t
(** F-CASE: [r] i.i.d. labels per edge from an arbitrary distribution
    over [{1..a}] (paper §2, Note). *)

val periodic :
  Prng.Rng.t -> Sgraph.Graph.t -> a:int -> period:int -> Tgraph.t
(** Correlated availability: each edge is up at every [period]-th moment
    starting from its own uniformly random phase — duty-cycled radios,
    scheduled ferries.  [⌈(a - phase) / period⌉] labels per edge.
    @raise Invalid_argument if [period < 1]. *)

val bursty :
  Prng.Rng.t -> Sgraph.Graph.t -> a:int -> burst:int -> rate:float -> Tgraph.t
(** Correlated availability: bursts of [burst] consecutive moments; a
    burst starts at each moment with probability [rate] (when no burst
    is running) — the contact-run pattern mobility produces.  Edges can
    end up empty when no burst fires.
    @raise Invalid_argument if [burst < 1] or [rate] outside [\[0,1\]]. *)

val constant : Sgraph.Graph.t -> a:int -> Label.t -> Tgraph.t
(** Every edge carries the same label set — e.g. the "same [d] consecutive
    labels per edge" global-coordination assignment of §1. *)

val of_fun : Sgraph.Graph.t -> a:int -> (int -> Label.t) -> Tgraph.t
(** Arbitrary per-edge assignment by edge id. *)

val all_times : Sgraph.Graph.t -> a:int -> Tgraph.t
(** Every edge available at every time in [{1..a}]: the static-graph
    limit, in which temporal distance collapses to hop distance. *)
