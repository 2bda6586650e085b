(** xoshiro256** pseudo-random generator (Blackman & Vigna, 2018).

    The workhorse generator used by {!Rng}: fast, 256 bits of state, passes
    the standard statistical batteries.  Seeded via {!Splitmix64} so that
    nearby integer seeds still give unrelated streams. *)

type t
(** Mutable generator state: the four 64-bit words, kept unboxed. *)

val create : int -> t
(** [create seed] seeds the four state words from a SplitMix64 stream. *)

val of_state : int64 -> int64 -> int64 -> int64 -> t
(** [of_state s0 s1 s2 s3] builds a generator from raw state words.  The
    state must not be all-zero.
    @raise Invalid_argument on the all-zero state. *)

val copy : t -> t
(** [copy t] is an independent clone replaying [t]'s future output. *)

val next : t -> int64
(** [next t] advances the state and returns the next 64-bit output. *)

val next_top62 : t -> int
(** [next_top62 t] is [Int64.to_int (Int64.shift_right_logical (next t) 2)]:
    the top 62 bits of the next output as a non-negative immediate
    [int] in [\[0, max_int\]].  It advances the state exactly as
    {!next} does but allocates nothing: {!Rng.int}, {!Rng.float} and
    {!Rng.bernoulli} draw through it. *)

val jump : t -> unit
(** [jump t] advances the state by 2{^128} steps — equivalent to discarding
    2{^128} outputs — which yields a non-overlapping subsequence usable as
    an independent stream. *)
