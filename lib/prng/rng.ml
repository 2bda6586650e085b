type t = Xoshiro256.t

let create seed = Xoshiro256.create seed
let copy = Xoshiro256.copy
let bits64 = Xoshiro256.next

let split t =
  let sm = Splitmix64.of_int64 (Xoshiro256.next t) in
  let s0 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s3 = Splitmix64.next sm in
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then Xoshiro256.of_state 1L 2L 3L 4L
  else Xoshiro256.of_state s0 s1 s2 s3

let split_n t k = Array.init k (fun _ -> split t)

(* Rejection sampling on the top 62 bits: [limit] is the largest
   multiple of [bound] not above [max_int] (= 2^62 - 1), values at or
   past it are redrawn, so [v mod bound] is exactly uniform.  Immediate
   ints throughout, so a draw allocates nothing. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let limit = max_int / bound * bound in
  let v = ref (Xoshiro256.next_top62 t) in
  while !v >= limit do
    v := Xoshiro256.next_top62 t
  done;
  !v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

(* [next_top62 t lsr 9] is [bits64 t >>> 11]: the top 53 bits. *)
let float t = float_of_int (Xoshiro256.next_top62 t lsr 9) *. 0x1p-53 [@@inline]

let bool t = Int64.logand (bits64 t) 1L = 1L
let bernoulli t p = float t < p
