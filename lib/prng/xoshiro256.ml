(* The four state words live in a 32-byte buffer read and written with
   [Bytes.get/set_int64_le]: the native compiler keeps those int64s
   unboxed, whereas every store into a mutable [int64] record field
   allocates a fresh box.  Words are at byte offsets 0, 8, 16, 24. *)
type t = Bytes.t

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))
[@@inline]

let of_state s0 s1 s2 s3 =
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then
    invalid_arg "Xoshiro256.of_state: all-zero state";
  let t = Bytes.create 32 in
  Bytes.set_int64_le t 0 s0;
  Bytes.set_int64_le t 8 s1;
  Bytes.set_int64_le t 16 s2;
  Bytes.set_int64_le t 24 s3;
  t

let create seed =
  let sm = Splitmix64.create seed in
  let s0 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s3 = Splitmix64.next sm in
  (* SplitMix64 output is never all-zero across four draws in practice, but
     guard anyway so [of_state] cannot reject. *)
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then of_state 1L 2L 3L 4L
  else of_state s0 s1 s2 s3

let copy = Bytes.copy

(* One xoshiro256** step.  Inlined into [next] and [next_top62] so the
   result stays unboxed until a caller needs it as an [int64]. *)
let step t =
  let s0 = Bytes.get_int64_le t 0 in
  let s1 = Bytes.get_int64_le t 8 in
  let s2 = Bytes.get_int64_le t 16 in
  let s3 = Bytes.get_int64_le t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  Bytes.set_int64_le t 8 (Int64.logxor s1 s2);
  Bytes.set_int64_le t 0 (Int64.logxor s0 s3);
  Bytes.set_int64_le t 16 (Int64.logxor s2 tmp);
  Bytes.set_int64_le t 24 (rotl s3 45);
  result
[@@inline]

let next t = step t
let next_top62 t = Int64.to_int (Int64.shift_right_logical (step t) 2)

let jump_table =
  [|
    0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL;
    0x39ABDC4529B1661CL;
  |]

let jump t =
  let acc = Bytes.make 32 '\000' in
  Array.iter
    (fun word ->
      for b = 0 to 63 do
        if Int64.logand word (Int64.shift_left 1L b) <> 0L then
          for off = 0 to 3 do
            let i = 8 * off in
            Bytes.set_int64_le acc i
              (Int64.logxor (Bytes.get_int64_le acc i) (Bytes.get_int64_le t i))
          done;
        ignore (step t)
      done)
    jump_table;
  Bytes.blit acc 0 t 0 32
