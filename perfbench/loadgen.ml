(* Single-process open-loop load generator: at most two threads of
   execution (the calling domain and one spawned domain) and two
   connections.

   A sender domain writes request j on connection j mod 2 at its due
   time t0 + j/rate whatever the server is doing; the calling domain
   reads both connections with select(2), one whole frame at a time.
   A connection answers in order, so the k-th reply on connection c is request 2k + c.
   Latency runs from the due time, so a stall is charged to every
   request it delays, and the sender's own lateness is kept apart to
   judge whether the generator kept up. *)

module Clock = Obs.Clock

type verdict = Ok | Wrong of string | Failed of string

type open_result = {
  latency_ms : float array;  (** due time to reply, answered requests *)
  late_ms : float array;  (** send time minus due time, every request *)
  ok : int;  (** answered and correct *)
  wrong : int;
  failed : int;  (** typed errors and unanswered requests *)
  first_wrong : string option;
}

(* Sleep until the due time.  No spinning: on a small host a spinning
   sender steals the core the server needs. *)
let wait_until due =
  let d = Int64.sub due (Clock.now ()) in
  if d > 0L then Unix.sleepf (Int64.to_float d /. 1e9)

let open_loop ~fds ~payloads ~rate ~check =
  let n = Array.length payloads in
  let conns = Array.length fds in
  let period = 1e9 /. rate in
  let t0 = Int64.add (Clock.now ()) 20_000_000L in
  let due j = Int64.add t0 (Int64.of_float (float_of_int j *. period)) in
  let sent = Array.make n 0L in
  let sender =
    Domain.spawn (fun () ->
        for j = 0 to n - 1 do
          wait_until (due j);
          Serve.Proto.write_frame fds.(j mod conns) payloads.(j);
          sent.(j) <- Clock.now ()
        done)
  in
  let latency = Array.make n nan in
  let replies = Array.make conns 0 in
  let got = ref 0 and ok = ref 0 and wrong = ref 0
  and failed = ref 0 and first_wrong = ref None in
  let give_up = Int64.add (due n) 60_000_000_000L in
  (try
     while !got < n && Clock.now () < give_up do
       let ready, _, _ = Unix.select (Array.to_list fds) [] [] 0.5 in
       List.iter
         (fun fd ->
           let c =
             let rec find i = if fds.(i) == fd then i else find (i + 1) in
             find 0
           in
           match Serve.Proto.read_frame ~deadline_s:60. fd with
           | Serve.Proto.Frame reply -> (
             let now = Clock.now () in
             let j = (replies.(c) * conns) + c in
             replies.(c) <- replies.(c) + 1;
             incr got;
             latency.(j) <- Clock.ns_to_ms (Int64.sub now (due j));
             match check j reply with
             | Ok -> incr ok
             | Wrong m ->
               incr wrong;
               if !first_wrong = None then first_wrong := Some m
             | Failed _ -> incr failed)
           | Serve.Proto.Eof | Serve.Proto.Timeout | Serve.Proto.Oversized _ ->
             Out.fail "load-generator connection %d broke mid-reply" c)
         ready
     done
   with e ->
     Domain.join sender;
     raise e);
  Domain.join sender;
  let answered = List.filter Float.is_finite (Array.to_list latency) in
  {
    latency_ms = Array.of_list answered;
    late_ms = Array.init n (fun j -> Clock.ns_to_ms (Int64.sub sent.(j) (due j)));
    ok = !ok;
    wrong = !wrong;
    failed = !failed + (n - !got);
    first_wrong = !first_wrong;
  }
