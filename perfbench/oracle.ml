(* Reference answers for serve replies: arrival rows computed
   in-process by the scalar foremost sweep, on a corpus identical to
   the server's, before the replies are timed. *)

module Proto = Serve.Proto
open Temporal

type op = Foremost of int  (** target *) | Arrivals

let request ~instance ~source op =
  let q = { Proto.instance; source; target = 0; deadline_ms = 0 } in
  Proto.encode_request
    (match op with
    | Foremost target -> Proto.Foremost { q with Proto.target }
    | Arrivals -> Proto.Arrivals q)

let expected row = function
  | Foremost t -> Proto.Ok_value (if row.(t) = max_int then None else Some row.(t))
  | Arrivals -> Proto.Ok_vector row

(* A reply is correct only if it decodes to exactly the oracle's
   answer; a typed server error is a failure, not a wrong answer. *)
let check ~row op reply : Loadgen.verdict =
  match Proto.decode_response reply with
  | Error m -> Loadgen.Wrong ("undecodable reply: " ^ m)
  | Ok (Proto.Error (code, m)) ->
    Loadgen.Failed (Proto.error_code_to_string code ^ ": " ^ m)
  | Ok r ->
    if r = expected row op then Loadgen.Ok
    else
      Loadgen.Wrong
        (Printf.sprintf "got %s, expected %s" (Proto.render_response r)
           (Proto.render_response (expected row op)))

(* The scalar foremost sweep, an independent path to one row. *)
let scalar_row net s = Array.sub (Foremost.arrivals_borrowed net s) 0 (Tgraph.n net)
