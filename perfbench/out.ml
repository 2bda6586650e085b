(* What a run reports: named metrics with units, the attempted/failed
   tallies behind them, and the one-line JSON document that closes
   standard output.  Human-readable context goes to standard output
   before that line. *)

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

type t = {
  mutable metrics : (string * float * string) list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
}

let create () = { metrics = []; attempted = 0; failed = 0 }

let note fmt = Printf.ksprintf (fun s -> print_string ("  " ^ s ^ "\n"); flush stdout) fmt

let add t name value unit =
  if not (Float.is_finite value) then fail "metric %s is not finite" name;
  if List.exists (fun (n, _, _) -> n = name) t.metrics then
    fail "metric %s reported twice" name;
  t.metrics <- (name, value, unit) :: t.metrics;
  note "%-26s %.6g %s" name value unit

let count t ~attempted ~failed =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + failed

(* Every value with all its digits: %.17g round-trips a double. *)
let json t =
  let metric (name, value, unit) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit
  in
  Printf.sprintf
    "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    t.attempted t.failed
    (String.concat ", " (List.rev_map metric t.metrics))
