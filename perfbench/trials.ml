(* The experiment pipeline's trials, three ways: as the experiments run
   them (through Sim.Estimators), decomposed into one span per layer
   call for the traced run, and recomputed by an oracle.

   Trial i runs on the i-th split of the workload's master stream.
   Sim.Runner.map derives the trial's own stream from that with
   Rng.split_n, so the decomposed trial and the oracle start from a
   copy of it and make exactly the estimator's draws. *)

module Rng = Prng.Rng
module Span = Obs.Span
module Clock = Obs.Clock
open Temporal

type shape =
  | E1 of int  (** dense clique, r = 1, a = n: E1's estimator *)
  | E23 of int  (** implicit clique, a = n: E23's estimator *)

let n_of = function E1 n | E23 n -> n

(* The static graph a shape's trials run on, as the estimator builds
   it.  E23's estimator builds its O(1) implicit clique itself on every
   call, so nothing is kept. *)
let graph = function
  | E1 n -> Some (Sgraph.Gen.clique Sgraph.Graph.Directed n)
  | E23 _ -> None

let set_backend = function
  | E1 _ -> Sim.Backend.set Sim.Backend.Dense
  | E23 _ -> Sim.Backend.set Sim.Backend.Implicit

let diameter_of (st : Sim.Estimators.diameter_stats) =
  if st.Sim.Estimators.disconnected = 1 then None
  else Some (int_of_float st.Sim.Estimators.samples.(0))

(* One trial through the experiment's own entry point. *)
let run shape g rng =
  match shape, g with
  | E1 n, Some g ->
    diameter_of (Sim.Estimators.temporal_diameter rng g ~a:n ~r:1 ~trials:1)
  | E23 n, _ ->
    diameter_of
      (Sim.Estimators.derived_clique_diameter rng ~n ~sample:None ~trials:1)
  | E1 _, None -> invalid_arg "Trials.run: E1 needs its graph"

let trial_stream rng = (Rng.split_n (Rng.copy rng) 1).(0)

(* ---- traced decomposition ----------------------------------------- *)

type traced = {
  diameter : int option;
  prefix_bound : int;  (** E23: stream prefix after the first sweep *)
}

let root_name = function E1 _ -> "e1.trial" | E23 _ -> "e23.trial"

(* The same trial as [run], one span per layer call, under the trial's
   id as span context. *)
let traced shape g ~id rng =
  Spans.under (Printf.sprintf "trial-%d" id) (fun () ->
      Span.with_span (root_name shape) (fun () ->
          let trial_rng = trial_stream rng in
          match shape, g with
          | E1 n, Some g ->
            let m = Sgraph.Graph.m g in
            let drawn = Array.make m 0 in
            Span.with_span "prng.draw" (fun () ->
                for e = 0 to m - 1 do
                  drawn.(e) <- 1 + Rng.int trial_rng n
                done);
            let boxed =
              Span.with_span "label.box" (fun () ->
                  Array.init m (fun e ->
                      Label.of_list (List.init 1 (fun _ -> drawn.(e)))))
            in
            let net =
              Span.with_span "tgraph.create" (fun () ->
                  Tgraph.create g ~lifetime:n boxed)
            in
            let d =
              Span.with_span "batch.diameter" (fun () ->
                  Distance.instance_diameter net)
            in
            { diameter = d; prefix_bound = 0 }
          | E23 n, _ ->
            let g = Sgraph.Gen.clique_implicit Sgraph.Graph.Directed n in
            let net =
              Span.with_span "tgraph.of_derived" (fun () ->
                  Assignment.uniform_single_implicit trial_rng g ~a:n)
            in
            let first =
              Span.with_span "implicit.first_sweep" (fun () ->
                  Distance.instance_diameter net)
            in
            let prefix_bound = Tgraph.stream_prefix_bound net in
            let again =
              Span.with_span "batch.diameter" (fun () ->
                  Distance.instance_diameter net)
            in
            if again <> first then
              Out.fail "implicit instance changed its diameter between sweeps";
            { diameter = first; prefix_bound }
          | E1 _, None -> invalid_arg "Trials.traced: E1 needs its graph"))

(* ---- oracle ------------------------------------------------------- *)

(* E1: the flat single-label path (Assignment.normalized_uniform) on
   the trial's stream makes the same draws as uniform_multi ~r:1, so
   its diameter must be equal; [scalar] also recomputes it with the
   per-source scalar kernel. *)
let oracle_e1 g rng ~scalar =
  let net = Assignment.normalized_uniform (trial_stream rng) g in
  let d = Distance.instance_diameter net in
  if scalar then begin
    let s = Distance.instance_diameter_scalar net in
    if s <> d then Out.fail "batched and scalar kernels disagree on an E1 trial"
  end;
  d

(* E23: the materialized dense twin of the trial's derived instance. *)
let oracle_e23 dense_clique n rng =
  let net = Assignment.uniform_single_implicit (trial_stream rng) dense_clique ~a:n in
  Distance.instance_diameter (Tgraph.materialize net)

let show = function None -> "disconnected" | Some d -> string_of_int d

(* What every diameter of a normalized clique must be: a label. *)
let plausible n = function Some d -> d >= 1 && d <= n | None -> false
