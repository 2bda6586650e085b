(* The traced run: the workload once more with a span around each
   layer call made from the benchmark's own code, then the probes of
   the layers the workload does not call, all kept in memory and
   written once as a schema-v2 trace.  Per-layer values are medians of
   span self times.

   A layer the workload never calls is still reported, from reference
   calls at fixed inputs (an E1 trial at n = 512, an E23 trial at
   n = 2048, probe servers over the workload's instance), so that
   every workload carries every metric and a change to that layer is
   expected to leave the workload's end-to-end figures flat.

   trace.overhead_pct compares the same decomposed trials with tracing
   on and off.  They alternate, trial by trial, so that heap warm-up
   and host drift fall on both sides alike. *)

module Rng = Prng.Rng
module Span = Obs.Span
module Clock = Obs.Clock

let e1_ref = Trials.E1 512
let e23_ref = Trials.E23 2048

(* Decomposed trials on [shape] for [seconds] (at least [min] of
   them), each timed and checked against its oracle.  Trial i runs
   with tracing off when [plain i]. *)
let traced_trials shape g master ~first_id ~seconds ~min ~plain =
  let stop = Int64.add (Clock.now ()) (Int64.of_float (seconds *. 1e9)) in
  let rec loop i acc =
    if i >= min && Clock.now () >= stop then List.rev acc
    else begin
      let rng = Rng.split master in
      Obs.Control.set_enabled (not (plain i));
      let t0 = Clock.now () in
      let t = Trials.traced shape g ~id:(first_id + i) (Rng.copy rng) in
      let ms = Clock.ns_to_ms (Clock.elapsed_ns ~since:t0) in
      loop (i + 1) ((rng, plain i, t, ms) :: acc)
    end
  in
  let trials = loop 0 [] in
  (* Checked with tracing off: the oracle's calls are not the trial's. *)
  Obs.Control.set_enabled false;
  List.iteri
    (fun i (rng, _, (t : Trials.traced), _) ->
      let expected =
        match shape, g with
        | Trials.E1 _, Some g -> Trials.oracle_e1 g rng ~scalar:false
        | Trials.E23 n, _ when i = 0 ->
          Trials.oracle_e23 (Sgraph.Gen.clique Sgraph.Graph.Directed n) n rng
        | Trials.E23 n, _ ->
          if not (Trials.plausible n t.Trials.diameter) then
            Out.fail "traced trial %d: diameter %s is not a label in [1, %d]" (first_id + i)
              (Trials.show t.Trials.diameter) n;
          t.Trials.diameter
        | Trials.E1 _, None -> invalid_arg "traced_trials"
      in
      if expected <> t.Trials.diameter then
        Out.fail "traced trial %d: diameter %s, oracle %s" (first_id + i)
          (Trials.show t.Trials.diameter) (Trials.show expected))
    trials;
  Obs.Control.set_enabled true;
  List.map (fun (_, plain, t, ms) -> (plain, t, ms)) trials

(* The pipeline layers from the trial spans.  [primary] is the trial
   kind whose kernel time batch.diameter reports. *)
let trial_report acc selfs ~primary ~prefix_bounds =
  let e1_m = float_of_int (let n = Trials.n_of e1_ref in n * (n - 1)) in
  let e1 = Trials.root_name e1_ref and e23 = Trials.root_name e23_ref in
  let ms x = x /. 1e6 and mib w = w *. 8. /. 1048576. in
  Out.add acc "sgraph.gen_ms" (ms (Spans.median_dur "sgraph.gen" selfs)) "ms";
  Out.add acc "prng.draw_ns" (Spans.median_self ~under:e1 "prng.draw" selfs /. e1_m) "ns";
  Out.add acc "prng.draw_bytes" (Spans.median_words ~under:e1 "prng.draw" selfs *. 8. /. e1_m) "bytes";
  Out.add acc "label.box_ns" (Spans.median_self ~under:e1 "label.box" selfs /. e1_m) "ns";
  Out.add acc "tgraph.create_ms" (ms (Spans.median_self ~under:e1 "tgraph.create" selfs)) "ms";
  Out.add acc "tgraph.create_mb" (mib (Spans.median_words ~under:e1 "tgraph.create" selfs)) "MiB";
  Out.add acc "batch.diameter_ms"
    (ms (Spans.median_dur ~under:(Trials.root_name primary) "batch.diameter" selfs)) "ms";
  (* Stream growth: the first sweep of a fresh implicit instance minus
     the second sweep of the same instance. *)
  let by_name = Hashtbl.create 256 in
  List.iter (fun ((r : Span.record), _) -> Hashtbl.replace by_name r.Span.name r) selfs;
  let streams =
    List.filter_map
      (fun ((r : Span.record), _) ->
        if Spans.leaf r.Span.name <> e23 then None
        else
          match
            ( Hashtbl.find_opt by_name (r.Span.name ^ "/implicit.first_sweep"),
              Hashtbl.find_opt by_name (r.Span.name ^ "/batch.diameter") )
          with
          | Some a, Some b -> Some (Int64.to_float (Int64.sub a.Span.dur_ns b.Span.dur_ns))
          | _ -> None)
      selfs
  in
  if streams = [] then Out.fail "trace has no complete E23 trial";
  Out.add acc "implicit.stream_ms" (ms (Stats.Quantile.median (Array.of_list streams))) "ms";
  Out.add acc "implicit.alloc_mb" (mib (Spans.median_words ~under:e23 "implicit.first_sweep" selfs)) "MiB";
  Out.add acc "implicit.prefix_bound"
    (float_of_int (List.fold_left ( + ) 0 prefix_bounds) /. float_of_int (List.length prefix_bounds))
    "labels";
  Out.add acc "stats.estimate_us" (Spans.median_dur "stats.estimate" selfs /. 1e3) "us";
  let root = Trials.root_name primary in
  let unacc = Spans.median_self root selfs in
  Out.note "unaccounted share of a traced %s: %.2f%%" root
    (100. *. unacc /. Spans.median_dur root selfs);
  Out.add acc "pipeline.unaccounted_ms" (ms unacc) "ms"

(* Reference trials of the shapes the workload does not run. *)
let reference_trials ~seed ~skip =
  let master = Rng.create (seed lxor 0x7ef) in
  let bounds = ref [] in
  let traced _ = false in
  if skip <> `E1 then
    ignore
      (traced_trials e1_ref (Trials.graph e1_ref) master ~first_id:100_000 ~seconds:0. ~min:3
         ~plain:traced);
  if skip <> `E23 then
    bounds :=
      List.map (fun (_, (t : Trials.traced), _) -> t.Trials.prefix_bound)
        (traced_trials e23_ref None master ~first_id:200_000 ~seconds:0. ~min:2 ~plain:traced);
  !bounds

let gen_spans build =
  for i = 1 to 3 do
    Spans.under (Printf.sprintf "gen-%d" i) (fun () ->
        ignore (Span.with_span "sgraph.gen" build))
  done

let finish ~trace_path =
  let recs = Spans.stop () in
  Spans.write trace_path recs;
  Out.note "trace: %d spans in %s" (List.length recs) trace_path;
  Spans.self_times recs

(* ---- the traced run ------------------------------------------------ *)

let pipeline acc shape ~workload ~seed ~seconds ~exe ~dir ~trace_path =
  let g, master = Pipeline.setup shape ~seed ~segment:0 in
  Spans.start ();
  gen_spans (fun () ->
      match shape with
      | Trials.E1 n -> Sgraph.Gen.clique Sgraph.Graph.Directed n
      | Trials.E23 n -> Sgraph.Gen.clique_implicit Sgraph.Graph.Directed n);
  let trials =
    traced_trials shape g master ~first_id:0 ~seconds ~min:6 ~plain:(fun i -> i mod 2 = 0)
  in
  Out.count acc ~attempted:(List.length trials) ~failed:0;
  let ms keep =
    Array.of_list (List.filter_map (fun (p, _, ms) -> if keep p then Some ms else None) trials)
  in
  ignore
    (Spans.under "estimate" (fun () ->
         Span.with_span "stats.estimate" (fun () -> Stats.Summary.of_array (ms (fun _ -> true)))));
  let ref_bounds =
    reference_trials ~seed ~skip:(match shape with Trials.E1 _ -> `E1 | Trials.E23 _ -> `E23)
  in
  let prefix_bounds =
    match shape with
    | Trials.E23 _ -> List.map (fun (_, (t : Trials.traced), _) -> t.Trials.prefix_bound) trials
    | Trials.E1 _ -> ref_bounds
  in
  (* The serve layers, on a probe corpus of the workload's instance. *)
  let n = Trials.n_of shape in
  let backend = match shape with Trials.E1 _ -> Sim.Backend.Dense | Trials.E23 _ -> Sim.Backend.Implicit in
  let line = Printf.sprintf "id=%s,family=clique,n=%d,a=%d,r=1,seed=%d" workload n n (seed land 0x3FFFFFFF) in
  let probed = Probes.run acc ~exe ~dir ~instance:workload ~line ~backend ~seed ~n in
  let selfs = finish ~trace_path in
  trial_report acc selfs ~primary:shape ~prefix_bounds;
  Probes.report acc selfs probed;
  let plain = ms Fun.id and traced = ms not in
  Out.note "trace overhead: median of %d traced trials against %d untraced, alternating"
    (Array.length traced) (Array.length plain);
  Out.add acc "trace.overhead_pct"
    (100. *. ((Stats.Quantile.median traced /. Stats.Quantile.median plain) -. 1.))
    "%"
