(* The pipeline workloads: E1 and E23 trials through Sim.Estimators at
   -j1, in fresh processes so that their memory high-water mark and
   their set-up time are the workload's own.

   The parent re-executes this binary with --child; the child talks
   back on its standard output with lines starting with '@'. *)

module Rng = Prng.Rng
module Clock = Obs.Clock

type timed = { rng : Rng.t; diameter : int option; ms : float }

(* Set-up as a user pays it: the graph, then one untimed trial.  Each
   segment of a run draws its trials from its own split of the seed. *)
let setup shape ~seed ~segment =
  Exec.Pool.set_jobs 1;
  Trials.set_backend shape;
  let g = Trials.graph shape in
  let master = (Rng.split_n (Rng.create seed) (segment + 1)).(segment) in
  ignore (Trials.run shape g (Rng.split master));
  (g, master)

let timed_trials shape g master ~seconds =
  let t0 = Clock.now () in
  let stop = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let rec loop acc =
    if Clock.now () >= stop then List.rev acc
    else begin
      let rng = Rng.split master in
      let kept = Rng.copy rng in
      let s = Clock.now () in
      let diameter = Trials.run shape g rng in
      let ms = Clock.ns_to_ms (Clock.elapsed_ns ~since:s) in
      loop ({ rng = kept; diameter; ms } :: acc)
    end
  in
  let trials = Array.of_list (loop []) in
  (trials, Clock.ns_to_s (Clock.elapsed_ns ~since:t0))

(* Every trial of a segment against its oracle.  E1: the flat-label
   path on every trial, the scalar kernel on the first and last.  E23:
   the materialized dense twin on the first trial (a full dense build
   at n = 2048); every other E23 diameter must be a label of the
   instance's lifetime. *)
let verify shape g trials =
  let last = Array.length trials - 1 in
  let twin = lazy (Sgraph.Gen.clique Sgraph.Graph.Directed (Trials.n_of shape)) in
  let wrong = ref 0 in
  Array.iteri
    (fun i t ->
      let expected =
        match shape, g with
        | Trials.E1 _, Some g -> Some (Trials.oracle_e1 g t.rng ~scalar:(i = 0 || i = last))
        | Trials.E23 n, _ when i = 0 ->
          Some (Trials.oracle_e23 (Lazy.force twin) n t.rng)
        | _ -> None
      in
      let bad =
        match expected with
        | Some e -> e <> t.diameter
        | None -> not (Trials.plausible (Trials.n_of shape) t.diameter)
      in
      if bad then begin
        incr wrong;
        Out.note "trial %d: diameter %s, oracle %s" i (Trials.show t.diameter)
          (match expected with Some e -> Trials.show e | None -> "a label in [1, n]")
      end)
    trials;
  !wrong

(* ---- the child process --------------------------------------------- *)

let proto fmt = Printf.ksprintf (fun s -> print_string ("@" ^ s ^ "\n"); flush stdout) fmt

(* A measuring child reports every trial's time, in order, and checks
   the trials only after the timed phase. *)
let child ~mode shape ~seed ~segment ~seconds =
  let g, master = setup shape ~seed ~segment in
  proto "setup_end %Ld" (Clock.now ());
  if mode = "run" then begin
    let trials, wall = timed_trials shape g master ~seconds in
    let peak = Rpc.self_peak_mib () in
    let wrong = verify shape g trials in
    Array.iter (fun t -> proto "trial %.17g" t.ms) trials;
    proto "wall %.17g" wall;
    proto "rss %.17g" peak;
    proto "count %d %d" (Array.length trials) wrong;
    if wrong > 0 then proto "fail %d trials disagree with the oracle" wrong
  end

(* Run one child; [t0] is taken before the spawn, so set-up counts the
   process start.  Returns (set-up seconds, protocol lines). *)
let spawn_child ~mode ~workload ~seed ~segment ~seconds =
  let argv =
    [| Sys.executable_name; "--child"; mode; "--workload"; workload; "--seed";
       string_of_int seed; "--segment"; string_of_int segment; "--seconds";
       Printf.sprintf "%.17g" seconds |]
  in
  let t0 = Clock.now () in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let rec read acc =
    match input_line ic with
    | l -> read (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | st -> Out.fail "%s child exited with %s" mode (Rpc.status_to_string st));
  let setup_end =
    List.find_map
      (fun l -> try Scanf.sscanf l "@setup_end %Ld" Option.some with _ -> None)
      lines
  in
  match setup_end with
  | None -> Out.fail "%s child reported no set-up time" mode
  | Some t -> (Clock.ns_to_s (Int64.sub t t0), lines)

(* The host's speed drifts by half again in episodes of a few seconds,
   so a run is sampled evenly across its length: the measuring time is
   split over [segments] fresh measuring children, and a set-up-only
   child runs before the first, between each two and after the last.
   Set-up is the median of all eleven set-ups, the peak RSS the largest
   high-water mark of the measuring children. *)
let segments = 5

(* Trials per window of the per-trial median (about half a second), and
   per window of the tail (the tail is then each window's p80). *)
let median_window = 5
let tail_window = 50

let run_e2e ~workload ~seed ~seconds acc =
  let spawn mode segment =
    spawn_child ~mode ~workload ~seed ~segment ~seconds:(seconds /. float_of_int segments)
  in
  let setups = ref [] and runs = ref [] and rss = ref [] and wall = ref 0. in
  let setup_only () = setups := fst (spawn "setup" 0) :: !setups in
  setup_only ();
  for segment = 0 to segments - 1 do
    let s, lines = spawn "run" segment in
    setups := s :: !setups;
    let ms = ref [] in
    List.iter
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "@trial"; v ] -> ms := float_of_string v :: !ms
        | [ "@wall"; v ] -> wall := !wall +. float_of_string v
        | [ "@rss"; v ] -> rss := float_of_string v :: !rss
        | [ "@count"; a; w ] ->
          Out.count acc ~attempted:(int_of_string a) ~failed:(int_of_string w)
        | "@fail" :: rest -> Out.fail "%s" (String.concat " " rest)
        | "@setup_end" :: _ -> ()
        | _ -> print_endline l)
      lines;
    runs := Array.of_list (List.rev !ms) :: !runs;
    setup_only ()
  done;
  let runs = List.rev !runs in
  let all = Array.concat runs in
  if Array.length all = 0 then Out.fail "no trial was timed";
  Out.add acc "trials_per_s" (float_of_int (Array.length all) /. !wall) "1/s";
  (match Pct.windowed_median runs ~size:median_window with
  | Some (v, k) ->
    Out.add acc "trial_p50_ms" v "ms";
    Out.note "trial_p50_ms is the mean over %d windows of each window's median trial time" k
  | None -> Out.fail "no trial was timed");
  (match Pct.windowed_tail all ~size:tail_window with
  | Some (v, t, k) ->
    Out.note "trial_tail_ms %.6g ms: median over %d windows of each window's %s" v k
      (Pct.describe t)
  | None -> Out.note "%d trials are too few for a tail" (Array.length all));
  Out.add acc "peak_rss_mb" (List.fold_left Float.max 0. !rss) "MiB";
  Out.add acc "setup_s" (Stats.Quantile.median (Array.of_list !setups)) "s"
