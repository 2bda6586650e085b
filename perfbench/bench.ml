(* Entry point of the repository benchmark.  Normally started through
   run.py, which builds this executable and the ephemeral binary first:

     python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

   The last line of standard output is the run's JSON result; every
   line before it is human-readable context.  Any failure (an oracle
   mismatch, a missing binary, a probe server that never becomes
   ready, a dirty drain) exits non-zero without printing a result. *)

let shapes = [ ("pipeline_dense", Trials.E1 512); ("pipeline_implicit", Trials.E23 2048) ]

type args = {
  mutable workload : string option;
  mutable seed : int option;
  mutable seconds : float option;
  mutable trace : bool option;
  mutable serve_exe : string;
  mutable out : string;
  mutable commit : string;
  mutable child : string option;
  mutable segment : int;
  mutable self_test : bool;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload W --seed N --seconds S --trace 0|1 \
     [--serve-exe PATH] [--out DIR] [--commit REV] | --self-test";
  exit 2

let parse argv =
  let a =
    { workload = None; seed = None; seconds = None; trace = None;
      serve_exe = "_build/default/bin/main.exe"; out = "_perfbench"; commit = "unknown";
      child = None; segment = 0; self_test = false }
  in
  let rec go = function
    | [] -> ()
    | "--self-test" :: rest -> a.self_test <- true; go rest
    | flag :: v :: rest ->
      (match flag with
      | "--workload" when List.mem_assoc v shapes -> a.workload <- Some v
      | "--seed" -> a.seed <- int_of_string_opt v
      | "--seconds" -> a.seconds <- Option.bind (float_of_string_opt v) (fun s -> if s > 0. then Some s else None)
      | "--trace" when v = "0" || v = "1" -> a.trace <- Some (v = "1")
      | "--serve-exe" -> a.serve_exe <- v
      | "--out" -> a.out <- v
      | "--commit" -> a.commit <- v
      | "--child" when v = "run" || v = "setup" -> a.child <- Some v
      | "--segment" when Option.fold ~none:false ~some:(fun i -> i >= 0) (int_of_string_opt v) ->
        a.segment <- int_of_string v
      | _ -> usage ());
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  a

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let measure a ~workload ~seed ~seconds ~trace =
  let exe = a.serve_exe in
  if not (Sys.file_exists exe) then Out.fail "serve binary %s is missing" exe;
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n" workload seed seconds
    (if trace then 1 else 0);
  Printf.printf "  host: nproc=%d ocaml=%s commit=%s code-fingerprint=%s\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version a.commit
    Store.Fingerprint.sources_digest;
  Printf.printf "  serve binary: %s\n%!" exe;
  let dir =
    Filename.concat (Filename.concat a.out "work")
      (Printf.sprintf "%s-s%d-t%d" workload seed (if trace then 1 else 0))
  in
  if Sys.file_exists dir then Store.Fsio.remove_tree dir;
  mkdir_p dir;
  let trace_path =
    Filename.concat (Filename.concat a.out "traces") (Printf.sprintf "%s-seed%d.jsonl" workload seed)
  in
  if trace then begin
    mkdir_p (Filename.dirname trace_path);
    if Sys.file_exists trace_path then Sys.remove trace_path
  end;
  let acc = Out.create () in
  Fun.protect
    ~finally:(fun () -> Store.Fsio.remove_tree dir)
    (fun () ->
      (if trace then
         Traced.pipeline acc (List.assoc workload shapes) ~workload ~seed ~seconds ~exe ~dir
           ~trace_path
       else Pipeline.run_e2e ~workload ~seed ~seconds acc);
      if acc.Out.attempted < 1 then Out.fail "nothing was attempted";
      Out.note "error_ratio %.6f (%d of %d outputs wrong or failed)"
        (float_of_int acc.Out.failed /. float_of_int acc.Out.attempted)
        acc.Out.failed acc.Out.attempted;
      acc)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let a = parse Sys.argv in
  if a.self_test then exit (Selftest.run ());
  match a.workload, a.seed, a.seconds, a.trace with
  | Some workload, Some seed, Some seconds, trace -> (
    Exec.Pool.set_jobs 1;
    match a.child with
    | Some mode ->
      Pipeline.child ~mode (List.assoc workload shapes) ~seed ~segment:a.segment ~seconds
    | None -> (
      match trace with
      | None -> usage ()
      | Some trace -> (
        match measure a ~workload ~seed ~seconds ~trace with
        | acc -> print_endline (Out.json acc)
        | exception Out.Failed m ->
          Printf.eprintf "perfbench: FAILED: %s\n%!" m;
          exit 1
        | exception e ->
          Printf.eprintf "perfbench: FAILED: %s\n%!" (Printexc.to_string e);
          exit 1)))
  | _ -> usage ()
