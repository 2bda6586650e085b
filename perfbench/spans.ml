(* The traced run's span store.  Spans are kept in memory while the
   run measures and written once at the end, in the repository's trace
   schema v2 (Obs.Sink), so `ephemeral trace summary|flame` reads a
   benchmark trace like any other.

   Every trial or request runs under a span context named for its id
   ("trial-17", "req-4031"), so the spans of one unit of work share a
   path prefix. *)

module Span = Obs.Span

let lock = Mutex.create ()
let records : Span.record list ref = ref []

let keep r =
  Mutex.lock lock;
  records := r :: !records;
  Mutex.unlock lock

let start () =
  Span.reset ();
  records := [];
  Span.on_record keep;
  Obs.Control.set_enabled true

let stop () =
  Obs.Control.set_enabled false;
  Span.clear_handlers ();
  Mutex.lock lock;
  let all = List.rev !records in
  records := [];
  Mutex.unlock lock;
  all

let under id f = Span.with_context (Some (id, -1)) f

let write path recs =
  let sink = Obs.Sink.open_jsonl path in
  List.iter (Obs.Sink.emit sink) recs;
  Obs.Sink.close sink

let leaf name =
  match String.rindex_opt name '/' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let parent name =
  match String.rindex_opt name '/' with
  | Some i -> Some (String.sub name 0 i)
  | None -> None

(* Self time: duration minus the part covered by direct children.
   Children of one span run one after another on its domain, so the
   covered part is the sum of their durations. *)
let self_times recs =
  let kids = Hashtbl.create 1024 in
  List.iter
    (fun (r : Span.record) ->
      Option.iter (fun p -> Hashtbl.add kids p r) (parent r.Span.name))
    recs;
  List.map
    (fun (r : Span.record) ->
      let stop = Int64.add r.Span.start_ns r.Span.dur_ns in
      let covered =
        List.fold_left
          (fun acc (c : Span.record) ->
            if
              c.Span.domain = r.Span.domain
              && c.Span.depth = r.Span.depth + 1
              && c.Span.start_ns >= r.Span.start_ns
              && Int64.add c.Span.start_ns c.Span.dur_ns <= stop
            then Int64.add acc c.Span.dur_ns
            else acc)
          0L
          (Hashtbl.find_all kids r.Span.name)
      in
      (r, Int64.max 0L (Int64.sub r.Span.dur_ns covered)))
    recs

(* Spans whose leaf name is [name], optionally only those directly
   under a span whose leaf is [under]. *)
let select ?under name selfs =
  List.filter
    (fun ((r : Span.record), _) ->
      leaf r.Span.name = name
      &&
      match under with
      | None -> true
      | Some u -> (
        match parent r.Span.name with Some p -> leaf p = u | None -> false))
    selfs

let median_of f ?under name selfs =
  match select ?under name selfs with
  | [] -> Out.fail "trace has no %s span" name
  | l -> Stats.Quantile.median (Array.of_list (List.map f l))

let median_self ?under = median_of (fun (_, s) -> Int64.to_float s) ?under
let median_dur ?under = median_of (fun ((r : Span.record), _) -> Int64.to_float r.Span.dur_ns) ?under

let median_words ?under =
  median_of (fun ((r : Span.record), _) -> r.Span.minor_words +. r.Span.major_words) ?under
