(* Order statistics shared by every timing the benchmark reports.

   A tail is the highest percentile with at least ten samples beyond
   it, so its value always rests on ten observations and never on the
   single slowest one.  Percentiles are held in basis points (1/100 of
   a percent) so that nearest-rank arithmetic is exact integer math:
   rank(p) = ceil(p * n / 10000), 1-based. *)

let min_beyond = 10

(* Candidate percentiles, highest first: 99.99, 99.9, then 99 down to
   50 in whole percents. *)
let candidates = 9999 :: 9990 :: List.init 50 (fun i -> 9900 - (100 * i))

let rank ~n bp = max 1 ((bp * n + 9999) / 10000)

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

type tail = {
  bp : int;  (** the percentile, in basis points *)
  value : float;
  beyond : int;  (** samples strictly after the percentile's rank *)
  count : int;  (** all samples *)
}

let tail a =
  let n = Array.length a in
  match List.find_opt (fun bp -> n - rank ~n bp >= min_beyond) candidates with
  | None -> None
  | Some bp ->
    let s = sorted a in
    let r = rank ~n bp in
    Some { bp; value = s.(r - 1); beyond = n - r; count = n }

let bp_to_string bp =
  if bp mod 100 = 0 then Printf.sprintf "p%d" (bp / 100)
  else Printf.sprintf "p%g" (float_of_int bp /. 100.)

let describe t =
  Printf.sprintf "%s of %d samples (%d beyond)" (bp_to_string t.bp) t.count
    t.beyond

(* [a] cut into consecutive windows of about [size] samples, in arrival
   order.  A run shorter than two windows is one window. *)
let windows a ~size =
  let n = Array.length a in
  let k = max 1 (n / size) in
  List.init k (fun i ->
      let lo = i * n / k and hi = (i + 1) * n / k in
      Array.sub a lo (hi - lo))

(* The tail of each window, and their median: one stall episode moves
   one window's tail, not the run's. *)
let windowed_tail a ~size =
  let tails = List.map tail (windows a ~size) in
  if List.mem None tails then None
  else
    let tails = List.filter_map Fun.id tails in
    Some (Stats.Quantile.median (Array.of_list (List.map (fun t -> t.value) tails)), List.hd tails, List.length tails)

(* The typical sample of runs whose speed drifts with the host: each
   window's median, averaged over the windows of every run in [runs].
   A window's median ignores its outliers; the mean over the windows
   moves in proportion to the share of time spent slow, where one
   median over everything jumps from the fast speed to the slow one as
   that share crosses a half. *)
let windowed_median runs ~size =
  let medians =
    List.concat_map
      (fun a -> if a = [||] then [] else List.map Stats.Quantile.median (windows a ~size))
      runs
  in
  if medians = [] then None
  else Some (Stats.Summary.mean (Stats.Summary.of_array (Array.of_list medians)), List.length medians)
