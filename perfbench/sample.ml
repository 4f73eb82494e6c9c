(* Order statistics for benchmark samples. Quantiles follow Python's
   [statistics.quantiles(method="exclusive")], so a spread computed here
   matches one computed from the same numbers by that function. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* cut point [i] of [n] equal groups over the sorted array [a] *)
let cut a ~n ~i =
  let len = Array.length a in
  if len = 0 then nan
  else if len = 1 then a.(0)
  else
    let m = len + 1 in
    let j = max 1 (min (len - 1) (i * m / n)) in
    let delta = (i * m) - (j * n) in
    ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
    /. float_of_int n

let quartiles xs =
  let a = sorted xs in
  (cut a ~n:4 ~i:1, cut a ~n:4 ~i:3)

(* percentile [p] in per-mille, so p99.9 is representable *)
let permille xs p = cut (sorted xs) ~n:1000 ~i:p

(* (q3 - q1) / median: the run-to-run spread as a share of the median *)
let spread xs =
  let q1, q3 = quartiles xs in
  (q3 -. q1) /. median xs

let tail_ladder = [ 999; 995; 990; 950; 900; 750; 500 ]

(* The highest percentile (in per-mille) that leaves at least ten of
   [count] samples beyond it, or [None] when even the median would not. *)
let tail_permille count =
  List.find_opt (fun p -> count * (1000 - p) >= 10_000) tail_ladder

let tail xs =
  match tail_permille (List.length xs) with
  | None -> None
  | Some p -> Some (p, permille xs p)

let permille_label p =
  if p mod 10 = 0 then Printf.sprintf "p%d" (p / 10) else Printf.sprintf "p%.1f" (float_of_int p /. 10.)

(* Samples of one class gathered over several passes are pooled before
   any quantile is taken: a percentile of the pool is not the mean of
   per-pass percentiles. *)
let pool passes = List.concat passes
