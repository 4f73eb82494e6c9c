type t = { pts : (float * float) array }
(* Invariant: values strictly increasing, probabilities > 0, sum = 1. *)

let normalize pairs =
  if pairs = [] then invalid_arg "Dist.of_list: empty support";
  List.iter
    (fun (_, p) -> if p < 0. then invalid_arg "Dist.of_list: negative probability")
    pairs;
  let sorted = List.sort (fun (v1, _) (v2, _) -> compare v1 v2) pairs in
  (* merge equal (or numerically indistinguishable) values *)
  let merged =
    List.fold_left
      (fun acc (v, p) ->
        match acc with
        | (v0, p0) :: rest when abs_float (v -. v0) <= 1e-12 *. (1. +. abs_float v0) ->
            (v0, p0 +. p) :: rest
        | _ -> (v, p) :: acc)
      [] sorted
    |> List.rev
    |> List.filter (fun (_, p) -> p > 0.)
  in
  let total = List.fold_left (fun s (_, p) -> s +. p) 0. merged in
  if total <= 0. then invalid_arg "Dist.of_list: zero total mass";
  { pts = Array.of_list (List.map (fun (v, p) -> (v, p /. total)) merged) }

let of_list pairs = normalize pairs
let constant v = { pts = [| (v, 1.) |] }

let two_state ?(p = 0.) low high =
  if p <= 0. then constant low
  else if p >= 1. then constant high
  else if low = high then constant low
  else normalize [ (low, 1. -. p); (high, p) ]

let support t = Array.copy t.pts
let size t = Array.length t.pts
let mean t = Array.fold_left (fun s (v, p) -> s +. (v *. p)) 0. t.pts

let variance t =
  let m = mean t in
  Array.fold_left (fun s (v, p) -> s +. (p *. (v -. m) *. (v -. m))) 0. t.pts

let quantile t q =
  if q < 0. || q > 1. then invalid_arg "Dist.quantile";
  let n = Array.length t.pts in
  let rec scan i acc =
    if i = n - 1 then fst t.pts.(i)
    else
      let acc = acc +. snd t.pts.(i) in
      if acc >= q -. 1e-12 then fst t.pts.(i) else scan (i + 1) acc
  in
  scan 0 0.

let cdf t x =
  let acc = ref 0. in
  Array.iter (fun (v, p) -> if v <= x then acc := !acc +. p) t.pts;
  !acc

let shift t c = { pts = Array.map (fun (v, p) -> (v +. c, p)) t.pts }

let scale t c =
  if c < 0. then invalid_arg "Dist.scale: negative factor";
  if c = 0. then constant 0.
  else { pts = Array.map (fun (v, p) -> (v *. c, p)) t.pts }

let add a b =
  let pairs = ref [] in
  Array.iter
    (fun (va, pa) -> Array.iter (fun (vb, pb) -> pairs := (va +. vb, pa *. pb) :: !pairs) b.pts)
    a.pts;
  normalize !pairs

(* For max and min we exploit sortedness: walk both supports once,
   using the joint CDF. P(max <= x) = Fa(x) * Fb(x). *)
let with_joint_cdf f a b =
  let values =
    Array.append (Array.map fst a.pts) (Array.map fst b.pts)
    |> Array.to_list |> List.sort_uniq compare
  in
  let cdf_points pts =
    (* association list value -> CDF at that value, over [values] *)
    let acc = ref 0. and idx = ref 0 in
    List.map
      (fun v ->
        while !idx < Array.length pts && fst pts.(!idx) <= v do
          acc := !acc +. snd pts.(!idx);
          incr idx
        done;
        !acc)
      values
  in
  let fa = cdf_points a.pts and fb = cdf_points b.pts in
  let cdf = List.map2 f fa fb in
  (* convert CDF back to point masses *)
  let rec diff prev vs cs acc =
    match (vs, cs) with
    | [], [] -> List.rev acc
    | v :: vs, c :: cs ->
        let mass = c -. prev in
        if mass > 1e-15 then diff c vs cs ((v, mass) :: acc) else diff c vs cs acc
    | _ -> assert false
  in
  normalize (diff 0. values cdf [])

let max2 a b = with_joint_cdf (fun fa fb -> fa *. fb) a b
let min2 a b = with_joint_cdf (fun fa fb -> fa +. fb -. (fa *. fb)) a b

let compact ?(max_size = 512) t =
  let n = Array.length t.pts in
  if n <= max_size then t
  else begin
    (* Merge adjacent points into [max_size] buckets of (approximately)
       equal probability mass; each bucket is replaced by its
       mass-weighted mean, preserving the overall expectation. *)
    let target = 1. /. float_of_int max_size in
    let buckets = ref [] in
    let bucket_mass = ref 0. and bucket_weighted = ref 0. in
    let flush () =
      if !bucket_mass > 0. then begin
        buckets := (!bucket_weighted /. !bucket_mass, !bucket_mass) :: !buckets;
        bucket_mass := 0.;
        bucket_weighted := 0.
      end
    in
    Array.iter
      (fun (v, p) ->
        bucket_mass := !bucket_mass +. p;
        bucket_weighted := !bucket_weighted +. (v *. p);
        if !bucket_mass >= target then flush ())
      t.pts;
    flush ();
    normalize !buckets
  end

let sample t rng =
  let u = Rng.uniform rng in
  let n = Array.length t.pts in
  let rec scan i acc =
    if i = n - 1 then fst t.pts.(i)
    else
      let acc = acc +. snd t.pts.(i) in
      if u <= acc then fst t.pts.(i) else scan (i + 1) acc
  in
  scan 0 0.

let equal ?(eps = 1e-9) a b =
  Array.length a.pts = Array.length b.pts
  && Array.for_all2
       (fun (va, pa) (vb, pb) -> abs_float (va -. vb) <= eps && abs_float (pa -. pb) <= eps)
       a.pts b.pts
