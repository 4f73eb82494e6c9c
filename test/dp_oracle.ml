(* Reference Algorithm-2 solvers for the test suite: the closure-cost
   Toueg–Babaoğlu recurrence, with and without a checkpoint budget, an
   exhaustive search, and the superchain placement the recurrence gives
   over [Placement.cost_matrix]. The planner's packed solvers perform
   the same float comparisons in the same order, so the equivalence
   suites compare them bit for bit. *)

module Placement = Ckpt_core.Placement
module Superchain = Ckpt_core.Superchain
module Toueg = Ckpt_core.Toueg

let reference_solve ~n ~cost =
  if n < 1 then invalid_arg "Dp_oracle.reference_solve: n < 1";
  let etime = Array.make n infinity in
  let last_ckpt = Array.make n (-1) in
  for j = 0 to n - 1 do
    etime.(j) <- cost 0 j;
    last_ckpt.(j) <- -1;
    for i = 0 to j - 1 do
      let candidate = etime.(i) +. cost (i + 1) j in
      if candidate < etime.(j) then begin
        etime.(j) <- candidate;
        last_ckpt.(j) <- i
      end
    done
  done;
  let rec backtrack j acc = if j < 0 then acc else backtrack last_ckpt.(j) (j :: acc) in
  (etime.(n - 1), backtrack (n - 1) [])

let reference_solve_budget ~n ~cost ~budget =
  if n < 1 then invalid_arg "Dp_oracle.reference_solve_budget: n < 1";
  if budget < 1 then invalid_arg "Dp_oracle.reference_solve_budget: budget < 1";
  let budget = min budget n in
  (* etime.(b).(j): optimal time for tasks 0..j ending in a checkpoint
     after j, using at most b+1 checkpoints in total *)
  let etime = Array.make_matrix budget n infinity in
  let last_ckpt = Array.make_matrix budget n (-1) in
  for b = 0 to budget - 1 do
    for j = 0 to n - 1 do
      etime.(b).(j) <- cost 0 j;
      last_ckpt.(b).(j) <- -1;
      if b > 0 then
        for i = 0 to j - 1 do
          let candidate = etime.(b - 1).(i) +. cost (i + 1) j in
          if candidate < etime.(b).(j) then begin
            etime.(b).(j) <- candidate;
            last_ckpt.(b).(j) <- i
          end
        done
    done
  done;
  let rec backtrack b j acc =
    if j < 0 then acc
    else begin
      let i = last_ckpt.(b).(j) in
      backtrack (max 0 (b - 1)) i (j :: acc)
    end
  in
  (etime.(budget - 1).(n - 1), backtrack (budget - 1) (n - 1) [])

(* Exhaustive search over the 2^(n-1) checkpoint subsets: the optimum
   and one optimal set, sorted and ending at n-1 *)
let brute_force ~n ~cost =
  if n < 1 then invalid_arg "Dp_oracle.brute_force: n < 1";
  if n > 20 then invalid_arg "Dp_oracle.brute_force: too large";
  (* bit k of the mask (k < n-1) = checkpoint after task k; the final
     checkpoint after task n-1 is implicit *)
  let best = ref infinity and best_set = ref [] in
  for mask = 0 to (1 lsl (n - 1)) - 1 do
    let total = ref 0. in
    let start = ref 0 in
    for k = 0 to n - 1 do
      let is_ckpt = k = n - 1 || mask land (1 lsl k) <> 0 in
      if is_ckpt then begin
        total := !total +. cost !start k;
        start := k + 1
      end
    done;
    if !total < !best then begin
      best := !total;
      (* seed with the implicit final checkpoint and prepend downward:
         O(n) per improvement instead of an O(n^2) list append *)
      let set = ref [ n - 1 ] in
      for k = n - 2 downto 0 do
        if mask land (1 lsl k) <> 0 then set := k :: !set
      done;
      best_set := !set
    end
  done;
  (!best, !best_set)

(* [cost i j] for every segment [i..j], in the planner's packed layout *)
let pack ~n cost =
  let tri = Array.make (Toueg.tri_size n) 0. in
  for j = 0 to n - 1 do
    for i = 0 to j do
      tri.((j * (j + 1) / 2) + i) <- cost i j
    done
  done;
  tri

let reference_optimal_positions ?replicas platform dag sc =
  let n = Superchain.n_tasks sc in
  let matrix = Placement.cost_matrix ?replicas platform dag sc in
  reference_solve ~n ~cost:(fun i j -> matrix.(j).(i))

let reference_optimal_positions_budget ?replicas platform dag sc ~budget =
  let n = Superchain.n_tasks sc in
  let matrix = Placement.cost_matrix ?replicas platform dag sc in
  reference_solve_budget ~n ~cost:(fun i j -> matrix.(j).(i)) ~budget
