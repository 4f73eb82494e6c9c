(* Tests for Ckpt_core.Toueg: the packed checkpoint DP against
   closed-form cases and exhaustive search. *)

module Toueg = Ckpt_core.Toueg
module Placement = Ckpt_core.Placement

let check_close ?(eps = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > eps *. (1. +. abs_float expected) then
    Alcotest.failf "%s: expected %g, got %g" msg expected actual

(* the production solvers over a closure cost, packed as the planner
   lays it out *)
let solve ~n ~cost =
  Toueg.solve_packed ~n ~tri:(Dp_oracle.pack ~n cost) ~etime:(Array.make n 0.)
    ~last_ckpt:(Array.make n 0)

let solve_budget ~n ~cost ~budget =
  Toueg.solve_budget_packed ~n ~tri:(Dp_oracle.pack ~n cost) ~budget

(* Eq. 2 with chain-shaped R/W/C: the segment [i..j] reads the input
   of task [i], executes [w_i..w_j] and writes the output of task [j] *)
let chain_cost ~lambda ~read ~weight ~write i j =
  let w = ref 0. in
  for k = i to j do
    w := !w +. weight k
  done;
  Placement.first_order ~lambda (read i +. !w +. write j)

let test_single_task () =
  let value, positions = solve ~n:1 ~cost:(fun _ _ -> 5.) in
  check_close "value" 5. value;
  Alcotest.(check (list int)) "only final checkpoint" [ 0 ] positions

let test_additive_cost_indifferent () =
  (* when cost(i,j) = j-i+1 (pure additivity), any split gives n *)
  let value, positions = solve ~n:6 ~cost:(fun i j -> float_of_int (j - i + 1)) in
  check_close "value" 6. value;
  Alcotest.(check bool) "ends with last" true (List.rev positions |> List.hd = 5)

let test_superadditive_prefers_splits () =
  (* quadratic segment cost: splitting always helps *)
  let cost i j =
    let len = float_of_int (j - i + 1) in
    (len *. len) +. 0.01
  in
  let _, positions = solve ~n:8 ~cost in
  Alcotest.(check int) "checkpoint everywhere" 8 (List.length positions)

let test_expensive_checkpoint_prefers_none () =
  (* heavy fixed cost per segment: single segment optimal *)
  let cost i j = float_of_int (j - i + 1) +. 100. in
  let value, positions = solve ~n:8 ~cost in
  check_close "value" 108. value;
  Alcotest.(check (list int)) "single segment" [ 7 ] positions

let test_positions_sorted_and_end () =
  let cost i j =
    let len = float_of_int (j - i + 1) in
    (len ** 1.5) +. 0.5
  in
  let _, positions = solve ~n:12 ~cost in
  let sorted = List.sort compare positions in
  Alcotest.(check (list int)) "sorted" sorted positions;
  Alcotest.(check int) "last is n-1" 11 (List.rev positions |> List.hd)

let test_matches_brute_force () =
  (* randomised costs, exhaustive comparison *)
  let rng = Ckpt_prob.Rng.create 17 in
  for _ = 1 to 25 do
    let n = 2 + Ckpt_prob.Rng.int rng 8 in
    let table = Array.init n (fun _ -> Array.init n (fun _ -> Ckpt_prob.Rng.float rng 10.)) in
    let cost i j = table.(i).(j) +. (float_of_int (j - i + 1) ** 1.3) in
    let dp_value, dp_positions = solve ~n ~cost in
    let bf_value, _ = Dp_oracle.brute_force ~n ~cost in
    check_close "optimal value matches brute force" bf_value dp_value;
    (* the DP's reported positions must realise its value *)
    let realised =
      let rec total start = function
        | [] -> 0.
        | p :: rest -> cost start p +. total (p + 1) rest
      in
      total 0 dp_positions
    in
    check_close "positions realise value" dp_value realised
  done

let test_chain_cost_first_order () =
  (* single task, r=1, w=2, c=3: S=6; T = (1-6λ)6 + 6λ*9 *)
  let lambda = 0.001 in
  let t =
    chain_cost ~lambda ~read:(fun _ -> 1.) ~weight:(fun _ -> 2.) ~write:(fun _ -> 3.) 0 0
  in
  let s = 6. in
  check_close "Eq.2" (((1. -. (lambda *. s)) *. s) +. (lambda *. s *. 1.5 *. s)) t

let test_chain_cost_segment () =
  (* segment [1..2] of a chain: read input of task 1, weights w1+w2,
     write output of task 2 *)
  let read k = if k = 1 then 10. else 99. in
  let write k = if k = 2 then 5. else 99. in
  let weight _ = 7. in
  let t = chain_cost ~lambda:0. ~read ~weight ~write 1 2 in
  check_close "S with no failure" (10. +. 14. +. 5.) t

let test_chain_toueg_balances () =
  (* uniform chain of 10 unit tasks, moderate failure rate, cheap but
     non-free checkpoints: the optimum is strictly between 1 and 10
     segments *)
  let lambda = 0.05 in
  let cost =
    chain_cost ~lambda ~read:(fun _ -> 0.2) ~weight:(fun _ -> 1.) ~write:(fun _ -> 0.2)
  in
  let _, positions = solve ~n:10 ~cost in
  let k = List.length positions in
  Alcotest.(check bool) (Printf.sprintf "1 < %d < 10 checkpoints" k) true (k > 1 && k < 10)

let test_lambda_monotonicity () =
  (* higher failure rate never decreases the number of checkpoints *)
  let count lambda =
    let cost =
      chain_cost ~lambda ~read:(fun _ -> 0.3) ~weight:(fun _ -> 1.) ~write:(fun _ -> 0.3)
    in
    List.length (snd (solve ~n:12 ~cost))
  in
  Alcotest.(check bool) "monotone in lambda" true
    (count 0.001 <= count 0.01 && count 0.01 <= count 0.1)

let test_budget_equals_unbudgeted_when_loose () =
  let rng = Ckpt_prob.Rng.create 23 in
  for _ = 1 to 10 do
    let n = 2 + Ckpt_prob.Rng.int rng 8 in
    let table = Array.init n (fun _ -> Array.init n (fun _ -> Ckpt_prob.Rng.float rng 10.)) in
    let cost i j = table.(i).(j) +. (float_of_int (j - i + 1) ** 1.3) in
    let v1, p1 = solve ~n ~cost in
    let v2, p2 = solve_budget ~n ~cost ~budget:n in
    check_close "same value" v1 v2;
    Alcotest.(check (list int)) "same positions" p1 p2
  done

let test_budget_one_is_single_segment () =
  let cost i j = float_of_int ((j - i + 1) * (j - i + 1)) in
  let v, p = solve_budget ~n:6 ~cost ~budget:1 in
  check_close "whole chain" 36. v;
  Alcotest.(check (list int)) "single final checkpoint" [ 5 ] p

let test_budget_monotone () =
  (* more budget never hurts *)
  let rng = Ckpt_prob.Rng.create 29 in
  let n = 10 in
  let table = Array.init n (fun _ -> Array.init n (fun _ -> Ckpt_prob.Rng.float rng 5.)) in
  let cost i j = table.(i).(j) +. (float_of_int (j - i + 1) ** 1.5) in
  let prev = ref infinity in
  for b = 1 to n do
    let v, positions = solve_budget ~n ~cost ~budget:b in
    if v > !prev +. 1e-9 then Alcotest.failf "budget %d worse than %d" b (b - 1);
    if List.length positions > b then
      Alcotest.failf "budget %d exceeded: %d checkpoints" b (List.length positions);
    prev := v
  done

let test_budget_matches_constrained_brute_force () =
  let rng = Ckpt_prob.Rng.create 31 in
  for _ = 1 to 10 do
    let n = 3 + Ckpt_prob.Rng.int rng 6 in
    let table = Array.init n (fun _ -> Array.init n (fun _ -> Ckpt_prob.Rng.float rng 10.)) in
    let cost i j = table.(i).(j) +. (float_of_int (j - i + 1) ** 1.4) in
    let budget = 1 + Ckpt_prob.Rng.int rng 3 in
    let dp_value, dp_positions = solve_budget ~n ~cost ~budget in
    (* brute force over all subsets with <= budget checkpoints *)
    let best = ref infinity in
    for mask = 0 to (1 lsl (n - 1)) - 1 do
      let count = ref 1 in
      for k = 0 to n - 2 do
        if mask land (1 lsl k) <> 0 then incr count
      done;
      if !count <= budget then begin
        let total = ref 0. and start = ref 0 in
        for k = 0 to n - 1 do
          if k = n - 1 || mask land (1 lsl k) <> 0 then begin
            total := !total +. cost !start k;
            start := k + 1
          end
        done;
        if !total < !best then best := !total
      end
    done;
    check_close "constrained optimum" !best dp_value;
    Alcotest.(check bool) "budget respected" true (List.length dp_positions <= budget)
  done

let test_brute_force_pinned_set () =
  (* n=5 where the only two cheap segments are [0..1] and [2..4]: the
     unique optimum is the checkpoint set {1, 4}. Pins the exact
     returned list — ascending, ending at n-1 — through the linear
     set-accumulation path. *)
  let cost i j = if (i, j) = (0, 1) || (i, j) = (2, 4) then 1. else 10. in
  let value, positions = Dp_oracle.brute_force ~n:5 ~cost in
  check_close "value" 2. value;
  Alcotest.(check (list int)) "pinned set" [ 1; 4 ] positions;
  (* strictly superadditive costs: every position checkpointed, in
     ascending order *)
  let quad i j =
    let len = float_of_int (j - i + 1) in
    (len *. len) +. 0.01
  in
  let _, all = Dp_oracle.brute_force ~n:5 ~cost:quad in
  Alcotest.(check (list int)) "ascending singletons" [ 0; 1; 2; 3; 4 ] all;
  (* prohibitive checkpoints: only the mandatory final one *)
  let fixed i j = float_of_int (j - i + 1) +. 100. in
  let _, final = Dp_oracle.brute_force ~n:5 ~cost:fixed in
  Alcotest.(check (list int)) "final only" [ 4 ] final

let test_brute_force_guard () =
  Alcotest.(check bool) "rejects n>20" true
    (match Dp_oracle.brute_force ~n:25 ~cost:(fun _ _ -> 1.) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The Monge guard perfbench's replay reads *)
let prop_random_not_monge =
  (* a continuous random table violates some quadrangle inequality
     with overwhelming probability once there are a few squares *)
  QCheck.Test.make ~count:200 ~name:"tri_is_monge rejects random tables"
    QCheck.small_nat (fun seed ->
      let rng = Ckpt_prob.Rng.create (seed + 211) in
      let n = 6 + Ckpt_prob.Rng.int rng 40 in
      let tri = Array.init (Toueg.tri_size n) (fun _ -> 0.1 +. Ckpt_prob.Rng.float rng 10.) in
      not (Toueg.tri_is_monge ~n ~tri))

let suite =
  [
    Alcotest.test_case "single task" `Quick test_single_task;
    Alcotest.test_case "additive cost" `Quick test_additive_cost_indifferent;
    Alcotest.test_case "superadditive splits" `Quick test_superadditive_prefers_splits;
    Alcotest.test_case "expensive checkpoints" `Quick test_expensive_checkpoint_prefers_none;
    Alcotest.test_case "positions sorted" `Quick test_positions_sorted_and_end;
    Alcotest.test_case "matches brute force" `Quick test_matches_brute_force;
    Alcotest.test_case "Eq.2 first order" `Quick test_chain_cost_first_order;
    Alcotest.test_case "chain segment cost" `Quick test_chain_cost_segment;
    Alcotest.test_case "balanced optimum" `Quick test_chain_toueg_balances;
    Alcotest.test_case "monotone in lambda" `Quick test_lambda_monotonicity;
    Alcotest.test_case "budget = unbudgeted when loose" `Quick test_budget_equals_unbudgeted_when_loose;
    Alcotest.test_case "budget 1 = single segment" `Quick test_budget_one_is_single_segment;
    Alcotest.test_case "budget monotone" `Quick test_budget_monotone;
    Alcotest.test_case "budget vs brute force" `Quick test_budget_matches_constrained_brute_force;
    Alcotest.test_case "brute force pinned set" `Quick test_brute_force_pinned_set;
    Alcotest.test_case "brute force guard" `Quick test_brute_force_guard;
    QCheck_alcotest.to_alcotest prop_random_not_monge;
  ]
