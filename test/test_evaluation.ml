(* Tests for Ckpt_eval: the 2-state DAG and the four expected-makespan
   estimators of Section II-B, cross-validated against closed forms,
   each other, and the exact SP evaluation. *)

module Prob_dag = Ckpt_eval.Prob_dag
module Montecarlo = Ckpt_eval.Montecarlo
module Dodin = Ckpt_eval.Dodin
module Sculli = Ckpt_eval.Sculli
module Pathapprox = Ckpt_eval.Pathapprox
module Exact_sp = Ckpt_eval.Exact_sp
module Ckptnone = Ckpt_eval.Ckptnone
module Evaluator = Ckpt_eval.Evaluator
module Dist = Ckpt_prob.Dist
module Mspg = Ckpt_mspg.Mspg
module Rng = Ckpt_prob.Rng

let check_close ?(eps = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > eps *. (1. +. abs_float expected) then
    Alcotest.failf "%s: expected %g, got %g" msg expected actual

(* a chain of two-state nodes: expectation = sum of node means *)
let chain nodes =
  let pd = Prob_dag.create () in
  let ids =
    List.map (fun (base, degraded, pfail) -> Prob_dag.add_node pd ~base ~degraded ~pfail) nodes
  in
  let rec link = function
    | a :: (b :: _ as tl) ->
        Prob_dag.add_edge pd a b;
        link tl
    | _ -> ()
  in
  link ids;
  pd

let two_parallel_chains () =
  (* two independent 2-node chains joined source/sink free: makespan =
     max of the two chain sums *)
  let pd = Prob_dag.create () in
  let a1 = Prob_dag.add_node pd ~base:4. ~degraded:6. ~pfail:0.5 in
  let a2 = Prob_dag.add_node pd ~base:4. ~degraded:6. ~pfail:0.5 in
  let b1 = Prob_dag.add_node pd ~base:5. ~degraded:7. ~pfail:0.5 in
  let b2 = Prob_dag.add_node pd ~base:3. ~degraded:5. ~pfail:0.5 in
  Prob_dag.add_edge pd a1 a2;
  Prob_dag.add_edge pd b1 b2;
  pd

let test_prob_dag_validation () =
  let pd = Prob_dag.create () in
  Alcotest.(check bool) "degraded < base rejected" true
    (match Prob_dag.add_node pd ~base:5. ~degraded:4. ~pfail:0.1 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "pfail > 1 rejected" true
    (match Prob_dag.add_node pd ~base:1. ~degraded:2. ~pfail:1.5 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_prob_dag_duplicate_edge_idempotent () =
  let pd = Prob_dag.create () in
  let a = Prob_dag.add_node pd ~base:1. ~degraded:1. ~pfail:0. in
  let b = Prob_dag.add_node pd ~base:1. ~degraded:1. ~pfail:0. in
  Prob_dag.add_edge pd a b;
  Prob_dag.add_edge pd a b;
  Alcotest.(check (list int)) "one edge" [ b ] (Prob_dag.succs pd a)

let test_deterministic_makespan () =
  let pd = chain [ (1., 1., 0.); (2., 2., 0.); (3., 3., 0.) ] in
  check_close "chain" 6. (Prob_dag.deterministic_makespan pd)

let test_expected_work () =
  let pd = chain [ (10., 15., 0.2) ] in
  check_close "E[X]" 11. (Prob_dag.expected_work pd)

(* closed form for a chain: E[makespan] = sum of means *)
let chain_mean nodes =
  List.fold_left
    (fun acc (b, d, p) -> acc +. ((1. -. p) *. b) +. (p *. d))
    0. nodes

let test_montecarlo_chain () =
  let nodes = [ (10., 15., 0.3); (5., 8., 0.1); (2., 3., 0.5) ] in
  let pd = chain nodes in
  check_close ~eps:0.01 "MC chain mean" (chain_mean nodes)
    (Montecarlo.estimate ~trials:200_000 pd)

let test_montecarlo_deterministic_exact () =
  let pd = chain [ (7., 7., 0.); (3., 3., 0.) ] in
  check_close "no randomness" 10. (Montecarlo.estimate ~trials:10 pd)

let test_dodin_exact_on_chain () =
  (* convolution is exact on chains *)
  let nodes = [ (10., 15., 0.3); (5., 8., 0.1); (2., 3., 0.5) ] in
  check_close "Dodin chain" (chain_mean nodes) (Dodin.estimate (chain nodes))

let test_dodin_exact_on_sp () =
  (* max of independent branches: exact for SP graphs *)
  let pd = two_parallel_chains () in
  let mc = Montecarlo.estimate ~trials:400_000 pd in
  check_close ~eps:0.01 "Dodin SP vs MC" mc (Dodin.estimate pd)

let test_dodin_distribution_mass () =
  let pd = two_parallel_chains () in
  let d = Dodin.distribution pd in
  let total = Array.fold_left (fun acc (_, p) -> acc +. p) 0. (Dist.support d) in
  check_close "mass 1" 1. total

let test_sculli_chain_mean_exact () =
  (* sums have exact means under Sculli; only maxima approximate *)
  let nodes = [ (10., 15., 0.3); (5., 8., 0.1) ] in
  check_close "Sculli chain mean" (chain_mean nodes) (Sculli.estimate (chain nodes))

let test_sculli_reasonable_on_sp () =
  let pd = two_parallel_chains () in
  let mc = Montecarlo.estimate ~trials:200_000 pd in
  let sculli = Sculli.estimate pd in
  if abs_float (sculli -. mc) > 0.05 *. mc then
    Alcotest.failf "Sculli %f too far from MC %f" sculli mc

let test_pathapprox_no_failures () =
  let pd = chain [ (4., 4., 0.); (6., 6., 0.) ] in
  check_close "L0" 10. (Pathapprox.estimate pd)

let test_pathapprox_single_node () =
  (* exact for one 2-state node *)
  let pd = chain [ (10., 15., 0.2) ] in
  check_close "single node" 11. (Pathapprox.estimate pd)

let test_pathapprox_first_order_chain () =
  (* small pfail: first-order expansion matches the exact mean *)
  let nodes = [ (10., 15., 0.001); (5., 8., 0.002); (2., 3., 0.001) ] in
  check_close ~eps:1e-5 "first order" (chain_mean nodes) (Pathapprox.estimate (chain nodes))

let test_pathapprox_close_to_mc_small_pfail () =
  let pd = two_parallel_chains () in
  (* rebuild with small pfail *)
  let pd2 = Prob_dag.create () in
  for i = 0 to Prob_dag.n_nodes pd - 1 do
    let nd = Prob_dag.node pd i in
    ignore
      (Prob_dag.add_node pd2 ~base:nd.Prob_dag.base ~degraded:nd.Prob_dag.degraded
         ~pfail:0.005)
  done;
  for i = 0 to Prob_dag.n_nodes pd - 1 do
    List.iter (fun j -> Prob_dag.add_edge pd2 i j) (Prob_dag.succs pd i)
  done;
  let mc = Montecarlo.estimate ~trials:400_000 pd2 in
  let pa = Pathapprox.estimate pd2 in
  if abs_float (pa -. mc) > 0.005 *. mc then Alcotest.failf "pathapprox %f vs mc %f" pa mc

let test_exact_sp_chain () =
  let tree = Mspg.serial [ Mspg.leaf 0; Mspg.leaf 1 ] in
  let node_dist = function
    | 0 -> Dist.two_state ~p:0.3 10. 15.
    | _ -> Dist.two_state ~p:0.1 5. 8.
  in
  check_close "exact chain"
    (chain_mean [ (10., 15., 0.3); (5., 8., 0.1) ])
    (Dist.mean (Exact_sp.distribution tree ~node_dist))

let test_exact_sp_parallel () =
  (* max of two fair coins over {0,1}: mean 0.75 *)
  let tree = Mspg.parallel [ Mspg.leaf 0; Mspg.leaf 1 ] in
  let node_dist _ = Dist.two_state ~p:0.5 0. 1. in
  check_close "exact max" 0.75 (Dist.mean (Exact_sp.distribution tree ~node_dist))

let test_exact_sp_matches_mc_forkjoin () =
  let tree =
    Mspg.serial
      [ Mspg.leaf 0;
        Mspg.parallel
          [ Mspg.serial [ Mspg.leaf 1; Mspg.leaf 2 ]; Mspg.serial [ Mspg.leaf 3; Mspg.leaf 4 ] ];
        Mspg.leaf 5 ]
  in
  let params =
    [| (3., 5., 0.3); (4., 6., 0.2); (2., 4., 0.4); (5., 6., 0.1); (1., 3., 0.5); (2., 2., 0.) |]
  in
  let node_dist i =
    let b, d, p = params.(i) in
    Dist.two_state ~p b d
  in
  (* equivalent Prob_dag *)
  let pd = Prob_dag.create () in
  Array.iter (fun (b, d, p) -> ignore (Prob_dag.add_node pd ~base:b ~degraded:d ~pfail:p)) params;
  List.iter (fun (u, v) -> Prob_dag.add_edge pd u v)
    [ (0, 1); (0, 3); (1, 2); (3, 4); (2, 5); (4, 5) ];
  let mc = Montecarlo.estimate ~trials:400_000 pd in
  check_close ~eps:0.01 "exact SP vs MC" mc
    (Dist.mean (Exact_sp.distribution tree ~node_dist))

let test_dodin_matches_exact_sp () =
  (* Dodin's forward pass is exact on in-trees: two disjoint chains
     joining at a sink (no shared ancestors, so the independence
     assumption holds) *)
  let tree =
    Mspg.serial
      [ Mspg.parallel
          [ Mspg.serial [ Mspg.leaf 0; Mspg.leaf 1 ]; Mspg.serial [ Mspg.leaf 2; Mspg.leaf 3 ] ];
        Mspg.leaf 4 ]
  in
  let params =
    [| (3., 5., 0.3); (4., 6., 0.2); (2., 4., 0.4); (1., 3., 0.5); (2., 3., 0.25) |]
  in
  let node_dist i =
    let b, d, p = params.(i) in
    Dist.two_state ~p b d
  in
  let pd = Prob_dag.create () in
  Array.iter (fun (b, d, p) -> ignore (Prob_dag.add_node pd ~base:b ~degraded:d ~pfail:p)) params;
  List.iter (fun (u, v) -> Prob_dag.add_edge pd u v) [ (0, 1); (2, 3); (1, 4); (3, 4) ];
  check_close ~eps:1e-9 "dodin = exact on in-tree"
    (Dist.mean (Exact_sp.distribution ~max_support:max_int tree ~node_dist))
    (Dodin.estimate ~max_support:max_int pd);
  (* and on a fork (shared ancestor) Dodin is an upper-biased
     approximation: verify the direction of the bias *)
  let fork_pd = Prob_dag.create () in
  let fork_params = [| (3., 5., 0.3); (4., 6., 0.2); (2., 4., 0.4); (1., 3., 0.5) |] in
  Array.iter
    (fun (b, d, p) -> ignore (Prob_dag.add_node fork_pd ~base:b ~degraded:d ~pfail:p))
    fork_params;
  List.iter (fun (u, v) -> Prob_dag.add_edge fork_pd u v) [ (0, 1); (0, 2); (1, 3); (2, 3) ];
  let fork_tree =
    Mspg.serial [ Mspg.leaf 0; Mspg.parallel [ Mspg.leaf 1; Mspg.leaf 2 ]; Mspg.leaf 3 ]
  in
  let fork_dist i =
    let b, d, p = fork_params.(i) in
    Dist.two_state ~p b d
  in
  let exact =
    Dist.mean (Exact_sp.distribution ~max_support:max_int fork_tree ~node_dist:fork_dist)
  in
  let dodin = Dodin.estimate ~max_support:max_int fork_pd in
  Alcotest.(check bool) "fork bias is upward" true (dodin >= exact -. 1e-9)

let test_ckptnone_formula () =
  (* EM = (1 - pλW) W + pλW (3/2 W) *)
  let wpar = 100. and processors = 4 and lambda = 1e-4 in
  let x = float_of_int processors *. lambda *. wpar in
  check_close "Theorem 1"
    (((1. -. x) *. wpar) +. (x *. 1.5 *. wpar))
    (Ckptnone.expected_makespan_rate ~wpar ~rate:(float_of_int processors *. lambda));
  check_close "failure-free" 100. (Ckptnone.expected_makespan_rate ~wpar:100. ~rate:0.);
  Alcotest.check_raises "negative Wpar"
    (Invalid_argument "Ckptnone.expected_makespan_rate: negative Wpar") (fun () ->
      ignore (Ckptnone.expected_makespan_rate ~wpar:(-1.) ~rate:0.));
  Alcotest.check_raises "negative rate"
    (Invalid_argument "Ckptnone.expected_makespan_rate: negative rate") (fun () ->
      ignore (Ckptnone.expected_makespan_rate ~wpar:100. ~rate:(-1.)))

let test_evaluator_dispatch () =
  let pd = chain [ (10., 15., 0.01) ] in
  List.iter
    (fun m ->
      let v = Evaluator.estimate m pd in
      check_close ~eps:0.02 (Evaluator.name m) 10.05 v)
    (Evaluator.default_montecarlo :: Evaluator.all_fast)

let test_evaluator_of_name () =
  List.iter
    (fun n ->
      match Evaluator.of_name n with
      | Some _ -> ()
      | None -> Alcotest.failf "unknown method %s" n)
    [ "montecarlo"; "dodin"; "normal"; "pathapprox"; "sculli"; "mc" ];
  Alcotest.(check bool) "bogus rejected" true (Evaluator.of_name "bogus" = None)

(* --- estimator agreement on random 2-state DAGs (paper Section VI-B) --- *)

let random_prob_dag seed n =
  let rng = Rng.create seed in
  let pd = Prob_dag.create () in
  for _ = 1 to n do
    let base = 1. +. Rng.float rng 20. in
    ignore
      (Prob_dag.add_node pd ~base ~degraded:(1.5 *. base) ~pfail:(0.001 +. Rng.float rng 0.02))
  done;
  for u = 0 to n - 2 do
    for v = u + 1 to n - 1 do
      if Rng.uniform rng < 0.15 then Prob_dag.add_edge pd u v
    done
  done;
  pd

let test_bounds_on_chain () =
  (* on a chain both bounds are tight (no maxima) *)
  let nodes = [ (10., 15., 0.3); (5., 8., 0.1) ] in
  let pd = chain nodes in
  let lo, hi = Ckpt_eval.Bounds.bracket pd in
  check_close "lower tight" (chain_mean nodes) lo;
  check_close "upper tight" (chain_mean nodes) hi

let test_bounds_bracket_mc () =
  for seed = 11 to 16 do
    let pd = random_prob_dag seed 25 in
    let mc = Montecarlo.estimate ~trials:100_000 pd in
    let lo, hi = Ckpt_eval.Bounds.bracket pd in
    if lo > mc +. (0.01 *. mc) then Alcotest.failf "seed %d: lower %f > MC %f" seed lo mc;
    if hi < mc -. (0.01 *. mc) then Alcotest.failf "seed %d: upper %f < MC %f" seed hi mc;
    if lo > hi +. 1e-9 then Alcotest.failf "seed %d: crossing bounds" seed
  done

let test_bounds_fork () =
  (* max of two iid coins: truth 0.75, lower (means) 0.5, upper
     (independent product — actually exact here) 0.75 *)
  let pd = Prob_dag.create () in
  let a = Prob_dag.add_node pd ~base:0. ~degraded:1. ~pfail:0.5 in
  let b = Prob_dag.add_node pd ~base:0. ~degraded:1. ~pfail:0.5 in
  ignore a;
  ignore b;
  let lo, hi = Ckpt_eval.Bounds.bracket pd in
  check_close "lower = max of means" 0.5 lo;
  check_close "upper = exact for independent" 0.75 hi

let test_estimators_agree_with_mc () =
  for seed = 1 to 5 do
    let pd = random_prob_dag seed 25 in
    let mc = Montecarlo.estimate ~trials:100_000 pd in
    List.iter
      (fun m ->
        let v = Evaluator.estimate m pd in
        let err = abs_float (v -. mc) /. mc in
        if err > 0.05 then
          Alcotest.failf "seed %d: %s = %f vs MC %f (%.1f%%)" seed (Evaluator.name m) v mc
            (err *. 100.))
      Evaluator.all_fast
  done

(* six nodes, two plain edges, one join, an edge the join repeats *)
let joined_graph weights =
  let pd = Prob_dag.create () in
  Array.iter
    (fun (base, degraded, pfail) -> ignore (Prob_dag.add_node pd ~base ~degraded ~pfail))
    weights;
  Prob_dag.add_edge pd 0 1;
  Prob_dag.add_edge pd 0 2;
  Prob_dag.add_join pd [ 1; 2 ] [ 3; 4; 5 ];
  Prob_dag.add_edge pd 1 3;
  Prob_dag.add_edge pd 3 5;
  pd

(* Reweighting one graph's topology at another graph's weights gives
   the graph built at those weights, bit for bit: estimates, samples,
   the node-level (expanded) view. A reweighted graph refuses
   mutation, and nodes that [add_node] refuses *)
let test_reweight () =
  let rng = Rng.create 5 in
  let weights () =
    Array.init 6 (fun _ ->
        let base = Rng.float rng 10. in
        (base, 1.5 *. base, Rng.float rng 0.3))
  in
  let w1 = weights () and w2 = weights () in
  let built = joined_graph w2 in
  let field f = Array.map f w2 in
  let reweight = Prob_dag.reweight (Prob_dag.topology (joined_graph w1)) in
  let re =
    reweight
      ~base:(field (fun (b, _, _) -> b))
      ~degraded:(field (fun (_, d, _) -> d))
      ~pfail:(field (fun (_, _, p) -> p))
  in
  let bits = Int64.bits_of_float in
  List.iter
    (fun m ->
      Alcotest.(check int64) (Evaluator.name m)
        (bits (Evaluator.estimate m built))
        (bits (Evaluator.estimate m re)))
    Evaluator.[ Pathapprox; Normal; Dodin { max_support = 64 }; Montecarlo { trials = 500; seed = 2 } ];
  Alcotest.(check int64) "expected work" (bits (Prob_dag.expected_work built))
    (bits (Prob_dag.expected_work re));
  Alcotest.(check (array int)) "topological order" (Prob_dag.topological_order built)
    (Prob_dag.topological_order re);
  for i = 0 to 5 do
    Alcotest.(check (list int)) "succs" (Prob_dag.succs built i) (Prob_dag.succs re i);
    Alcotest.(check (list int)) "preds" (Prob_dag.preds built i) (Prob_dag.preds re i);
    Alcotest.(check bool) "node" true (Prob_dag.node built i = Prob_dag.node re i)
  done;
  Alcotest.(check int) "joins" 1 (Prob_dag.n_joins re);
  let refused what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  refused "add_edge on a reweighted graph" (fun () -> Prob_dag.add_edge re 0 5);
  refused "add_node on a reweighted graph" (fun () ->
      ignore (Prob_dag.add_node re ~base:1. ~degraded:1. ~pfail:0.));
  refused "add_join on a reweighted graph" (fun () -> Prob_dag.add_join re [ 0 ] [ 5 ]);
  let ones = Array.make 6 1. and zeros = Array.make 6 0. in
  refused "degraded < base" (fun () -> reweight ~base:ones ~degraded:zeros ~pfail:zeros);
  refused "pfail > 1" (fun () -> reweight ~base:ones ~degraded:ones ~pfail:(Array.make 6 1.5));
  refused "one weight short" (fun () ->
      reweight ~base:(Array.make 5 1.) ~degraded:ones ~pfail:zeros)

let suite =
  [
    Alcotest.test_case "prob_dag validation" `Quick test_prob_dag_validation;
    Alcotest.test_case "duplicate edges idempotent" `Quick test_prob_dag_duplicate_edge_idempotent;
    Alcotest.test_case "deterministic makespan" `Quick test_deterministic_makespan;
    Alcotest.test_case "expected work" `Quick test_expected_work;
    Alcotest.test_case "MC chain" `Quick test_montecarlo_chain;
    Alcotest.test_case "MC deterministic" `Quick test_montecarlo_deterministic_exact;
    Alcotest.test_case "Dodin chain exact" `Quick test_dodin_exact_on_chain;
    Alcotest.test_case "Dodin SP vs MC" `Slow test_dodin_exact_on_sp;
    Alcotest.test_case "Dodin distribution mass" `Quick test_dodin_distribution_mass;
    Alcotest.test_case "Sculli chain mean" `Quick test_sculli_chain_mean_exact;
    Alcotest.test_case "Sculli on SP" `Slow test_sculli_reasonable_on_sp;
    Alcotest.test_case "PathApprox L0" `Quick test_pathapprox_no_failures;
    Alcotest.test_case "PathApprox single node" `Quick test_pathapprox_single_node;
    Alcotest.test_case "PathApprox first order" `Quick test_pathapprox_first_order_chain;
    Alcotest.test_case "PathApprox vs MC" `Slow test_pathapprox_close_to_mc_small_pfail;
    Alcotest.test_case "Exact SP chain" `Quick test_exact_sp_chain;
    Alcotest.test_case "Exact SP parallel" `Quick test_exact_sp_parallel;
    Alcotest.test_case "Exact SP vs MC" `Slow test_exact_sp_matches_mc_forkjoin;
    Alcotest.test_case "Dodin = Exact on SP" `Quick test_dodin_matches_exact_sp;
    Alcotest.test_case "Theorem 1 formula" `Quick test_ckptnone_formula;
    Alcotest.test_case "bounds on chain" `Quick test_bounds_on_chain;
    Alcotest.test_case "bounds bracket MC" `Slow test_bounds_bracket_mc;
    Alcotest.test_case "bounds on fork" `Quick test_bounds_fork;
    Alcotest.test_case "evaluator dispatch" `Quick test_evaluator_dispatch;
    Alcotest.test_case "evaluator of_name" `Quick test_evaluator_of_name;
    Alcotest.test_case "estimators vs MC (VI-B)" `Slow test_estimators_agree_with_mc;
    Alcotest.test_case "reweight = rebuild at the new weights" `Quick test_reweight;
  ]
