(* Tests for Ckpt_prob.Dist: the distribution calculus used by Dodin's
   estimator and the exact SP evaluation. Includes QCheck properties
   on convolution/max moments. *)

module Dist = Ckpt_prob.Dist
module Rng = Ckpt_prob.Rng

let feq ?(eps = 1e-9) a b = abs_float (a -. b) <= eps *. (1. +. abs_float a)
let check_close ?(eps = 1e-9) msg a b = if not (feq ~eps a b) then Alcotest.failf "%s: %g vs %g" msg a b

let test_constant () =
  let d = Dist.constant 4.2 in
  check_close "mean" (Dist.mean d) 4.2;
  check_close "variance" (Dist.variance d) 0.;
  Alcotest.(check int) "size" 1 (Dist.size d)

let test_two_state_model () =
  (* the paper's Eq. 1 task model: r+w=10, p=0.05 *)
  let d = Dist.two_state ~p:0.05 10. 15. in
  check_close "mean" (Dist.mean d) ((0.95 *. 10.) +. (0.05 *. 15.));
  Alcotest.(check int) "two points" 2 (Dist.size d)

let test_two_state_degenerate () =
  Alcotest.(check int) "p=0 collapses" 1 (Dist.size (Dist.two_state ~p:0. 3. 5.));
  Alcotest.(check int) "p=1 collapses" 1 (Dist.size (Dist.two_state ~p:1. 3. 5.));
  check_close "p=1 value" (Dist.mean (Dist.two_state ~p:1. 3. 5.)) 5.;
  Alcotest.(check int) "equal values collapse" 1 (Dist.size (Dist.two_state ~p:0.5 3. 3.))

let test_of_list_merges_duplicates () =
  let d = Dist.of_list [ (1., 0.25); (1., 0.25); (2., 0.5) ] in
  Alcotest.(check int) "merged" 2 (Dist.size d);
  check_close "mass at 1" (Dist.cdf d 1.) 0.5

let test_of_list_renormalises () =
  let d = Dist.of_list [ (0., 2.); (1., 2.) ] in
  check_close "mean after renormalisation" (Dist.mean d) 0.5

let test_of_list_rejects_bad_input () =
  Alcotest.check_raises "empty" (Invalid_argument "Dist.of_list: empty support") (fun () ->
      ignore (Dist.of_list []));
  Alcotest.check_raises "negative" (Invalid_argument "Dist.of_list: negative probability")
    (fun () -> ignore (Dist.of_list [ (1., -0.5); (2., 1.5) ]))

let test_add_two_coins () =
  (* sum of two fair {0,1} coins = binomial(2, 1/2) *)
  let coin = Dist.two_state ~p:0.5 0. 1. in
  let s = Dist.add coin coin in
  Alcotest.(check int) "support {0,1,2}" 3 (Dist.size s);
  check_close "P(sum<=0)" (Dist.cdf s 0.) 0.25;
  check_close "P(sum<=1)" (Dist.cdf s 1.) 0.75;
  check_close "mean" (Dist.mean s) 1.

let test_max_two_coins () =
  let coin = Dist.two_state ~p:0.5 0. 1. in
  let m = Dist.max2 coin coin in
  check_close "P(max=0)" (Dist.cdf m 0.) 0.25;
  check_close "mean of max" (Dist.mean m) 0.75

let test_min_two_coins () =
  let coin = Dist.two_state ~p:0.5 0. 1. in
  let m = Dist.min2 coin coin in
  check_close "P(min=0)" (Dist.cdf m 0.) 0.75;
  check_close "mean of min" (Dist.mean m) 0.25

let test_shift_scale () =
  let d = Dist.two_state ~p:0.3 2. 4. in
  check_close "shift mean" (Dist.mean (Dist.shift d 10.)) (Dist.mean d +. 10.);
  check_close "scale mean" (Dist.mean (Dist.scale d 3.)) (3. *. Dist.mean d);
  check_close "scale variance" (Dist.variance (Dist.scale d 3.)) (9. *. Dist.variance d)

let test_quantile () =
  let d = Dist.of_list [ (1., 0.2); (2., 0.3); (5., 0.5) ] in
  check_close "q0.1" (Dist.quantile d 0.1) 1.;
  check_close "q0.2" (Dist.quantile d 0.2) 1.;
  check_close "q0.4" (Dist.quantile d 0.4) 2.;
  check_close "q1" (Dist.quantile d 1.0) 5.

let test_compact_preserves_mean () =
  let rng = Rng.create 3 in
  let pts = List.init 5000 (fun _ -> (Rng.float rng 100., Rng.float rng 1.)) in
  let d = Dist.of_list pts in
  let c = Dist.compact ~max_size:64 d in
  Alcotest.(check bool) "size bounded" true (Dist.size c <= 64);
  check_close ~eps:1e-9 "expectation preserved exactly" (Dist.mean d) (Dist.mean c)

let test_compact_noop_small () =
  let d = Dist.two_state ~p:0.5 1. 2. in
  Alcotest.(check bool) "already small" true (Dist.equal d (Dist.compact ~max_size:16 d))

let test_sample_matches_distribution () =
  let d = Dist.of_list [ (1., 0.25); (3., 0.5); (7., 0.25) ] in
  let rng = Rng.create 9 in
  let n = 100_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Dist.sample d rng
  done;
  let mean = !acc /. float_of_int n in
  check_close ~eps:0.02 "sampled mean" (Dist.mean d) mean

(* --- QCheck properties --- *)

let arb_dist =
  let open QCheck in
  let point = pair (float_bound_inclusive 50.) (float_range 0.01 1.) in
  map
    (fun pts -> Dist.of_list pts)
    (list_of_size Gen.(int_range 1 6) point |> map (fun l -> if l = [] then [ (1., 1.) ] else l))

let prop_add_mean_linear =
  QCheck.Test.make ~name:"E[X+Y] = E[X]+E[Y]" ~count:200 (QCheck.pair arb_dist arb_dist)
    (fun (a, b) -> feq ~eps:1e-6 (Dist.mean (Dist.add a b)) (Dist.mean a +. Dist.mean b))

let prop_add_variance_additive =
  QCheck.Test.make ~name:"Var[X+Y] = Var[X]+Var[Y]" ~count:200 (QCheck.pair arb_dist arb_dist)
    (fun (a, b) ->
      feq ~eps:1e-5 (Dist.variance (Dist.add a b)) (Dist.variance a +. Dist.variance b))

let prop_max_ge_means =
  QCheck.Test.make ~name:"E[max] >= max(E[X],E[Y])" ~count:200 (QCheck.pair arb_dist arb_dist)
    (fun (a, b) ->
      Dist.mean (Dist.max2 a b) >= Float.max (Dist.mean a) (Dist.mean b) -. 1e-9)

let prop_max_plus_min =
  QCheck.Test.make ~name:"E[max]+E[min] = E[X]+E[Y]" ~count:200 (QCheck.pair arb_dist arb_dist)
    (fun (a, b) ->
      feq ~eps:1e-6
        (Dist.mean (Dist.max2 a b) +. Dist.mean (Dist.min2 a b))
        (Dist.mean a +. Dist.mean b))

let prop_total_mass =
  QCheck.Test.make ~name:"total probability is 1" ~count:200 arb_dist (fun d ->
      let total = Array.fold_left (fun acc (_, p) -> acc +. p) 0. (Dist.support d) in
      feq ~eps:1e-9 total 1.)

let prop_max_commutative =
  QCheck.Test.make ~name:"max2 commutes" ~count:200 (QCheck.pair arb_dist arb_dist)
    (fun (a, b) -> Dist.equal ~eps:1e-7 (Dist.max2 a b) (Dist.max2 b a))

let suite =
  [
    Alcotest.test_case "constant" `Quick test_constant;
    Alcotest.test_case "two-state task model" `Quick test_two_state_model;
    Alcotest.test_case "two-state degenerate" `Quick test_two_state_degenerate;
    Alcotest.test_case "of_list merges" `Quick test_of_list_merges_duplicates;
    Alcotest.test_case "of_list renormalises" `Quick test_of_list_renormalises;
    Alcotest.test_case "of_list rejects" `Quick test_of_list_rejects_bad_input;
    Alcotest.test_case "convolution of coins" `Quick test_add_two_coins;
    Alcotest.test_case "max of coins" `Quick test_max_two_coins;
    Alcotest.test_case "min of coins" `Quick test_min_two_coins;
    Alcotest.test_case "shift/scale" `Quick test_shift_scale;
    Alcotest.test_case "quantile" `Quick test_quantile;
    Alcotest.test_case "compact preserves mean" `Quick test_compact_preserves_mean;
    Alcotest.test_case "compact no-op when small" `Quick test_compact_noop_small;
    Alcotest.test_case "sampling matches" `Quick test_sample_matches_distribution;
    QCheck_alcotest.to_alcotest prop_add_mean_linear;
    QCheck_alcotest.to_alcotest prop_add_variance_additive;
    QCheck_alcotest.to_alcotest prop_max_ge_means;
    QCheck_alcotest.to_alcotest prop_max_plus_min;
    QCheck_alcotest.to_alcotest prop_total_mass;
    QCheck_alcotest.to_alcotest prop_max_commutative;
  ]
