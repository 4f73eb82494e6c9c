(* Tests for Ckpt_sim: engine semantics on hand-built segment DAGs,
   restart semantics, and agreement with the analytical model. *)

module Engine = Ckpt_sim.Engine
module Runner = Ckpt_sim.Runner
module Failure = Ckpt_platform.Failure
module Rng = Ckpt_prob.Rng
module Stats = Ckpt_prob.Stats
module Strategy = Ckpt_core.Strategy
module Pipeline = Ckpt_core.Pipeline
module Spec = Ckpt_workflows.Spec

let check_close ?(eps = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > eps *. (1. +. abs_float expected) then
    Alcotest.failf "%s: expected %g, got %g" msg expected actual

let no_failures _ = Failure.create (Rng.create 1) ~lambda:0.

let test_sequential_segments () =
  let segs =
    [| { Engine.processor = 0; duration = 3.; preds = [] };
       { Engine.processor = 0; duration = 4.; preds = [ 0 ] } |]
  in
  check_close "sum" 7. (Engine.makespan segs no_failures)

let test_parallel_segments () =
  let segs =
    [| { Engine.processor = 0; duration = 3.; preds = [] };
       { Engine.processor = 1; duration = 5.; preds = [] } |]
  in
  check_close "max" 5. (Engine.makespan segs no_failures)

let test_processor_serialisation_without_deps () =
  (* same processor, no dependency: still serialised *)
  let segs =
    [| { Engine.processor = 0; duration = 3.; preds = [] };
       { Engine.processor = 0; duration = 5.; preds = [] } |]
  in
  check_close "serialised" 8. (Engine.makespan segs no_failures)

let test_cross_dependency_wait () =
  (* p1's segment waits for p0's *)
  let segs =
    [| { Engine.processor = 0; duration = 10.; preds = [] };
       { Engine.processor = 1; duration = 1.; preds = [ 0 ] } |]
  in
  check_close "waits" 11. (Engine.makespan segs no_failures)

let test_diamond_join () =
  let segs =
    [| { Engine.processor = 0; duration = 1.; preds = [] };
       { Engine.processor = 0; duration = 4.; preds = [ 0 ] };
       { Engine.processor = 1; duration = 7.; preds = [ 0 ] };
       { Engine.processor = 2; duration = 1.; preds = [ 1; 2 ] } |]
  in
  check_close "diamond" 9. (Engine.makespan segs no_failures)

let test_topological_order_enforced () =
  let segs =
    [| { Engine.processor = 0; duration = 1.; preds = [ 1 ] };
       { Engine.processor = 0; duration = 1.; preds = [] } |]
  in
  Alcotest.(check bool) "rejected" true
    (match Engine.makespan segs no_failures with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* per-processor state is indexed by processor id: sparse ids (a
   replan onto survivors) run, negative ones are refused *)
let test_processor_ids () =
  let segs =
    [| { Engine.processor = 7; duration = 2.; preds = [] };
       { Engine.processor = 3; duration = 1.; preds = [ 0 ] } |]
  in
  check_close "sparse ids" 3. (Engine.makespan segs no_failures);
  let negative = [| { Engine.processor = -1; duration = 1.; preds = [] } |] in
  let rejected f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool) "makespan rejects" true
    (rejected (fun () -> Engine.makespan negative no_failures));
  Alcotest.(check bool) "run rejects" true
    (rejected (fun () -> (Engine.run negative no_failures).Engine.finish))

let test_failure_retry_statistics () =
  (* single segment of duration d, failure rate λ: expected completion
     time of the retry process is (e^{λd} - 1)/λ *)
  let lambda = 0.01 and d = 50. in
  let rng = Rng.create 42 in
  let stats = Stats.create () in
  for _ = 1 to 5000 do
    let trial = Rng.split rng in
    let segs = [| { Engine.processor = 0; duration = d; preds = [] } |] in
    Stats.add stats (Engine.makespan segs (fun _ -> Failure.create trial ~lambda))
  done;
  let expected = (exp (lambda *. d) -. 1.) /. lambda in
  let err = abs_float (Stats.mean stats -. expected) /. expected in
  if err > 0.03 then
    Alcotest.failf "retry mean %f vs %f (%.1f%%)" (Stats.mean stats) expected (err *. 100.)

let test_zero_duration_segments_immune () =
  let lambda = 100. in
  let rng = Rng.create 4 in
  let segs = [| { Engine.processor = 0; duration = 0.; preds = [] } |] in
  check_close "no spin" 0. (Engine.makespan segs (fun _ -> Failure.create rng ~lambda))

let test_lambda_zero_exact_makespan () =
  (* λ exactly 0 (not merely tiny): every trial is the deterministic
     longest path, bitwise *)
  let dag = Spec.generate Spec.Genome ~seed:1 ~tasks:50 () in
  let s = Pipeline.prepare ~dag ~processors:5 ~pfail:0. ~ccr:0.01 () in
  let plan = Pipeline.plan s Strategy.Ckpt_some in
  let pd = Option.get plan.Strategy.prob_dag in
  let det = Ckpt_eval.Prob_dag.deterministic_makespan pd in
  let sample = Runner.sample_makespans ~trials:5 plan in
  Array.iter (fun m -> check_close ~eps:0. "exactly deterministic" det m) sample

let test_zero_duration_segment_in_failing_chain () =
  (* a zero-duration segment inside a chain under a dense failure trace:
     it commits instantly at its ready time and never retries *)
  let lambda = 1000. in
  let segs =
    [| { Engine.processor = 0; duration = 0.; preds = [] };
       { Engine.processor = 0; duration = 0.; preds = [ 0 ] };
       { Engine.processor = 1; duration = 0.; preds = [ 1 ] } |]
  in
  let { Engine.records; finish = m; _ } =
    Engine.run segs (fun _ -> Failure.create (Rng.create 8) ~lambda)
  in
  check_close "still instantaneous" 0. m;
  Array.iter
    (fun (r : Engine.record) ->
      Alcotest.(check int) "single attempt" 1 (List.length r.Engine.attempts);
      List.iter
        (fun (a : Engine.attempt) ->
          Alcotest.(check bool) "never fails" false a.Engine.failed)
        r.Engine.attempts)
    records

let test_forced_first_attempt_failure () =
  (* single-segment plan whose first attempt provably fails: scan seeds
     for a trace with a failure inside the first attempt and none inside
     the retry window, then check the makespan is exactly
     failure instant + duration and the attempt log shows the retry *)
  let d = 50. and lambda = 0.02 in
  let trace seed = Failure.create (Rng.create seed) ~lambda in
  let rec find seed =
    if seed > 10_000 then Alcotest.fail "no suitable failure trace found"
    else
      let probe = trace seed in
      let t1 = Failure.next_after probe 0. in
      if t1 < d && Failure.next_after probe t1 > t1 +. d then seed else find (seed + 1)
  in
  let seed = find 0 in
  let t1 = Failure.next_after (trace seed) 0. in
  let segs = [| { Engine.processor = 0; duration = d; preds = [] } |] in
  let { Engine.records; finish = m; _ } = Engine.run segs (fun _ -> trace seed) in
  check_close "failure instant + duration" (t1 +. d) m;
  match records.(0).Engine.attempts with
  | [ first; second ] ->
      Alcotest.(check bool) "first attempt failed" true first.Engine.failed;
      check_close "cut at the failure" t1 first.Engine.attempt_end;
      Alcotest.(check bool) "retry succeeded" false second.Engine.failed;
      check_close "retry starts at the failure" t1 second.Engine.attempt_start
  | l -> Alcotest.failf "expected exactly two attempts, got %d" (List.length l)

let test_restart_semantics_failure_free () =
  let rng = Rng.create 5 in
  check_close "wpar when no failures" 123.
    (Engine.restart_rate_makespan ~wpar:123. ~rate:0. rng);
  Alcotest.check_raises "negative Wpar"
    (Invalid_argument "Engine.restart_rate_makespan: negative Wpar") (fun () ->
      ignore (Engine.restart_rate_makespan ~wpar:(-1.) ~rate:0. rng));
  Alcotest.check_raises "negative rate"
    (Invalid_argument "Engine.restart_rate_makespan: negative rate") (fun () ->
      ignore (Engine.restart_rate_makespan ~wpar:123. ~rate:(-1.) rng))

let test_restart_statistics () =
  (* restart process: E[T] = (e^{rW} - 1)/r with r = p λ *)
  let lambda = 0.0005 and wpar = 100. and processors = 4 in
  let r = float_of_int processors *. lambda in
  let rng = Rng.create 6 in
  let stats = Stats.create () in
  for _ = 1 to 20000 do
    Stats.add stats (Engine.restart_rate_makespan ~wpar ~rate:r (Rng.split rng))
  done;
  let expected = (exp (r *. wpar) -. 1.) /. r in
  let err = abs_float (Stats.mean stats -. expected) /. expected in
  if err > 0.02 then Alcotest.failf "restart mean %f vs %f" (Stats.mean stats) expected

let setup () =
  let dag = Spec.generate Spec.Genome ~seed:1 ~tasks:50 () in
  Pipeline.prepare ~dag ~processors:5 ~pfail:0.01 ~ccr:0.01 ()

let test_segs_of_plan_shape () =
  let s = setup () in
  let plan = Pipeline.plan s Strategy.Ckpt_some in
  let segs = Runner.segs_of_plan plan in
  Alcotest.(check int) "one seg per segment" (Array.length plan.Strategy.segments)
    (Array.length segs);
  Array.iter
    (fun seg -> Alcotest.(check bool) "duration >= 0" true (seg.Engine.duration >= 0.))
    segs

let test_segs_of_plan_rejects_none () =
  let s = setup () in
  let plan = Pipeline.plan s Strategy.Ckpt_none in
  Alcotest.(check bool) "rejected" true
    (match Runner.segs_of_plan plan with exception Invalid_argument _ -> true | _ -> false)

let test_simulation_failure_free_matches_deterministic () =
  (* with pfail ~ 0 the simulated makespan equals the deterministic
     longest path of the segment DAG *)
  let dag = Spec.generate Spec.Genome ~seed:1 ~tasks:50 () in
  let s = Pipeline.prepare ~dag ~processors:5 ~pfail:1e-12 ~ccr:0.01 () in
  let plan = Pipeline.plan s Strategy.Ckpt_some in
  let sim = Runner.simulated_expected_makespan ~trials:3 plan in
  match plan.Strategy.prob_dag with
  | None -> Alcotest.fail "prob dag"
  | Some pd ->
      check_close ~eps:1e-6 "matches deterministic"
        (Ckpt_eval.Prob_dag.deterministic_makespan pd)
        sim

let test_simulation_close_to_estimate () =
  let s = setup () in
  List.iter
    (fun kind ->
      let plan = Pipeline.plan s kind in
      let est = Strategy.expected_makespan plan in
      let sim = Runner.simulated_expected_makespan ~trials:3000 plan in
      let err = abs_float (sim -. est) /. est in
      (* the first-order model is approximate; allow 5% *)
      if err > 0.05 then
        Alcotest.failf "%s: simulated %f vs estimated %f (%.1f%%)"
          (Strategy.kind_name kind) sim est (err *. 100.))
    [ Strategy.Ckpt_all; Strategy.Ckpt_some ]

let test_simulation_deterministic_per_seed () =
  let s = setup () in
  let plan = Pipeline.plan s Strategy.Ckpt_some in
  let a = Runner.simulated_expected_makespan ~trials:100 ~seed:3 plan in
  let b = Runner.simulated_expected_makespan ~trials:100 ~seed:3 plan in
  check_close "reproducible" a b

let test_simulation_monotone_in_failures () =
  (* more failures, longer expected makespan *)
  let dag = Spec.generate Spec.Genome ~seed:1 ~tasks:50 () in
  let em pfail =
    let s = Pipeline.prepare ~dag ~processors:5 ~pfail ~ccr:0.01 () in
    Runner.simulated_expected_makespan ~trials:2000 (Pipeline.plan s Strategy.Ckpt_some)
  in
  Alcotest.(check bool) "monotone" true (em 0.0001 < em 0.05)

let suite =
  [
    Alcotest.test_case "sequential" `Quick test_sequential_segments;
    Alcotest.test_case "parallel" `Quick test_parallel_segments;
    Alcotest.test_case "processor serialisation" `Quick test_processor_serialisation_without_deps;
    Alcotest.test_case "cross dependency" `Quick test_cross_dependency_wait;
    Alcotest.test_case "diamond" `Quick test_diamond_join;
    Alcotest.test_case "topological order" `Quick test_topological_order_enforced;
    Alcotest.test_case "retry statistics" `Slow test_failure_retry_statistics;
    Alcotest.test_case "zero duration" `Quick test_zero_duration_segments_immune;
    Alcotest.test_case "lambda=0 exact makespan" `Quick test_lambda_zero_exact_makespan;
    Alcotest.test_case "zero-duration segment in failing chain" `Quick
      test_zero_duration_segment_in_failing_chain;
    Alcotest.test_case "forced first-attempt failure" `Quick test_forced_first_attempt_failure;
    Alcotest.test_case "restart failure-free" `Quick test_restart_semantics_failure_free;
    Alcotest.test_case "restart statistics" `Slow test_restart_statistics;
    Alcotest.test_case "segs of plan" `Quick test_segs_of_plan_shape;
    Alcotest.test_case "segs reject CKPTNONE" `Quick test_segs_of_plan_rejects_none;
    Alcotest.test_case "failure-free = deterministic" `Quick test_simulation_failure_free_matches_deterministic;
    Alcotest.test_case "simulation vs estimate" `Slow test_simulation_close_to_estimate;
    Alcotest.test_case "simulation reproducible" `Quick test_simulation_deterministic_per_seed;
    Alcotest.test_case "monotone in failures" `Slow test_simulation_monotone_in_failures;
    Alcotest.test_case "processor ids" `Quick test_processor_ids;
  ]
