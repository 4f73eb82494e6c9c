(* Tests for Ckpt_analytic: the closed-form expected-makespan engine,
   the RESTART / hybrid strategies it prices, and the analytic-vs-MC
   cross-validation.

   Calibration note on the agreement bounds. The Monte-Carlo 95%
   confidence interval excludes the *true* expectation 5% of the time
   by construction, so "analytic inside the MC CI" over randomised
   inputs is flaky even for an exact evaluator (measured: the exact
   series-parallel calculus lands outside the CI on ~7% of random
   M-SPG seeds). The randomised properties therefore use three
   half-widths (~5.9 sigma, per-case flake probability ~4e-9; worst
   observed gap over 600 probed seeds was 1.75 half-widths), while
   strict CI containment is asserted on pinned deterministic
   configurations where it was verified to hold, among them every cell
   of the default GENOME n=300 sweep. *)

module Dag = Ckpt_dag.Dag
module Mspg = Ckpt_mspg.Mspg
module Random_wf = Ckpt_workflows.Random_wf
module Spec = Ckpt_workflows.Spec
module Platform = Ckpt_platform.Platform
module Placement = Ckpt_core.Placement
module Pipeline = Ckpt_core.Pipeline
module Strategy = Ckpt_core.Strategy
module Schedule = Ckpt_core.Schedule
module Superchain = Ckpt_core.Superchain
module Prob_dag = Ckpt_eval.Prob_dag
module Montecarlo = Ckpt_eval.Montecarlo
module Ckptnone = Ckpt_eval.Ckptnone
module Stats = Ckpt_prob.Stats
module Runner = Ckpt_sim.Runner
module Analytic = Ckpt_analytic.Analytic

let check_close ?(eps = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > eps *. (1. +. abs_float expected) then
    Alcotest.failf "%s: expected %g, got %g" msg expected actual

let random_setup seed =
  let m = Random_wf.generate ~seed ~max_tasks:35 () in
  Pipeline.prepare ~dag:m.Mspg.dag
    ~processors:(1 + (seed mod 7))
    ~pfail:0.005 ~ccr:0.3 ()

let chain_dag ?(n = 12) () =
  let d = Dag.create ~name:"chain" () in
  let prev = ref None in
  for i = 0 to n - 1 do
    let t =
      Dag.add_task d ~name:(Printf.sprintf "t%d" i) ~weight:(10. +. float_of_int i)
    in
    (match !prev with Some p -> Dag.add_edge d p t 1. | None -> ());
    prev := Some t
  done;
  d

let chain_setup ?n ?(pfail = 0.02) ?(ccr = 0.1) () =
  Pipeline.prepare ~dag:(chain_dag ?n ()) ~processors:1 ~pfail ~ccr ()

(* --- per-segment kernels ---------------------------------------- *)

let test_segment_time () =
  (* reliable processor: both models are the raw duration *)
  check_close "first-order, lambda=0" 7.5
    (Analytic.segment_time Analytic.First_order ~lambda:0. 7.5);
  check_close "exact, lambda=0" 7.5 (Analytic.segment_time Analytic.Exact ~lambda:0. 7.5);
  (* First_order is bitwise the Algorithm-2 DP cost *)
  let lambda = 0.003 and s = 42. in
  Alcotest.(check bool)
    "first_order = Placement.first_order (bitwise)" true
    (Analytic.segment_time Analytic.First_order ~lambda s
    = Placement.first_order ~lambda s);
  (* Exact is (e^{lambda s} - 1)/lambda *)
  check_close "exact closed form"
    (Float.expm1 (lambda *. s) /. lambda)
    (Analytic.segment_time Analytic.Exact ~lambda s);
  (* the two agree to O((lambda s)^2) and Exact dominates *)
  let fo = Analytic.segment_time Analytic.First_order ~lambda s in
  let ex = Analytic.segment_time Analytic.Exact ~lambda s in
  Alcotest.(check bool) "exact >= first-order for small lambda*s" true (ex >= fo);
  check_close ~eps:1e-2 "models agree to second order" fo ex

let test_restart_time () =
  let rate = 0.004 and wpar = 130. in
  Alcotest.(check bool)
    "first-order restart = Ckptnone closed form (bitwise)" true
    (Analytic.restart_time Analytic.First_order ~rate wpar
    = Ckptnone.expected_makespan_rate ~wpar ~rate);
  check_close "exact restart closed form"
    (Float.expm1 (rate *. wpar) /. rate)
    (Analytic.restart_time Analytic.Exact ~rate wpar);
  (* lambda -> 0: re-execution vanishes, makespan -> wpar *)
  check_close ~eps:1e-6 "exact restart -> wpar as rate -> 0" wpar
    (Analytic.restart_time Analytic.Exact ~rate:1e-12 wpar)

(* --- the analytic functional vs the estimators ------------------- *)

(* Agreement with the MC estimator on random M-SPGs and placements:
   within three 95%-CI half-widths (see calibration note above). *)
let prop_analytic_within_mc =
  QCheck.Test.make ~count:25 ~name:"analytic within 3 MC half-widths (random M-SPGs)"
    QCheck.small_nat (fun seed ->
      let m = Random_wf.generate ~seed ~max_tasks:35 () in
      let setup =
        Pipeline.prepare ~dag:m.Mspg.dag
          ~processors:(1 + (seed mod 7))
          ~pfail:0.001 ~ccr:0.5 ()
      in
      List.for_all
        (fun kind ->
          let plan = Pipeline.plan setup kind in
          match plan.Strategy.prob_dag with
          | None -> true
          | Some pd ->
              let st =
                Montecarlo.estimate_with_stats ~trials:10_000 ~seed:(seed + 7) pd
              in
              let gap = abs_float (Analytic.expected_makespan plan -. Stats.mean st) in
              gap <= (3. *. Stats.ci95_halfwidth st) +. 1e-9)
        [ Strategy.Ckpt_some; Strategy.Ckpt_all ])

(* Strict CI containment on pinned deterministic configurations:
   |analytic - MC mean| <= the MC 95% half-width for CKPTSOME and
   CKPTALL. Besides three small GENOME cells, the pins are GENOME n=300
   p=35 pfail=1e-3 at the nine CCRs `ckptwf sweep` prices for GENOME,
   built with the same formula so the values match bit for bit (worst
   gap 0.92 of a half-width). *)
let test_analytic_within_mc_ci_pinned () =
  let logspace lo hi n =
    List.init n (fun i ->
        let t = float_of_int i /. float_of_int (n - 1) in
        10. ** (log10 lo +. (t *. (log10 hi -. log10 lo))))
  in
  List.iter
    (fun (tasks, processors, pfail, ccr) ->
      let dag = Spec.generate Spec.Genome ~seed:1 ~tasks () in
      let setup = Pipeline.prepare ~dag ~processors ~pfail ~ccr () in
      List.iter
        (fun kind ->
          let plan = Pipeline.plan setup kind in
          match plan.Strategy.prob_dag with
          | None -> ()
          | Some pd ->
              let st = Montecarlo.estimate_with_stats ~trials:10_000 ~seed:1 pd in
              let gap = abs_float (Analytic.expected_makespan plan -. Stats.mean st) in
              if gap > Stats.ci95_halfwidth st then
                Alcotest.failf "%s tasks=%d ccr=%g: gap %g > half-width %g"
                  (Strategy.kind_name kind) tasks ccr gap (Stats.ci95_halfwidth st))
        [ Strategy.Ckpt_some; Strategy.Ckpt_all ])
    ([ (100, 10, 0.001, 0.01); (100, 10, 0.001, 0.001); (50, 5, 0.001, 0.01) ]
    @ List.map (fun ccr -> (300, 35, 0.001, ccr)) (logspace 1e-4 1e-2 9))

(* On a chain the makespan is a plain sum of independent segment
   times, the failure expansion is linear — i.e. exact. Cross-check
   against the exact series-parallel calculus. *)
let test_chain_first_order_is_exact () =
  let setup = chain_setup () in
  List.iter
    (fun kind ->
      let plan = Pipeline.plan setup kind in
      match Strategy.exact_expected_makespan plan with
      | None -> Alcotest.failf "%s: no exact value" (Strategy.kind_name kind)
      | Some exact ->
          check_close
            (Printf.sprintf "%s: analytic = exact on chain" (Strategy.kind_name kind))
            exact
            (Analytic.expected_makespan plan))
    [ Strategy.Ckpt_all; Strategy.Ckpt_some; Strategy.Ckpt_every 3; Strategy.Ckpt_restart ]

let test_ckptnone_matches_strategy_closed_form () =
  List.iter
    (fun seed ->
      let setup = random_setup seed in
      let plan = Pipeline.plan setup Strategy.Ckpt_none in
      (* Theorem 1 over the distinct processors the schedule uses; the
         platform is homogeneous, so the summation order is immaterial *)
      let rate =
        Array.to_list setup.Pipeline.schedule.Schedule.superchains
        |> List.map (fun sc -> sc.Superchain.processor)
        |> List.sort_uniq compare
        |> List.fold_left (fun acc p -> acc +. Platform.rate_of plan.Strategy.platform p) 0.
      in
      Alcotest.(check bool)
        "CKPTNONE analytic = Theorem-1 closed form (bitwise)" true
        (Analytic.expected_makespan plan
        = Ckptnone.expected_makespan_rate ~wpar:plan.Strategy.wpar ~rate))
    [ 0; 3; 11; 42 ]

(* --- Sodre asymptotic regimes (arXiv 1802.07455), Exact model ----- *)

(* lambda -> 0: checkpoint I/O is pure overhead, RESTART wins and its
   makespan converges to the failure-free time. Large lambda*W: the
   restart exponential e^{lambda W} dominates any per-checkpoint cost,
   checkpointing wins. Both on a chain, where the analytic values are
   exact. *)
let test_sodre_asymptotic_regimes () =
  let em setup kind = Analytic.expected_makespan ~model:Analytic.Exact (Pipeline.plan setup kind) in
  (* reliable regime *)
  let quiet = chain_setup ~pfail:1e-7 ~ccr:0.5 () in
  let r_quiet = em quiet Strategy.Ckpt_restart and a_quiet = em quiet Strategy.Ckpt_all in
  Alcotest.(check bool) "lambda->0: restart beats checkpoint-all" true (r_quiet < a_quiet);
  let none = Pipeline.plan quiet Strategy.Ckpt_none in
  check_close ~eps:1e-4 "lambda->0: restart makespan -> wpar" none.Strategy.wpar
    (Analytic.expected_makespan ~model:Analytic.Exact none);
  (* failure-dominated regime *)
  let noisy = chain_setup ~pfail:0.2 ~ccr:0.01 () in
  let r_noisy = em noisy Strategy.Ckpt_restart and a_noisy = em noisy Strategy.Ckpt_all in
  Alcotest.(check bool) "large lambda*W: checkpoint-all beats restart" true
    (a_noisy < r_noisy);
  (* CKPTNONE under Exact is the closed-form restart of the whole
     schedule: expm1(rate * wpar)/rate on the one processor used *)
  let none_noisy = Pipeline.plan noisy Strategy.Ckpt_none in
  let rate = Platform.rate_of none_noisy.Strategy.platform 0 in
  check_close "exact CKPTNONE = expm1(rate*wpar)/rate"
    (Float.expm1 (rate *. none_noisy.Strategy.wpar) /. rate)
    (Analytic.expected_makespan ~model:Analytic.Exact none_noisy)

(* --- schedule composition ---------------------------------------- *)

(* When no two superchains share a processor, the engine recurrence
   adds no constraint beyond the DAG edges, so under the Exact model
   schedule_makespan collapses to the longest path of expectations =
   expected_makespan ~model:Exact. *)
let prop_schedule_equals_expected_unique_procs =
  QCheck.Test.make ~count:80
    ~name:"schedule_makespan = expected_makespan (Exact, unique processors)"
    QCheck.small_nat (fun seed ->
      let setup = random_setup seed in
      let scs = setup.Pipeline.schedule.Schedule.superchains in
      let procs =
        Array.to_list (Array.map (fun sc -> sc.Superchain.processor) scs)
      in
      if List.length procs <> List.length (List.sort_uniq compare procs) then true
      else
        List.for_all
          (fun kind ->
            let plan = Pipeline.plan setup kind in
            Analytic.schedule_makespan ~model:Analytic.Exact plan
            = Analytic.expected_makespan ~model:Analytic.Exact plan)
          [ Strategy.Ckpt_some; Strategy.Ckpt_all; Strategy.Ckpt_restart ])

let test_runner_analytic_smoke () =
  let setup = random_setup 5 in
  let plan = Pipeline.plan setup Strategy.Ckpt_some in
  let a = Analytic.schedule_makespan ~model:Analytic.Exact plan in
  let mc = Runner.simulated_expected_makespan ~trials:2_000 ~seed:3 plan in
  Alcotest.(check bool) "analytic positive" true (a > 0.);
  (* both estimate the same schedule; engine simulation includes
     cross-superchain serialisation the DAG relaxes, so only loose
     agreement is asserted *)
  check_close ~eps:0.25 "runner analytic ~ runner mc" mc a

(* --- RESTART and hybrid strategies -------------------------------- *)

let test_restart_plan_shape () =
  let setup = random_setup 13 in
  let plan = Pipeline.plan setup Strategy.Ckpt_restart in
  let superchains = Array.length setup.Pipeline.schedule.Schedule.superchains in
  (* RESTART still checkpoints each superchain's exit (crossover data
     must survive), and nothing else *)
  Alcotest.(check int) "one checkpoint per superchain" superchains
    plan.Strategy.checkpoint_count;
  List.iter
    (fun (sc, positions) ->
      let n = Superchain.n_tasks setup.Pipeline.schedule.Schedule.superchains.(sc) in
      Alcotest.(check (list int))
        (Printf.sprintf "superchain %d restarts to its end" sc)
        [ n - 1 ] positions)
    (Strategy.checkpoint_positions plan)

let positions_equal a b =
  Strategy.checkpoint_positions a = Strategy.checkpoint_positions b

let test_hybrid_degenerate_cases () =
  let setup = random_setup 21 in
  (* threshold 0: no superchain is short enough to restart -> CKPTSOME *)
  let h0 = Pipeline.plan setup (Strategy.Ckpt_hybrid 0) in
  let some = Pipeline.plan setup Strategy.Ckpt_some in
  Alcotest.(check bool) "hybrid-0 places like ckpt-some" true (positions_equal h0 some);
  (* threshold >= longest superchain: everything restarts *)
  let hbig = Pipeline.plan setup (Strategy.Ckpt_hybrid max_int) in
  let restart = Pipeline.plan setup Strategy.Ckpt_restart in
  Alcotest.(check bool) "hybrid-max places like restart" true
    (positions_equal hbig restart)

let test_hybrid_interpolates () =
  let setup = random_setup 21 in
  let scs = setup.Pipeline.schedule.Schedule.superchains in
  let h3 = Pipeline.plan setup (Strategy.Ckpt_hybrid 3) in
  List.iter
    (fun (sc, positions) ->
      let n = Superchain.n_tasks scs.(sc) in
      if n <= 3 then
        Alcotest.(check (list int))
          (Printf.sprintf "short superchain %d restarts" sc)
          [ n - 1 ] positions)
    (Strategy.checkpoint_positions h3)

let test_strategy_names () =
  Alcotest.(check string) "restart name" "ckpt-restart"
    (Strategy.kind_name Strategy.Ckpt_restart);
  Alcotest.(check string) "hybrid name" "ckpt-hybrid-5"
    (Strategy.kind_name (Strategy.Ckpt_hybrid 5))

let suite =
  [
    Alcotest.test_case "segment-time kernels" `Quick test_segment_time;
    Alcotest.test_case "restart-time kernels" `Quick test_restart_time;
    Alcotest.test_case "strict MC CI containment (pinned configs)" `Slow
      test_analytic_within_mc_ci_pinned;
    QCheck_alcotest.to_alcotest prop_analytic_within_mc;
    Alcotest.test_case "exact on chains" `Quick test_chain_first_order_is_exact;
    Alcotest.test_case "CKPTNONE closed form" `Quick
      test_ckptnone_matches_strategy_closed_form;
    Alcotest.test_case "Sodre asymptotic regimes" `Quick test_sodre_asymptotic_regimes;
    QCheck_alcotest.to_alcotest prop_schedule_equals_expected_unique_procs;
    Alcotest.test_case "runner analytic smoke" `Quick test_runner_analytic_smoke;
    Alcotest.test_case "restart plan shape" `Quick test_restart_plan_shape;
    Alcotest.test_case "hybrid degenerate cases" `Quick test_hybrid_degenerate_cases;
    Alcotest.test_case "hybrid interpolates" `Quick test_hybrid_interpolates;
    Alcotest.test_case "strategy names" `Quick test_strategy_names;
  ]
