(* Bitwise golden digests of everything that reads a dummy-completed
   workflow: every estimator over the 2-state DAG of four plan kinds,
   the makespan distribution, the analytic and simulated makespans, and
   the superchain orders ALLOCATE produces under each linearisation
   policy. MONTAGE needs bipartite completion at every size; LIGO
   completes one or two small cuts. Floats are rendered with [%h], so a change
   in any bit, in the order of float operations or in the randomness
   consumed changes a digest. The digests were recorded while the
   completion was still materialised as zero-size edges in a copy of
   the DAG, and pin that keeping it implicit changed nothing. *)

module Spec = Ckpt_workflows.Spec
module Recognize = Ckpt_mspg.Recognize
module Pipeline = Ckpt_core.Pipeline
module Strategy = Ckpt_core.Strategy
module Allocate = Ckpt_core.Allocate
module Linearize = Ckpt_core.Linearize
module Schedule = Ckpt_core.Schedule
module Superchain = Ckpt_core.Superchain
module Evaluator = Ckpt_eval.Evaluator
module Analytic = Ckpt_analytic.Analytic
module Runner = Ckpt_sim.Runner
module Rng = Ckpt_prob.Rng
module Dist = Ckpt_prob.Dist

let digest parts = Digest.to_hex (Digest.string (String.concat ";" parts))

let check_digests name expected actual =
  Alcotest.(check (list (pair string string))) name expected actual

let setup wf ~tasks ~processors =
  let dag = Spec.generate wf ~seed:1 ~tasks () in
  Pipeline.prepare ~dag ~processors ~pfail:0.01 ~ccr:0.5 ()

let kinds = Strategy.[ Ckpt_some; Ckpt_all; Ckpt_every 2; Ckpt_restart ]

let methods =
  Evaluator.
    [ Montecarlo { trials = 2000; seed = 1 }; Dodin { max_support = 256 }; Normal; Pathapprox ]

(* one digest per (plan kind, estimator) *)
let estimate_digests s =
  List.concat_map
    (fun kind ->
      let plan = Pipeline.plan s kind in
      List.map
        (fun m ->
          ( Strategy.kind_name kind ^ "/" ^ Evaluator.name m,
            Printf.sprintf "%h" (Strategy.expected_makespan ~method_:m plan) ))
        methods)
    kinds

let test_estimates label wf ~tasks ~processors expected () =
  let actual = estimate_digests (setup wf ~tasks ~processors) in
  check_digests label [ (label, expected) ]
    [ (label, digest (List.map (fun (k, v) -> k ^ "=" ^ v) actual)) ]

let test_montage50_p4_plan () =
  let plan = Pipeline.plan (setup Spec.Montage ~tasks:50 ~processors:4) Strategy.Ckpt_some in
  let quantiles =
    match Strategy.makespan_distribution plan with
    | None -> Alcotest.fail "no makespan distribution"
    | Some d -> List.map (fun q -> Printf.sprintf "%h" (Dist.quantile d q)) [ 0.5; 0.9; 0.99 ]
  in
  check_digests "MONTAGE n=50 p=4 CKPTSOME"
    [
      ("quantiles", "9340617aae3e477a0126b93daa4a5c0e");
      ("analytic", "ade3b5413365ef047fbe2f725165ee8f");
      ("runner", "7726b9157f3f4089208e82ec0e79e429");
    ]
    [
      ("quantiles", digest quantiles);
      ( "analytic",
        digest
          [
            Printf.sprintf "%h" (Analytic.expected_makespan ~model:Analytic.Exact plan);
            Printf.sprintf "%h" (Analytic.schedule_makespan plan);
          ] );
      ( "runner",
        digest
          (Array.to_list
             (Array.map (Printf.sprintf "%h") (Runner.sample_makespans ~trials:300 ~seed:5 plan)))
      );
    ]

let render_schedule (s : Schedule.t) =
  Array.to_list
    (Array.map
       (fun (sc : Superchain.t) ->
         Printf.sprintf "%d:%s" sc.Superchain.processor
           (String.concat "," (Array.to_list (Array.map string_of_int sc.Superchain.order))))
       s.Schedule.superchains)

(* the superchain orders of one completed M-SPG under each policy *)
let order_digests label dag procs =
  let mspg =
    match Recognize.of_dag_completed dag with
    | Ok (m, _) -> m
    | Error e -> Alcotest.fail e
  in
  List.concat_map
    (fun processors ->
      List.map
        (fun (pname, policy) ->
          ( Printf.sprintf "%s p=%d %s" label processors pname,
            digest (render_schedule (Allocate.run ~policy:(policy ()) mspg ~processors)) ))
        [
          ("deterministic", fun () -> Linearize.Deterministic);
          ("random", fun () -> Linearize.Random (Rng.create 7));
          ("min-volume", fun () -> Linearize.Min_volume);
        ])
    procs

let test_orders () =
  let gen wf tasks = Spec.generate wf ~seed:1 ~tasks () in
  check_digests "superchain orders"
    [
      ("MONTAGE n=50 p=1 deterministic", "1a23c328c7e177f08ace32d23d57ab54");
      ("MONTAGE n=50 p=1 random", "4f8c793e1abb93ecb651159bca33c8a1");
      ("MONTAGE n=50 p=1 min-volume", "1a23c328c7e177f08ace32d23d57ab54");
      ("MONTAGE n=50 p=2 deterministic", "1a5575d0d8fd96aa677b6ebc6ae05a1c");
      ("MONTAGE n=50 p=2 random", "683e306e0f09a6b6f2eaecd6170a5dc8");
      ("MONTAGE n=50 p=2 min-volume", "1a5575d0d8fd96aa677b6ebc6ae05a1c");
      ("MONTAGE n=50 p=5 deterministic", "6bb3e3114f82267b05df1319082a004b");
      ("MONTAGE n=50 p=5 random", "38c411eb33db25609b67b97259738bde");
      ("MONTAGE n=50 p=5 min-volume", "6bb3e3114f82267b05df1319082a004b");
      ("MONTAGE n=300 p=1 deterministic", "d5f4a83cfb7a6c5c219b749ccec4c4f5");
      ("MONTAGE n=300 p=1 random", "b7ef2ab77b67857517f27b3af4c98d5d");
      ("MONTAGE n=300 p=1 min-volume", "d5f4a83cfb7a6c5c219b749ccec4c4f5");
      ("MONTAGE n=300 p=2 deterministic", "d6ca269b028f59a6688e4200413ae717");
      ("MONTAGE n=300 p=2 random", "0c76ad7417e52e7db35c2e21a5d9ffdc");
      ("MONTAGE n=300 p=2 min-volume", "d6ca269b028f59a6688e4200413ae717");
      ("MONTAGE n=300 p=5 deterministic", "a40285d6af9770115d6a42583da6434f");
      ("MONTAGE n=300 p=5 random", "975bc4ccdaacf8c3a2484407d8de5338");
      ("MONTAGE n=300 p=5 min-volume", "a40285d6af9770115d6a42583da6434f");
      ("LIGO n=300 p=1 deterministic", "6cb6dfa1a4a5e302562f6cc0b59d4e6d");
      ("LIGO n=300 p=1 random", "3f3539acd92f80e9f51b7de82ad78409");
      ("LIGO n=300 p=1 min-volume", "0a039181f01438711b8ce4071dfc7cce");
      ("LIGO n=300 p=2 deterministic", "27820d169bf2336d7712924497991762");
      ("LIGO n=300 p=2 random", "595663f9f633f5dc669c45ba722282b6");
      ("LIGO n=300 p=2 min-volume", "d66abf4792eee32472da719c4eca44ff");
      ("LIGO n=300 p=5 deterministic", "8c9b5b0c082beac783a55b2152ca05b2");
      ("LIGO n=300 p=5 random", "0efc8ef51decd9aed9420f8ae4c41afd");
      ("LIGO n=300 p=5 min-volume", "a55b5ddfd5e966605583da26b77f1de6");
      ("side-by-side p=1 deterministic", "d3cbc37be02659033adee84dc8dfa17b");
      ("side-by-side p=1 random", "9206ffd4c2f65f8a6e7b10034fc320f1");
      ("side-by-side p=1 min-volume", "2540b2734134a1c96cf6616f9c6aa7a8");
      ("side-by-side p=2 deterministic", "889664541041f93ece07eae01b753eeb");
      ("side-by-side p=2 random", "72a37bb686a5593a72cbac948b1414e7");
      ("side-by-side p=2 min-volume", "889664541041f93ece07eae01b753eeb");
    ]
    (List.concat
       [
         order_digests "MONTAGE n=50" (gen Spec.Montage 50) [ 1; 2; 5 ];
         order_digests "MONTAGE n=300" (gen Spec.Montage 300) [ 1; 2; 5 ];
         order_digests "LIGO n=300" (gen Spec.Ligo 300) [ 1; 2; 5 ];
         order_digests "side-by-side" (Completion_fixture.side_by_side ()) [ 1; 2 ];
       ])

(* LIGO n=1000 completes cuts of 2x82 and 3x123 tasks that land inside
   one superchain at p = 1 and 2, so linearisation must order their
   missing pairs there; recorded, like the digests above, with the
   completion materialised *)
let test_orders_in_superchain_cuts () =
  check_digests "superchain orders, in-superchain cuts"
    [
      ("LIGO n=1000 p=1 deterministic", "d11dcb1d08be98fac892b373f6576d06");
      ("LIGO n=1000 p=1 random", "0fbf013112ed99497d995c7411be2ed0");
      ("LIGO n=1000 p=1 min-volume", "1dc7bbd3ecec183c7aaf94c4af73cb43");
      ("LIGO n=1000 p=2 deterministic", "95fbd51c755ec63f630e524ffd9f4c1a");
      ("LIGO n=1000 p=2 random", "286dc6379c1f38eed4a6365e3092b5f0");
      ("LIGO n=1000 p=2 min-volume", "7b073b23f330caa9ae5fa5b7b2b8842b");
    ]
    (order_digests "LIGO n=1000" (Spec.generate Spec.Ligo ~seed:1 ~tasks:1000 ()) [ 1; 2 ])

let suite =
  [
    Alcotest.test_case "estimators on MONTAGE n=50 p=1" `Quick
      (test_estimates "MONTAGE n=50 p=1" Spec.Montage ~tasks:50 ~processors:1
         "c1e381f77900e7b54a992f5043fedcc2");
    Alcotest.test_case "estimators on MONTAGE n=50 p=4" `Quick
      (test_estimates "MONTAGE n=50 p=4" Spec.Montage ~tasks:50 ~processors:4
         "8f080c11d6d293e29354fe44d699f87b");
    Alcotest.test_case "estimators on MONTAGE n=300 p=18" `Quick
      (test_estimates "MONTAGE n=300 p=18" Spec.Montage ~tasks:300 ~processors:18
         "55732a48940e8bf7717c8b443062b694");
    Alcotest.test_case "estimators on LIGO n=300 p=18" `Quick
      (test_estimates "LIGO n=300 p=18" Spec.Ligo ~tasks:300 ~processors:18
         "726397058da5ae61425e2f06fd9ccb2a");
    Alcotest.test_case "MONTAGE n=50 p=4 distribution, analytic, runner" `Quick
      test_montage50_p4_plan;
    Alcotest.test_case "superchain orders under every policy" `Quick test_orders;
    Alcotest.test_case "superchain orders with in-superchain cuts" `Quick
      test_orders_in_superchain_cuts;
  ]
