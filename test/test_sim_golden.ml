(* Bitwise golden digests of every Monte-Carlo simulator path on one
   GENOME plan: the plain engine, the store-aware engine, the degraded
   (permanent-loss) trial loop and the spot-revocation trial loop, each
   under a spread of checkpoint-store configurations. Every trial field
   is rendered exactly ([%h] for floats), so any change to the order of
   float operations or to the randomness a trial consumes changes a
   digest. The digests were recorded before the simulators were merged
   onto one engine entry point and one replan loop (the warned-at-0
   case by running this file against that earlier tree), and pin that
   the merge changed nothing. The ckpt-all makespan digest (about 300
   segments on 35 processors) was recorded before [Engine.makespan]
   got its own record-free loop. The contention simulator's and the
   Monte-Carlo estimator's digests were recorded before the contention
   simulator lost its checkpoint-store path and the trial samplers
   moved onto one shared chunk loop. *)

module Spec = Ckpt_workflows.Spec
module Pipeline = Ckpt_core.Pipeline
module Strategy = Ckpt_core.Strategy
module Runner = Ckpt_sim.Runner
module Degrade = Ckpt_sim.Degrade
module Cloud = Ckpt_sim.Cloud
module Contention = Ckpt_sim.Contention
module Montecarlo = Ckpt_eval.Montecarlo
module Stats = Ckpt_prob.Stats
module Store = Ckpt_storage.Store
module Storage = Ckpt_storage.Storage

let genome_setup =
  lazy
    (let dag = Spec.generate Spec.Genome ~seed:3 ~tasks:40 () in
     Pipeline.prepare ~dag ~processors:4 ~pfail:0.01 ~ccr:0.5 ())

let plan = lazy (Pipeline.plan (Lazy.force genome_setup) Strategy.Ckpt_some)

(* MONTAGE needs bipartite completion, so its CKPTSOME plan has joins *)
let montage_setup =
  lazy
    (let dag = Spec.generate Spec.Montage ~seed:3 ~tasks:50 () in
     Pipeline.prepare ~dag ~processors:4 ~pfail:0.01 ~ccr:0.5 ())

(* the store configurations every sampler is pinned under *)
let stores =
  [
    ("passthrough", Store.default);
    ( "corrupt-replicated",
      {
        Store.default with
        Store.backend = Store.Replicated { k = 2 };
        faults = { Storage.default with Storage.corrupt_prob = 0.05 };
      } );
    ("every-2", { Store.default with Store.policy = Store.Every_k 2 });
    ("on-interrupt", { Store.default with Store.policy = Store.On_interrupt });
    ( "remote",
      {
        Store.default with
        Store.backend = Store.Remote { commit_latency = 0.5; read_latency = 0.25 };
      } );
  ]

let digest render trials =
  Digest.to_hex
    (Digest.string (String.concat ";" (Array.to_list (Array.map render trials))))

let render_stats (s : Store.stats) =
  Printf.sprintf "%d,%d,%d,%d,%d,%d,%d,%d,%d" s.Store.commits s.Store.commit_retries
    s.Store.commit_exhausted s.Store.reads s.Store.corrupt_reads s.Store.rejected_reads
    s.Store.skipped s.Store.resumed s.Store.evictions

let render_storage (t : Runner.storage_trial) =
  Printf.sprintf "%h,%d,%d,%d,%d,%s" t.Runner.makespan t.Runner.commit_retries
    t.Runner.commit_exhausted t.Runner.corrupt_reads t.Runner.rollbacks
    (render_stats t.Runner.store)

let render_degrade (t : Degrade.trial) =
  Printf.sprintf "%h,%d,%d,%d,%d,%d,%s" t.Degrade.makespan t.Degrade.losses
    t.Degrade.replans t.Degrade.restarts t.Degrade.rollbacks t.Degrade.invalidated
    (render_stats t.Degrade.store_stats)

let render_cloud (t : Cloud.trial) =
  Printf.sprintf "%h,%d,%d,%d,%d,%d,%h,%h" t.Cloud.makespan t.Cloud.revocations
    t.Cloud.rescues t.Cloud.rescued_tasks t.Cloud.replans t.Cloud.restarts
    t.Cloud.work_lost t.Cloud.dollar_cost

let check_digests name expected actual =
  Alcotest.(check (list (pair string string))) name expected actual

(* a CKPTALL plan of about 300 segments on 35 processors: many
   segments per processor, each trace created at its first segment *)
let ckpt_all_plan =
  lazy
    (let dag = Spec.generate Spec.Genome ~seed:3 ~tasks:300 () in
     let setup = Pipeline.prepare ~dag ~processors:35 ~pfail:0.01 ~ccr:0.5 () in
     Pipeline.plan setup Strategy.Ckpt_all)

let test_sample_makespans () =
  let sample plan =
    digest (Printf.sprintf "%h")
      (Runner.sample_makespans ~trials:300 ~seed:5 (Lazy.force plan))
  in
  check_digests "Runner.sample_makespans"
    [
      ("plain", "bc0ccaa99f950ddd8eb838a862d2bda5");
      ("ckpt-all", "fc535e9e6999466daf1ca5f3b4b3247c");
    ]
    [ ("plain", sample plan); ("ckpt-all", sample ckpt_all_plan) ]

let test_sample_storage () =
  let plan = Lazy.force plan in
  check_digests "Runner.sample_storage"
    [
      ("passthrough", "901d16ea5785879241a387c9f0ad076c");
      ("corrupt-replicated", "f5325889b2afc85211f135669fb9c930");
      ("every-2", "6dde45bfa07dc7164fd3c5c73784a2fe");
      ("on-interrupt", "07c0389ef81eda118024a4b5ca588da3");
      ("remote", "3e8d0efeeba6bd0a50811a652bded296");
    ]
    (List.map
       (fun (name, store) ->
         ( name,
           digest render_storage (Runner.sample_storage ~trials:200 ~seed:5 ~store plan) ))
       stores)

let degrade_digests mode =
  let plan = Lazy.force plan in
  List.map
    (fun (name, store) ->
      let config =
        {
          Degrade.lambda_death = 1.5 /. plan.Strategy.wpar;
          max_losses = 2;
          kind = Strategy.Ckpt_some;
          store;
        }
      in
      (name, digest render_degrade (Degrade.sample ~trials:60 ~seed:5 ~mode config plan)))
    stores

let test_degrade_repair () =
  check_digests "Degrade.sample Repair"
    [
      ("passthrough", "0206997f1cfd70974707ac8c12daf4e5");
      ("corrupt-replicated", "5803b2d35e8352258cb25b3b1aba7531");
      ("every-2", "f6b44000d8bd85d8558c2c01516914fa");
      ("on-interrupt", "8d9a43b4f7f4d49f183f34269c44030d");
      ("remote", "d0550cfd0cda3ba0a3cd273496ddd226");
    ]
    (degrade_digests Degrade.Repair)

let test_degrade_restart () =
  check_digests "Degrade.sample Restart"
    [
      ("passthrough", "a890ee3e57c7553ba576756a06e539dc");
      ("corrupt-replicated", "489b97182c4a0ae3f4f1e73e60405eed");
      ("every-2", "e6f9d85b7223da2b303ec1a214fec9ca");
      ("on-interrupt", "cac6ddc5c6cce6c3804c22d74bd9f367");
      ("remote", "1ee3abaa98c8ee4f48ab6ee7eda105c8");
    ]
    (degrade_digests Degrade.Restart)

(* every store at a 10 s grace window, plus the unannounced (zero-grace)
   passthrough case that degenerates to a plain death, and a grace
   window longer than any run, so every revoked processor is warned at
   instant 0 and the trial replans before it starts *)
let cloud_digests mode =
  let plan = Lazy.force plan in
  let cases =
    ("passthrough-grace0", Store.default, 0.)
    :: ("passthrough-warned-at-0", Store.default, 1e9)
    :: List.map (fun (name, store) -> (name, store, 10.)) stores
  in
  List.map
    (fun (name, store, grace) ->
      let config =
        {
          Cloud.lambda_revoke = 2. /. plan.Strategy.wpar;
          grace;
          max_revocations = 2;
          kind = Strategy.Ckpt_some;
          store;
        }
      in
      ( name,
        digest render_cloud
          (Cloud.sample_prepared ~trials:60 ~seed:5 ~mode config (Cloud.prepare plan)) ))
    cases

let test_cloud_checkpoint () =
  check_digests "Cloud.sample Checkpoint"
    [
      ("passthrough-grace0", "2fd364b3ebac43dbc8dcda8c5dd33d04");
      ("passthrough-warned-at-0", "f6872e1f0ed9f1f00098ad3fc0c4dafe");
      ("passthrough", "d4dfb9bbbbe6d71ad7ddb02318e4af7d");
      ("corrupt-replicated", "d4dfb9bbbbe6d71ad7ddb02318e4af7d");
      ("every-2", "8b607aad5b1c34a721de25d05407d633");
      ("on-interrupt", "1e7f8333ea168e9ebec32a130a93db96");
      ("remote", "c83360eec535ada788aab6205b6d011b");
    ]
    (cloud_digests Cloud.Checkpoint)

(* GENOME's completed DAG is its raw DAG, so the digests above cannot
   tell which of the two the rescue checkpoint's partial writes are
   priced over; MONTAGE needs bipartite completion, so this one can *)
let test_cloud_checkpoint_completed () =
  let plan =
    let setup = Lazy.force montage_setup in
    Alcotest.(check bool) "completion edges" true (setup.Pipeline.dummy_edges > 0);
    Pipeline.plan setup Strategy.Ckpt_some
  in
  let config =
    {
      Cloud.lambda_revoke = 2. /. plan.Strategy.wpar;
      grace = 10.;
      max_revocations = 2;
      kind = Strategy.Ckpt_some;
      store = List.assoc "on-interrupt" stores;
    }
  in
  check_digests "Cloud.sample Checkpoint MONTAGE"
    [ ("on-interrupt", "6b04a477bd5ab28d4a1c59aa011a86b4") ]
    [
      ( "on-interrupt",
        digest render_cloud
          (Cloud.sample_prepared ~trials:60 ~seed:5 ~mode:Cloud.Checkpoint config
             (Cloud.prepare plan)) );
    ]

let test_cloud_replicate () =
  check_digests "Cloud.sample Replicate"
    [
      ("passthrough-grace0", "ea466104c8efe1de87d04f38965f16eb");
      ("passthrough-warned-at-0", "ea466104c8efe1de87d04f38965f16eb");
      ("passthrough", "ea466104c8efe1de87d04f38965f16eb");
      ("corrupt-replicated", "ea466104c8efe1de87d04f38965f16eb");
      ("every-2", "ea466104c8efe1de87d04f38965f16eb");
      ("on-interrupt", "ea466104c8efe1de87d04f38965f16eb");
      ("remote", "045fa05a82736bc9256725cdb6663a68");
    ]
    (cloud_digests Cloud.Replicate)

let render_stats_moments s =
  Printf.sprintf "%d,%h,%h,%h,%h" (Stats.count s) (Stats.mean s) (Stats.variance s)
    (Stats.min s) (Stats.max s)

(* the contention simulator without a store, under both checkpointing
   strategies, on the GENOME plan and on the completed MONTAGE one *)
let test_contention () =
  let cases =
    List.concat_map
      (fun (wf, setup) ->
        List.map
          (fun kind -> (wf ^ " " ^ Strategy.kind_name kind, setup, kind))
          [ Strategy.Ckpt_some; Strategy.Ckpt_all ])
      [ ("genome", genome_setup); ("montage", montage_setup) ]
  in
  check_digests "Contention.simulate"
    [
      ("genome ckpt-some", "fdf83fa1bc5f553e83087d3ba74dbcb3");
      ("genome ckpt-all", "9b592e0066cb1b82b77b4f477d3be649");
      ("montage ckpt-some", "64c0e88a13221dad9e7a6d60d7056d1d");
      ("montage ckpt-all", "d7fd91f23c754c609d3f9df181009f9e");
    ]
    (List.map
       (fun (name, setup, kind) ->
         let plan = Pipeline.plan (Lazy.force setup) kind in
         let stats = Contention.simulate ~trials:60 ~seed:5 plan in
         (name, digest render_stats_moments [| stats |]))
       cases)

(* the Monte-Carlo estimator's count, mean and variance on both
   workflows' 2-state DAGs, over one domain and over four *)
let test_montecarlo () =
  let cases =
    List.concat_map
      (fun (wf, setup) ->
        let plan = Pipeline.plan (Lazy.force setup) Strategy.Ckpt_some in
        let pd = Option.get plan.Strategy.prob_dag in
        List.map (fun jobs -> (Printf.sprintf "%s jobs=%d" wf jobs, pd, jobs)) [ 1; 4 ])
      [ ("genome", genome_setup); ("montage", montage_setup) ]
  in
  check_digests "Montecarlo.estimate_with_stats"
    [
      ("genome jobs=1", "f435e96d1f15571b11a6dfe1ce3e3290");
      ("genome jobs=4", "f435e96d1f15571b11a6dfe1ce3e3290");
      ("montage jobs=1", "f5eed7dda574a348279fc51645d0b99c");
      ("montage jobs=4", "f5eed7dda574a348279fc51645d0b99c");
    ]
    (List.map
       (fun (name, pd, jobs) ->
         let s = Montecarlo.estimate_with_stats ~trials:1000 ~seed:5 ~jobs pd in
         ( name,
           digest
             (fun s -> Printf.sprintf "%d,%h,%h" (Stats.count s) (Stats.mean s) (Stats.variance s))
             [| s |] ))
       cases)

let suite =
  [
    Alcotest.test_case "Runner.sample_makespans" `Quick test_sample_makespans;
    Alcotest.test_case "Runner.sample_storage" `Quick test_sample_storage;
    Alcotest.test_case "Degrade.sample Repair" `Quick test_degrade_repair;
    Alcotest.test_case "Degrade.sample Restart" `Quick test_degrade_restart;
    Alcotest.test_case "Cloud.sample Checkpoint" `Quick test_cloud_checkpoint;
    Alcotest.test_case "Cloud.sample Replicate" `Quick test_cloud_replicate;
    Alcotest.test_case "Cloud.sample Checkpoint on a completed MONTAGE" `Quick
      test_cloud_checkpoint_completed;
    Alcotest.test_case "Contention.simulate" `Quick test_contention;
    Alcotest.test_case "Montecarlo.estimate_with_stats" `Quick test_montecarlo;
  ]
