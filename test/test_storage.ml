(* Tests for Ckpt_storage and the storage-aware simulators: config
   validation, the reliable-is-bitwise-free guarantee, --jobs
   invariance under faults, the cascading-rollback invariant (the
   engine re-executes exactly the producers whose recovery line was
   invalidated), and the k-replication crossover. *)

module Storage = Ckpt_storage.Storage
module Store = Ckpt_storage.Store
module Engine = Ckpt_sim.Engine
module Runner = Ckpt_sim.Runner
module Degrade = Ckpt_sim.Degrade
module Failure = Ckpt_platform.Failure
module Platform = Ckpt_platform.Platform
module Rng = Ckpt_prob.Rng
module Strategy = Ckpt_core.Strategy
module Pipeline = Ckpt_core.Pipeline
module Spec = Ckpt_workflows.Spec

let rejects msg config =
  Alcotest.(check bool) msg true
    (match Storage.validate config with exception Invalid_argument _ -> true | () -> false)

let test_validate () =
  Storage.validate Storage.default;
  rejects "commit_fail_prob = 1" { Storage.default with Storage.commit_fail_prob = 1. };
  rejects "negative corrupt_prob" { Storage.default with Storage.corrupt_prob = -0.1 };
  rejects "corrupt_prob = 1" { Storage.default with Storage.corrupt_prob = 1. };
  rejects "negative storage_lambda" { Storage.default with Storage.storage_lambda = -1. };
  rejects "outage_rate without mean" { Storage.default with Storage.outage_rate = 0.1 };
  rejects "replicas < 1" { Storage.default with Storage.replicas = 0 };
  Storage.validate
    { Storage.default with Storage.outage_rate = 0.1; outage_mean = 2.; replicas = 3 }

let test_validate_nan () =
  rejects "NaN commit_fail_prob" { Storage.default with Storage.commit_fail_prob = nan };
  rejects "NaN corrupt_prob" { Storage.default with Storage.corrupt_prob = nan };
  rejects "NaN storage_lambda" { Storage.default with Storage.storage_lambda = nan };
  rejects "NaN outage_rate" { Storage.default with Storage.outage_rate = nan };
  rejects "NaN outage_mean"
    { Storage.default with Storage.outage_rate = 0.1; outage_mean = nan }

let test_reliable () =
  Alcotest.(check bool) "default reliable" true (Storage.reliable Storage.default);
  Alcotest.(check bool) "replicas alone stays reliable" true
    (Storage.reliable { Storage.default with Storage.replicas = 4 });
  List.iter
    (fun (msg, c) -> Alcotest.(check bool) msg false (Storage.reliable c))
    [
      ("commit failures", { Storage.default with Storage.commit_fail_prob = 0.1 });
      ("latent corruption", { Storage.default with Storage.corrupt_prob = 0.1 });
      ("bit rot", { Storage.default with Storage.storage_lambda = 0.1 });
      ("outages", { Storage.default with Storage.outage_rate = 0.1; outage_mean = 1. });
    ]

(* a memory-backed store carrying a given fault config — the Store
   wrapper around what used to be passed as ~storage *)
let store_of faults = { Store.default with Store.faults }

let plan_of ?(tasks = 40) ?replicas kind =
  let dag = Spec.generate Spec.Genome ~seed:1 ~tasks () in
  let setup = Pipeline.prepare ~dag ~processors:4 ~pfail:0.002 ~ccr:0.2 () in
  Pipeline.plan ?replicas setup kind

(* the central bitwise guarantee: a reliable config draws nothing, so
   the storage-aware sampler reproduces the fault-free one exactly *)
let test_reliable_bitwise () =
  List.iter
    (fun kind ->
      let plan = plan_of kind in
      let plain = Runner.sample_makespans ~trials:200 ~seed:11 plan in
      let stored =
        Runner.sample_storage ~trials:200 ~seed:11 ~store:Store.default plan
      in
      Alcotest.(check int) "same trial count" (Array.length plain) (Array.length stored);
      Array.iteri
        (fun i t ->
          if t.Runner.makespan <> plain.(i) then
            Alcotest.failf "trial %d: storage %.17g <> plain %.17g" i t.Runner.makespan
              plain.(i);
          Alcotest.(check int) "no retries" 0 t.Runner.commit_retries;
          Alcotest.(check int) "no corrupt reads" 0 t.Runner.corrupt_reads;
          Alcotest.(check int) "no rollbacks" 0 t.Runner.rollbacks)
        stored)
    [ Strategy.Ckpt_all; Strategy.Ckpt_some ]

let faulty_config =
  {
    Storage.default with
    Storage.commit_fail_prob = 0.15;
    corrupt_prob = 0.1;
    storage_lambda = 1e-4;
    outage_rate = 1e-3;
    outage_mean = 5.;
  }

let test_jobs_invariant () =
  let plan = plan_of Strategy.Ckpt_some in
  let sample jobs = Runner.sample_storage ~trials:96 ~seed:3 ~jobs ~store:(store_of faulty_config) plan in
  let s1 = sample 1 and s4 = sample 4 in
  Array.iteri
    (fun i t ->
      let u = s4.(i) in
      if
        t.Runner.makespan <> u.Runner.makespan
        || t.Runner.commit_retries <> u.Runner.commit_retries
        || t.Runner.corrupt_reads <> u.Runner.corrupt_reads
        || t.Runner.rollbacks <> u.Runner.rollbacks
      then Alcotest.failf "trial %d differs between jobs=1 and jobs=4" i)
    s1

(* faults genuinely fire on this config — guards against the fault
   channels silently never engaging (which would make the bitwise
   tests vacuous) *)
let test_faults_fire () =
  let plan = plan_of Strategy.Ckpt_all in
  let sample = Runner.sample_storage ~trials:200 ~seed:3 ~store:(store_of faulty_config) plan in
  let total f = Array.fold_left (fun acc t -> acc + f t) 0 sample in
  Alcotest.(check bool) "commit retries happened" true (total (fun t -> t.Runner.commit_retries) > 0);
  Alcotest.(check bool) "corrupt reads happened" true (total (fun t -> t.Runner.corrupt_reads) > 0);
  Alcotest.(check bool) "rollbacks happened" true (total (fun t -> t.Runner.rollbacks) > 0);
  let mean =
    Array.fold_left (fun acc t -> acc +. t.Runner.makespan) 0. sample
    /. float_of_int (Array.length sample)
  in
  let plain = Runner.sample_makespans ~trials:200 ~seed:3 plan in
  let plain_mean = Array.fold_left ( +. ) 0. plain /. float_of_int (Array.length plain) in
  Alcotest.(check bool) "faults cost time" true (mean > plain_mean)

(* engine-level: a run over a reliable store reproduces the storeless
   run on the same traces, bitwise *)
let test_engine_reliable_identity () =
  let plan = plan_of Strategy.Ckpt_some in
  let segs = Runner.segs_of_plan plan in
  let writes = Runner.writes_of_plan plan in
  let trace_of seed _ =
    (* fresh trace table per execution so both runs see identical draws *)
    let tbl = Hashtbl.create 8 in
    fun p ->
      ignore seed;
      match Hashtbl.find_opt tbl p with
      | Some t -> t
      | None ->
          let t = Failure.create (Rng.for_trial ~seed p) ~lambda:0.002 in
          Hashtbl.add tbl p t;
          t
  in
  for seed = 1 to 5 do
    let plain = Engine.makespan segs ((trace_of seed) ()) in
    let st = Store.create Store.default (Rng.create 999) in
    let run = Engine.run ~store:st ~write:writes segs ((trace_of seed) ()) in
    if run.Engine.finish <> plain then
      Alcotest.failf "seed %d: storage %.17g <> plain %.17g" seed run.Engine.finish plain;
    Alcotest.(check (list int)) "no rollbacks" [] run.Engine.rollbacks
  done

(* the cascading-rollback invariant (QCheck): the engine re-executes
   exactly the producing segments whose recovery read failed — the
   rollback log IS the storage's failed-read log *)
let qcheck_rollback_matches_failed_reads =
  QCheck.Test.make ~count:60 ~name:"rollback log = invalidated recovery lines"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 3 + Rng.int rng 10 in
      let procs = 1 + Rng.int rng 3 in
      (* random layered DAG: each segment depends on a random subset of
         the previous two segments, runs on a random processor *)
      let segs =
        Array.init n (fun i ->
            let preds =
              List.filter (fun p -> p >= 0 && Rng.uniform rng < 0.6) [ i - 1; i - 2 ]
            in
            { Engine.processor = Rng.int rng procs;
              duration = 1. +. Rng.float rng 10.;
              preds })
      in
      let writes = Array.init n (fun _ -> 0.1 +. Rng.float rng 2.) in
      let config =
        {
          Storage.default with
          Storage.commit_fail_prob = Rng.float rng 0.3;
          corrupt_prob = Rng.float rng 0.4;
          storage_lambda = Rng.float rng 0.01;
          replicas = 1 + Rng.int rng 3;
        }
      in
      let st = Store.create (store_of config) (Rng.split rng) in
      let traces = Hashtbl.create 8 in
      let trace p =
        match Hashtbl.find_opt traces p with
        | Some t -> t
        | None ->
            let t = Failure.create (Rng.split rng) ~lambda:0.01 in
            Hashtbl.add traces p t;
            t
      in
      let run = Engine.run ~store:st ~write:writes segs trace in
      run.Engine.rollbacks = Store.failed_reads st
      && List.for_all (fun s -> s >= 0 && s < n) run.Engine.rollbacks)

(* replication helps where it should: at high corruption, k=3 sees far
   fewer corrupt recovery reads than k=1, and k=2 commits beat k=1 on
   expected makespan (the storm crossover) *)
let test_replication_crossover () =
  let corrupt = { Storage.default with Storage.corrupt_prob = 0.2 } in
  let em_and_corrupt k =
    let plan = plan_of ~replicas:k Strategy.Ckpt_all in
    let sample =
      Runner.sample_storage ~trials:200 ~seed:5
        ~store:(store_of { corrupt with Storage.replicas = k })
        plan
    in
    let n = float_of_int (Array.length sample) in
    ( Array.fold_left (fun acc t -> acc +. t.Runner.makespan) 0. sample /. n,
      Array.fold_left (fun acc t -> acc + t.Runner.corrupt_reads) 0 sample )
  in
  let em1, cr1 = em_and_corrupt 1 in
  let em2, _ = em_and_corrupt 2 in
  let _, cr3 = em_and_corrupt 3 in
  Alcotest.(check bool) "k=3 sees fewer corrupt reads than k=1" true (cr3 * 4 < cr1);
  Alcotest.(check bool) "k=2 beats k=1 at corrupt_prob=0.2" true (em2 < em1)

(* the planner prices replication: k=1 reproduces the default plan
   bitwise, and planned EM is monotone in k (a k-replica solution is
   always available to the k=1 planner at lower commit cost) *)
let test_replicas_pricing () =
  let em plan =
    Ckpt_eval.Evaluator.estimate Ckpt_eval.Evaluator.Normal
      (Option.get plan.Strategy.prob_dag)
  in
  let p_default = plan_of Strategy.Ckpt_some in
  let p1 = plan_of ~replicas:1 Strategy.Ckpt_some in
  Alcotest.(check int) "k=1 same checkpoint count" p_default.Strategy.checkpoint_count
    p1.Strategy.checkpoint_count;
  Alcotest.(check bool) "k=1 same segments" true
    (p_default.Strategy.segments = p1.Strategy.segments);
  Alcotest.(check (float 0.)) "k=1 same planned EM" (em p_default) (em p1);
  let p4 = plan_of ~replicas:4 Strategy.Ckpt_some in
  Alcotest.(check int) "replicas recorded" 4 p4.Strategy.replicas;
  Alcotest.(check bool) "k=4 planned EM no cheaper" true (em p4 >= em p1)

(* degraded mode: the default storage config reproduces the legacy
   sample bitwise (the storage split draws nothing), and corruption
   surfaces in the rollback/invalidated counters *)
let test_degrade_storage () =
  let plan = plan_of Strategy.Ckpt_some in
  let lambda_death =
    Platform.lambda_of_pfail ~pfail:0.2 ~mean_weight:plan.Strategy.wpar
  in
  let config =
    { Degrade.lambda_death; max_losses = 1; kind = Strategy.Ckpt_some;
      store = Store.default }
  in
  let base = Degrade.sample ~trials:40 ~seed:9 ~mode:Degrade.Repair config plan in
  let again = Degrade.sample ~trials:40 ~seed:9 ~mode:Degrade.Repair config plan in
  Array.iteri
    (fun i (t : Degrade.trial) ->
      if t.Degrade.makespan <> again.(i).Degrade.makespan then
        Alcotest.failf "trial %d not deterministic" i;
      Alcotest.(check int) "no rollbacks when reliable" 0 t.Degrade.rollbacks;
      Alcotest.(check int) "no invalidations when reliable" 0 t.Degrade.invalidated)
    base;
  let faulty =
    { config with Degrade.store = store_of { Storage.default with Storage.corrupt_prob = 0.25 } }
  in
  let stormy = Degrade.sample ~trials:40 ~seed:9 ~mode:Degrade.Repair faulty plan in
  let total f = Array.fold_left (fun acc t -> acc + f t) 0 stormy in
  Alcotest.(check bool) "corruption surfaces in degrade counters" true
    (total (fun (t : Degrade.trial) -> t.Degrade.rollbacks + t.Degrade.invalidated) > 0);
  let s1 = Degrade.sample ~trials:40 ~seed:9 ~jobs:1 ~mode:Degrade.Repair faulty plan in
  let s4 = Degrade.sample ~trials:40 ~seed:9 ~jobs:4 ~mode:Degrade.Repair faulty plan in
  Array.iteri
    (fun i (t : Degrade.trial) ->
      if t.Degrade.makespan <> s4.(i).Degrade.makespan then
        Alcotest.failf "degrade trial %d differs between jobs=1 and jobs=4" i)
    s1

(* commit wall-clock accounting: with commit_fail_prob = 0 the commit
   is free (Ok at the write's end) and draws nothing; exhaustion
   surfaces as Error *)
let test_commit_accounting () =
  let st = Storage.create Storage.default (Rng.create 3) in
  (match Storage.commit st ~seg:0 ~write:2. ~at:10. with
  | Ok (done_at, ck) ->
      Alcotest.(check (float 0.)) "free commit" 10. done_at;
      Alcotest.(check int) "seg recorded" 0 (Storage.seg_of ck);
      Alcotest.(check bool) "valid forever" true (Storage.valid_at ck ~at:1e12)
  | Error _ -> Alcotest.fail "reliable commit failed");
  (* near-certain failure: exhaustion of the default backoff is an
     Error and the counters record the attempts *)
  let doomed = { Storage.default with Storage.commit_fail_prob = 0.999 } in
  let st = Storage.create doomed (Rng.create 3) in
  let exhausted = ref 0 in
  for seg = 0 to 49 do
    match Storage.commit st ~seg ~write:1. ~at:0. with
    | Error give_up_at ->
        incr exhausted;
        Alcotest.(check bool) "give-up instant moved forward" true (give_up_at > 0.)
    | Ok _ -> ()
  done;
  Alcotest.(check bool) "exhaustion dominates at p=0.999" true (!exhausted >= 45);
  let stats = Storage.stats st in
  Alcotest.(check int) "commit count" 50 stats.Storage.commits;
  Alcotest.(check int) "exhaustions counted" !exhausted stats.Storage.commit_exhausted

let suite =
  [
    Alcotest.test_case "config: validate" `Quick test_validate;
    Alcotest.test_case "config: reliable" `Quick test_reliable;
    Alcotest.test_case "runner: reliable is bitwise-free" `Quick test_reliable_bitwise;
    Alcotest.test_case "runner: jobs invariant under faults" `Quick test_jobs_invariant;
    Alcotest.test_case "runner: faults fire and cost time" `Quick test_faults_fire;
    Alcotest.test_case "engine: reliable identity" `Quick test_engine_reliable_identity;
    QCheck_alcotest.to_alcotest qcheck_rollback_matches_failed_reads;
    Alcotest.test_case "replication crossover" `Quick test_replication_crossover;
    Alcotest.test_case "planner prices replication" `Quick test_replicas_pricing;
    Alcotest.test_case "degrade: storage composition" `Quick test_degrade_storage;
    Alcotest.test_case "commit accounting" `Quick test_commit_accounting;
    Alcotest.test_case "config: NaN rejected" `Quick test_validate_nan;
  ]
