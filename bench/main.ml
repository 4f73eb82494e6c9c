(* Benchmark harness.

   Two parts:

   1. Bechamel micro-benchmarks — one Test.make per paper artefact
      (Figures 5/6/7 pipelines, the Section VI-B estimators) plus the
      core algorithms (recognition, Algorithm 1, Algorithm 2, one
      simulation trial).

   2. Regeneration of every figure's data series: for each workflow
      family (Figure 5 GENOME, Figure 6 MONTAGE, Figure 7 LIGO), all
      paper sizes, processor counts and failure probabilities across
      the CCR sweep, printing the relative expected makespans of
      CKPTALL and CKPTNONE over CKPTSOME; and the Section VI-B
      estimator-accuracy table.

   Run with: dune exec bench/main.exe
   (pass --quick for a single representative row set per figure;
   --jobs N fans figure cells and Monte-Carlo trials over N worker
   domains, 0 meaning all available, without changing any output)

   The figure series and the accuracy table — the long-running parts —
   are crash-tolerant: with --journal FILE every completed cell is
   recorded through Ckpt_resilience.Journal, and --resume replays
   recorded cells verbatim instead of recomputing them, so a killed
   regeneration run picks up where it left off with identical output.
   Micro-benchmarks and ablations are cheap and always re-run. *)

open Bechamel
open Toolkit
module Dag = Ckpt_dag.Dag
module Recognize = Ckpt_mspg.Recognize
module Platform = Ckpt_platform.Platform
module Spec = Ckpt_workflows.Spec
module Allocate = Ckpt_core.Allocate
module Schedule = Ckpt_core.Schedule
module Placement = Ckpt_core.Placement
module Strategy = Ckpt_core.Strategy
module Pipeline = Ckpt_core.Pipeline
module Evaluator = Ckpt_eval.Evaluator
module Runner = Ckpt_sim.Runner
module Journal = Ckpt_resilience.Journal
module Rerror = Ckpt_resilience.Error
module Pool = Ckpt_parallel.Pool

(* [cell journal key line] replays a journaled line or computes,
   journals and returns a fresh one — the unit of crash tolerance. *)
let cell journal key compute =
  match Option.bind journal (fun j -> Journal.find j key) with
  | Some stored -> stored
  | None ->
      let line = compute () in
      Option.iter (fun j -> Journal.append j ~key ~value:line) journal;
      line

(* ------------------------------------------------------------------ *)
(* Part 1: Bechamel micro-benchmarks                                   *)
(* ------------------------------------------------------------------ *)

let pipeline_test name kind =
  let dag = Spec.generate kind ~seed:1 ~tasks:300 () in
  Test.make ~name
    (Staged.stage (fun () ->
         let setup = Pipeline.prepare ~dag ~processors:35 ~pfail:0.001 ~ccr:0.01 () in
         Pipeline.compare_strategies setup))

let estimator_tests () =
  let dag = Spec.generate Spec.Ligo ~seed:1 ~tasks:300 () in
  let setup = Pipeline.prepare ~dag ~processors:35 ~pfail:0.001 ~ccr:0.01 () in
  let plan = Pipeline.plan setup Strategy.Ckpt_some in
  let pd = Option.get plan.Strategy.prob_dag in
  [
    Test.make ~name:"vi-b/pathapprox"
      (Staged.stage (fun () -> Ckpt_eval.Pathapprox.estimate pd));
    Test.make ~name:"vi-b/dodin" (Staged.stage (fun () -> Ckpt_eval.Dodin.estimate pd));
    Test.make ~name:"vi-b/normal" (Staged.stage (fun () -> Ckpt_eval.Sculli.estimate pd));
    Test.make ~name:"vi-b/montecarlo-1k"
      (Staged.stage (fun () -> Ckpt_eval.Montecarlo.estimate ~trials:1000 pd));
  ]

let extension_tests () =
  let dag = Spec.generate Spec.Genome ~seed:1 ~tasks:300 () in
  let setup = Pipeline.prepare ~dag ~processors:35 ~pfail:0.001 ~ccr:0.1 () in
  let plan = Pipeline.plan setup Strategy.Ckpt_some in
  [
    Test.make ~name:"ext/exact-sp-eval"
      (Staged.stage (fun () -> Strategy.exact_expected_makespan plan));
    Test.make ~name:"ext/contention-trial"
      (Staged.stage (fun () -> Ckpt_sim.Contention.simulate ~trials:1 plan));
  ]

let algorithm_tests () =
  let montage = Spec.generate Spec.Montage ~seed:1 ~tasks:300 () in
  let genome = Spec.generate Spec.Genome ~seed:1 ~tasks:1000 () in
  let genome_mspg =
    match Recognize.of_dag_completed genome with Ok (m, _) -> m | Error e -> failwith e
  in
  let schedule = Allocate.run genome_mspg ~processors:61 in
  let platform = Platform.make ~processors:61 ~lambda:1e-5 ~bandwidth:1e7 in
  let big_chain =
    Array.fold_left
      (fun acc sc ->
        if Ckpt_core.Superchain.n_tasks sc > Ckpt_core.Superchain.n_tasks acc then sc
        else acc)
      schedule.Schedule.superchains.(0) schedule.Schedule.superchains
  in
  let some_plan = Strategy.plan Strategy.Ckpt_some ~raw:genome ~schedule ~platform in
  [
    Test.make ~name:"alg/recognize-montage-300"
      (Staged.stage (fun () -> Recognize.of_dag_completed montage));
    Test.make ~name:"alg1/allocate-genome-1000"
      (Staged.stage (fun () -> Allocate.run genome_mspg ~processors:61));
    Test.make ~name:"alg2/placement-dp"
      (Staged.stage (fun () ->
           Placement.optimal_positions platform schedule.Schedule.dag big_chain));
    Test.make ~name:"sim/genome-1000-trial"
      (Staged.stage (fun () -> Runner.simulated_expected_makespan ~trials:1 some_plan));
  ]

let run_benchmarks () =
  let tests =
    Test.make_grouped ~name:"ckptwf"
      ([
         pipeline_test "fig5/genome-pipeline" Spec.Genome;
         pipeline_test "fig6/montage-pipeline" Spec.Montage;
         pipeline_test "fig7/ligo-pipeline" Spec.Ligo;
       ]
      @ estimator_tests () @ algorithm_tests () @ extension_tests ())
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns = match Analyze.OLS.estimates ols with Some (t :: _) -> t | _ -> nan in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  Printf.printf "== micro-benchmarks (time per run) ==\n";
  List.iter
    (fun (name, ns) ->
      let pretty =
        if ns > 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.2f ns" ns
      in
      Printf.printf "  %-34s %s\n" name pretty)
    rows;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 2: figure series                                               *)
(* ------------------------------------------------------------------ *)

let logspace lo hi n =
  List.init n (fun i ->
      let t = float_of_int i /. float_of_int (n - 1) in
      10. ** (log10 lo +. (t *. (log10 hi -. log10 lo))))

let paper_grid =
  [ (50, [ 3; 5; 7; 10 ]); (300, [ 18; 35; 52; 70 ]); (1000, [ 61; 123; 184; 245 ]) ]

let pfails = [ 0.01; 0.001; 0.0001 ]

let ccrs_for = function
  | Spec.Genome -> logspace 1e-4 1e-2 7
  | Spec.Montage | Spec.Ligo | Spec.Cybershake | Spec.Sipht -> logspace 1e-3 1. 7

let figure_series ?journal ?(jobs = 1) fig kind =
  Printf.printf "== Figure %s: %s — relative expected makespan vs CCR ==\n" fig
    (String.uppercase_ascii (Spec.name kind));
  Printf.printf "%-8s %5s %4s %7s %8s | %8s %9s %6s\n" "workflow" "n" "p" "pfail" "ccr"
    "relALL" "relNONE" "ckpts";
  let journal_mutex = Mutex.create () in
  List.iter
    (fun (tasks, procs) ->
      (* the workflow is generated only when some cell of this size
         group actually needs computing (resume skips it) *)
      let dag = lazy (Spec.generate kind ~seed:1 ~tasks ()) in
      List.iter
        (fun p ->
          (* one (pfail, ccr) grid cell per array slot, journal looked
             up sequentially; only the missing cells are computed, fanned
             over [jobs] domains, and rows print in grid order at the
             end — so stdout does not depend on [jobs] *)
          let cells =
            Array.of_list
              (List.concat_map
                 (fun pfail -> List.map (fun ccr -> (pfail, ccr)) (ccrs_for kind))
                 pfails)
          in
          (* recognition, the schedule and the superchains' flattening
             depend on neither pfail nor CCR: prepare once and build
             one planning frame, then reprice every cell and plan it
             through the frame *)
          let structure =
            lazy
              (let pfail, ccr = cells.(0) in
               let setup = Pipeline.prepare ~dag:(Lazy.force dag) ~processors:p ~pfail ~ccr () in
               (setup, Strategy.frame ~raw:setup.Pipeline.raw ~schedule:setup.Pipeline.schedule))
          in
          let key_of (pfail, ccr) =
            Printf.sprintf "bench|fig=%s|wf=%s|tasks=%d|p=%d|pfail=%g|ccr=%.17g" fig
              (Spec.name kind) tasks p pfail ccr
          in
          let stored =
            Array.map
              (fun c -> Option.bind journal (fun j -> Journal.find j (key_of c)))
              cells
          in
          let compute (pfail, ccr) =
            let base, frame = Lazy.force structure in
            let setup = Pipeline.reprice base ~pfail ~ccr in
            let cmp = Pipeline.compare_strategies ~frame setup in
            Printf.sprintf "%-8s %5d %4d %7g %8.5f | %8.4f %9.4f %6d" (Spec.name kind)
              (Dag.n_tasks setup.Pipeline.raw) p pfail ccr cmp.Pipeline.rel_all
              cmp.Pipeline.rel_none cmp.Pipeline.ckpts_some
          in
          let rows =
            if Array.for_all Option.is_some stored then Array.map Option.get stored
            else begin
              (* force the shared lazy before entering the parallel
                 region: concurrent Lazy.force is not domain-safe *)
              ignore (Lazy.force structure);
              Pool.map_shared ~jobs (Array.length cells) (fun i ->
                  match stored.(i) with
                  | Some line -> line
                  | None ->
                      let line = compute cells.(i) in
                      Option.iter
                        (fun j ->
                          Mutex.lock journal_mutex;
                          Fun.protect
                            ~finally:(fun () -> Mutex.unlock journal_mutex)
                            (fun () -> Journal.append j ~key:(key_of cells.(i)) ~value:line))
                        journal;
                      line)
            end
          in
          Array.iter print_endline rows)
        procs)
    paper_grid;
  print_newline ()

let accuracy_table ?journal () =
  Printf.printf "== Section VI-B: estimator accuracy vs Monte Carlo ground truth ==\n";
  let trials = 50_000 in
  Printf.printf "%-10s %-12s %12s %9s\n" "workflow" "method" "estimate" "error";
  List.iter
    (fun kind ->
      let plan =
        lazy
          (let dag = Spec.generate kind ~seed:1 ~tasks:300 () in
           let setup = Pipeline.prepare ~dag ~processors:35 ~pfail:0.001 ~ccr:0.01 () in
           Pipeline.plan setup Strategy.Ckpt_some)
      in
      (* the ground truth is journaled as a machine value of its own so
         resumed runs can compute estimator errors without redoing the
         50k-trial Monte Carlo *)
      let truth =
        lazy
          (let key = Printf.sprintf "bench|acc-truth|wf=%s|trials=%d" (Spec.name kind) trials in
           float_of_string
             (cell journal key (fun () ->
                  Printf.sprintf "%.17g"
                    (Strategy.expected_makespan
                       ~method_:(Evaluator.Montecarlo { trials; seed = 1 })
                       (Lazy.force plan)))))
      in
      let acc_cell method_name compute =
        let key = Printf.sprintf "bench|acc|wf=%s|m=%s|trials=%d" (Spec.name kind) method_name trials in
        print_endline (cell journal key compute)
      in
      acc_cell "montecarlo" (fun () ->
          Printf.sprintf "%-10s %-12s %12.2f %9s" (Spec.name kind) "montecarlo"
            (Lazy.force truth) "--");
      List.iter
        (fun m ->
          acc_cell (Evaluator.name m) (fun () ->
              let truth = Lazy.force truth in
              let v = Strategy.expected_makespan ~method_:m (Lazy.force plan) in
              Printf.sprintf "%-10s %-12s %12.2f %+8.3f%%" (Spec.name kind)
                (Evaluator.name m) v
                ((v -. truth) /. truth *. 100.)))
        Evaluator.all_fast;
      acc_cell "exact-sp" (fun () ->
          match Strategy.exact_expected_makespan (Lazy.force plan) with
          | Some v ->
              let truth = Lazy.force truth in
              Printf.sprintf "%-10s %-12s %12.2f %+8.3f%%" (Spec.name kind) "exact-sp" v
                ((v -. truth) /. truth *. 100.)
          | None ->
              Printf.sprintf "%-10s %-12s %12s %9s" (Spec.name kind) "exact-sp" "n/a" "--"))
    Spec.all;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Ablation tables (extensions beyond the paper)                       *)
(* ------------------------------------------------------------------ *)

let linearization_ablation () =
  Printf.printf
    "== Ablation A1: linearisation policy (EM of CKPTSOME, n=300, p=35, pfail=1e-3) ==\n";
  Printf.printf "%-10s %8s | %-14s %12s %7s\n" "workflow" "ccr" "policy" "EM" "ckpts";
  List.iter
    (fun kind ->
      let dag = Spec.generate kind ~seed:1 ~tasks:300 () in
      List.iter
        (fun ccr ->
          let setup = Pipeline.prepare ~dag ~processors:35 ~pfail:0.001 ~ccr () in
          List.iter
            (fun (name, policy) ->
              let schedule =
                Ckpt_core.Allocate.run ~policy setup.Pipeline.mspg ~processors:35
              in
              let plan =
                Strategy.plan Strategy.Ckpt_some ~raw:dag ~schedule
                  ~platform:setup.Pipeline.platform
              in
              Printf.printf "%-10s %8.3f | %-14s %12.2f %7d\n" (Spec.name kind) ccr name
                (Strategy.expected_makespan plan)
                plan.Strategy.checkpoint_count)
            [ ("deterministic", Ckpt_core.Linearize.Deterministic);
              ("random", Ckpt_core.Linearize.Random (Ckpt_prob.Rng.create 7));
              ("min-volume", Ckpt_core.Linearize.Min_volume) ])
        [ 0.01; 0.3 ])
    Spec.paper;
  print_newline ()

let policy_ablation () =
  Printf.printf
    "== Ablation A2: checkpoint policies (EM relative to CKPTSOME, genome n=300, p=35) ==\n";
  Printf.printf "%8s | %10s %10s %10s %10s %10s\n" "ccr" "some" "budget-2" "every-2"
    "every-5" "all";
  let dag = Spec.generate Spec.Genome ~seed:1 ~tasks:300 () in
  List.iter
    (fun ccr ->
      let setup = Pipeline.prepare ~dag ~processors:35 ~pfail:0.001 ~ccr () in
      let em kind = Strategy.expected_makespan (Pipeline.plan setup kind) in
      let some = em Strategy.Ckpt_some in
      Printf.printf "%8.3f | %10.2f %10.4f %10.4f %10.4f %10.4f\n" ccr some
        (em (Strategy.Ckpt_budget 2) /. some)
        (em (Strategy.Ckpt_every 2) /. some)
        (em (Strategy.Ckpt_every 5) /. some)
        (em Strategy.Ckpt_all /. some))
    [ 0.001; 0.01; 0.1; 0.5; 1.0 ];
  print_newline ()

let refinement_ablation () =
  Printf.printf
    "== Ablation A4: global refinement of Algorithm 2 (genome n=50, p=5, pfail=1e-2) ==\n";
  Printf.printf "%-12s | %10s %10s %7s %7s\n" "start" "EM before" "EM after" "moves"
    "gain";
  let dag = Spec.generate Spec.Genome ~seed:1 ~tasks:50 () in
  let setup = Pipeline.prepare ~dag ~processors:5 ~pfail:0.01 ~ccr:0.1 () in
  List.iter
    (fun kind ->
      let r = Ckpt_core.Refine.hill_climb ~max_rounds:30 (Pipeline.plan setup kind) in
      Printf.printf "%-12s | %10.2f %10.2f %7d %6.3f%%\n" (Strategy.kind_name kind)
        r.Ckpt_core.Refine.initial_em r.Ckpt_core.Refine.final_em r.Ckpt_core.Refine.moves
        ((r.Ckpt_core.Refine.initial_em -. r.Ckpt_core.Refine.final_em)
        /. r.Ckpt_core.Refine.initial_em *. 100.))
    [ Strategy.Ckpt_some; Strategy.Ckpt_every 5; Strategy.Ckpt_all ];
  print_newline ()

let contention_ablation () =
  Printf.printf
    "== Ablation A3: storage contention (simulated, genome n=300, p=35, pfail=1e-3) ==\n";
  Printf.printf "%8s | %-12s %12s %12s %9s\n" "ccr" "strategy" "nominal" "contended"
    "penalty";
  let dag = Spec.generate Spec.Genome ~seed:1 ~tasks:300 () in
  let trials = 100 in
  List.iter
    (fun ccr ->
      let setup = Pipeline.prepare ~dag ~processors:35 ~pfail:0.001 ~ccr () in
      List.iter
        (fun kind ->
          let plan = Pipeline.plan setup kind in
          let nominal = Ckpt_prob.Stats.mean (Runner.simulate ~trials plan) in
          let contended =
            Ckpt_prob.Stats.mean (Ckpt_sim.Contention.simulate ~trials plan)
          in
          Printf.printf "%8.3f | %-12s %12.1f %12.1f %8.3fx\n" ccr
            (Strategy.kind_name kind) nominal contended (contended /. nominal))
        [ Strategy.Ckpt_some; Strategy.Ckpt_all ])
    [ 0.01; 0.1; 0.5 ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Degraded mode: permanent processor loss                             *)
(* ------------------------------------------------------------------ *)

(* Static-schedule-with-restart vs online schedule repair under
   permanent processor deaths (extension; ckptwf degrade exposes the
   same comparison from the CLI). Trials fan over [jobs] domains
   without changing the sampled values, and each pdeath cell is
   journaled, so a killed run resumes with identical output. *)
let degraded_mode_table ?journal ?(jobs = 1) () =
  let module Degrade = Ckpt_sim.Degrade in
  Printf.printf "== Degraded mode: repair vs restart (genome n=50, p=5, 1 loss) ==\n";
  Printf.printf "%8s | %12s %12s %8s %8s %8s\n" "pdeath" "EM(repair)" "EM(restart)" "gain"
    "losses" "replans";
  let dag = Spec.generate Spec.Genome ~seed:1 ~tasks:50 () in
  let setup = Pipeline.prepare ~dag ~processors:5 ~pfail:0.001 ~ccr:0.1 () in
  let plan = Pipeline.plan setup Strategy.Ckpt_some in
  let trials = 120 in
  List.iter
    (fun pdeath ->
      let key =
        Printf.sprintf "bench|degrade|wf=genome|n=50|p=5|trials=%d|pdeath=%.17g" trials
          pdeath
      in
      print_endline
        (cell journal key (fun () ->
             let lambda_death =
               Platform.lambda_of_pfail ~pfail:pdeath ~mean_weight:plan.Strategy.wpar
             in
             let config =
               { Degrade.lambda_death; max_losses = 1; kind = Strategy.Ckpt_some;
                 store = Ckpt_storage.Store.default }
             in
             let summary mode =
               Degrade.summarize (Degrade.sample ~trials ~seed:13 ~jobs ~mode config plan)
             in
             let repair = summary Degrade.Repair in
             let restart = summary Degrade.Restart in
             Printf.sprintf "%8.3f | %12.2f %12.2f %7.3fx %8.2f %8.2f" pdeath
               repair.Degrade.mean_makespan restart.Degrade.mean_makespan
               (restart.Degrade.mean_makespan /. repair.Degrade.mean_makespan)
               repair.Degrade.mean_losses repair.Degrade.mean_replans)))
    [ 0.05; 0.1; 0.2; 0.5 ];
  print_newline ()

(* Unreliable stable storage: expected makespan under latent checkpoint
   corruption, for replication factors k = 1 and k = 2 (extension;
   ckptwf storm exposes the full sweep from the CLI). Each cell is
   journaled and trials fan over [jobs] domains without changing the
   sampled values. *)
let storage_crossover_table ?journal ?(jobs = 1) () =
  let module Storage = Ckpt_storage.Storage in
  Printf.printf "== Unreliable storage: replication crossover (genome n=50, p=5) ==\n";
  Printf.printf "%12s | %12s %12s %10s\n" "corrupt_prob" "EM(k=1)" "EM(k=2)" "ratio";
  let dag = Spec.generate Spec.Genome ~seed:1 ~tasks:50 () in
  let setup = Pipeline.prepare ~dag ~processors:5 ~pfail:0.001 ~ccr:0.1 () in
  let trials = 200 in
  let plan_k = Ckpt_parallel.Memo.create () in
  let plan_for k =
    Ckpt_parallel.Memo.get plan_k k (fun () -> Pipeline.plan ~replicas:k setup Strategy.Ckpt_some)
  in
  let em ~replicas ~corrupt_prob =
    let store =
      { Ckpt_storage.Store.default with
        Ckpt_storage.Store.faults = { Storage.default with Storage.corrupt_prob; replicas } }
    in
    let sample = Runner.sample_storage ~trials ~seed:13 ~jobs ~store (plan_for replicas) in
    Array.fold_left (fun acc t -> acc +. t.Runner.makespan) 0. sample
    /. float_of_int (Array.length sample)
  in
  List.iter
    (fun corrupt_prob ->
      let key =
        Printf.sprintf "bench|storm|wf=genome|n=50|p=5|trials=%d|cp=%.17g" trials
          corrupt_prob
      in
      print_endline
        (cell journal key (fun () ->
             let em1 = em ~replicas:1 ~corrupt_prob in
             let em2 = em ~replicas:2 ~corrupt_prob in
             Printf.sprintf "%12.3f | %12.2f %12.2f %9.3fx" corrupt_prob em1 em2
               (em1 /. em2))))
    [ 0.; 0.02; 0.05; 0.1; 0.2 ];
  print_newline ()

(* Spot revocation: checkpointing + eviction-aware replanning vs the
   Setlur-style replication baseline on a priced platform — two of the
   five processors are spot instances at a 0.3 price discount (so
   3.3x the revocation risk of the on-demand ones) (extension;
   ckptwf cloud exposes the full sweep from the CLI). Each cell is
   journaled and trials fan over [jobs] domains without changing the
   sampled values. *)
let cloud_revocation_table ?journal ?(jobs = 1) () =
  let module Cloud = Ckpt_sim.Cloud in
  Printf.printf "== Spot revocation: checkpoint vs replicate (genome n=50, p=5, 2 spot) ==\n";
  Printf.printf "%8s %6s | %12s %12s %10s %10s %9s %9s %9s\n" "prevoke" "grace" "EM(ckpt)"
    "EM(repl)" "lost(ck)" "lost(rp)" "$(ck)" "$(rp)" "strand";
  let dag = Spec.generate Spec.Genome ~seed:1 ~tasks:50 () in
  let processors = 5 in
  let pfail = 0.001 and ccr = 0.1 in
  let mean_weight = Dag.total_weight dag /. float_of_int (Dag.n_tasks dag) in
  let lambda = Platform.lambda_of_pfail ~pfail ~mean_weight in
  let bandwidth =
    Platform.bandwidth_for_ccr ~ccr ~total_data:(Dag.total_data dag)
      ~total_weight:(Dag.total_weight dag)
  in
  let platform =
    let nspot = 2 in
    let spot p = p >= processors - nspot in
    let rates = Array.make processors lambda in
    let prices = Array.init processors (fun p -> if spot p then 0.3 else 1.) in
    Platform.make_heterogeneous ~prices ~rates ~bandwidth ()
  in
  let setup = Pipeline.prepare ~platform ~dag ~processors ~pfail ~ccr () in
  let plan = Pipeline.plan setup Strategy.Ckpt_some in
  let prepared = Cloud.prepare plan in
  let trials = 120 in
  List.iter
    (fun (prevoke, grace) ->
      let key =
        Printf.sprintf "bench|cloud|wf=genome|n=50|p=5|trials=%d|prevoke=%.17g|grace=%.17g"
          trials prevoke grace
      in
      print_endline
        (cell journal key (fun () ->
             let lambda_revoke =
               Platform.lambda_of_pfail ~pfail:prevoke ~mean_weight:plan.Strategy.wpar
             in
             let config =
               { Cloud.lambda_revoke; grace; max_revocations = 2;
                 kind = Strategy.Ckpt_some; store = Ckpt_storage.Store.default }
             in
             let summary mode =
               Cloud.summarize
                 (Cloud.sample_prepared ~trials ~seed:13 ~jobs ~mode config prepared)
             in
             let ck = summary Cloud.Checkpoint in
             let rp = summary Cloud.Replicate in
             (* an [inf] mean makespan means [strand]ed trials: every
                replica (or every processor) revoked before finishing *)
             Printf.sprintf "%8.2f %6.0f | %12.2f %12.2f %10.2f %10.2f %9.3f %9.3f %4d/%-4d"
               prevoke grace ck.Cloud.mean_makespan rp.Cloud.mean_makespan
               ck.Cloud.mean_work_lost rp.Cloud.mean_work_lost ck.Cloud.mean_dollar_cost
               rp.Cloud.mean_dollar_cost ck.Cloud.stranded rp.Cloud.stranded)))
    [ (0.2, 0.); (0.2, 30.); (0.5, 0.); (0.5, 30.) ];
  print_newline ()

let () =
  let quick = Array.exists (fun a -> a = "--quick") Sys.argv in
  let resume = Array.exists (fun a -> a = "--resume") Sys.argv in
  let value_of name =
    let n = Array.length Sys.argv in
    let rec find i =
      if i >= n then None
      else if Sys.argv.(i) = name && i + 1 < n then Some Sys.argv.(i + 1)
      else find (i + 1)
    in
    find 1
  in
  let jobs =
    match value_of "--jobs" with
    | None -> 1
    | Some s -> (
        match int_of_string_opt s with
        | Some 0 -> Pool.available_jobs ()
        | Some j when j > 0 -> j
        | _ ->
            prerr_endline "bench: --jobs wants a non-negative integer";
            exit 2)
  in
  let journal_path = value_of "--journal" in
  (if resume && journal_path = None then begin
     prerr_endline "bench: --resume requires --journal FILE";
     exit 2
   end);
  let journal =
    match journal_path with
    | None -> None
    | Some path -> (
        match Journal.open_ ~fresh:(not resume) path with
        | Ok j -> Some j
        | Error e ->
            Printf.eprintf "bench: %s\n" (Rerror.to_string e);
            exit (Rerror.exit_code e))
  in
  Option.iter
    (fun j ->
      if Journal.recovered_tail j then
        Printf.eprintf "bench: journal %s: dropped a truncated trailing entry (recovered)\n%!"
          (Journal.path j))
    journal;
  run_benchmarks ();
  accuracy_table ?journal ();
  linearization_ablation ();
  policy_ablation ();
  refinement_ablation ();
  contention_ablation ();
  degraded_mode_table ?journal ~jobs ();
  storage_crossover_table ?journal ~jobs ();
  cloud_revocation_table ?journal ~jobs ();
  if quick then
    List.iter
      (fun (fig, kind) ->
        Printf.printf "== Figure %s (quick): %s at n=300, p=35, pfail=0.001 ==\n" fig
          (Spec.name kind);
        let dag = Spec.generate kind ~seed:1 ~tasks:300 () in
        List.iter
          (fun ccr ->
            let setup = Pipeline.prepare ~dag ~processors:35 ~pfail:0.001 ~ccr () in
            let cmp = Pipeline.compare_strategies setup in
            Printf.printf "  ccr=%8.5f relALL=%8.4f relNONE=%9.4f\n" ccr cmp.Pipeline.rel_all
              cmp.Pipeline.rel_none)
          (ccrs_for kind);
        print_newline ())
      [ ("5", Spec.Genome); ("6", Spec.Montage); ("7", Spec.Ligo) ]
  else begin
    figure_series ?journal ~jobs "5" Spec.Genome;
    figure_series ?journal ~jobs "6" Spec.Montage;
    figure_series ?journal ~jobs "7" Spec.Ligo
  end
