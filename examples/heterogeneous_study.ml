(* Heterogeneous failure rates (extension beyond the paper).

   The paper's platforms are homogeneous. Real clusters are not:
   aging nodes fail more often. This study builds a platform where
   half the processors are 50x flakier than the other half, and shows
   how Algorithm 2 reacts — superchains on flaky processors get denser
   checkpointing — plus the waste accounting of the simulator.

   Run with: dune exec examples/heterogeneous_study.exe *)

module Dag = Ckpt_dag.Dag
module Platform = Ckpt_platform.Platform
module Allocate = Ckpt_core.Allocate
module Schedule = Ckpt_core.Schedule
module Superchain = Ckpt_core.Superchain
module Placement = Ckpt_core.Placement
module Strategy = Ckpt_core.Strategy
module Engine = Ckpt_sim.Engine
module Runner = Ckpt_sim.Runner
module Failure = Ckpt_platform.Failure
module Rng = Ckpt_prob.Rng

(* a bag of identical 30-task pipelines (10 s per stage, 10 MB between
   stages): long uniform chains are exactly where checkpoint density
   responds to the failure rate *)
let pipelines ~count ~length =
  let open Ckpt_mspg.Mspg in
  let chain c =
    Bserial (List.init length (fun i -> Btask (Printf.sprintf "stage%d.%d" c i, 10.)))
  in
  let m = build ~name:"pipelines" ~edge_size:(fun _ _ -> 1e7)
      (Bparallel (List.init count chain))
  in
  m

let () =
  let processors = 10 in
  let mspg = pipelines ~count:processors ~length:30 in
  let dag = mspg.Ckpt_mspg.Mspg.dag in
  let schedule = Allocate.run mspg ~processors in
  let mean_weight = Dag.total_weight dag /. float_of_int (Dag.n_tasks dag) in
  let base_rate = Platform.lambda_of_pfail ~pfail:0.0005 ~mean_weight in
  (* even processors reliable, odd processors 50x flakier *)
  let rates =
    Array.init processors (fun p -> if p mod 2 = 0 then base_rate else 50. *. base_rate)
  in
  let bandwidth =
    Platform.bandwidth_for_ccr ~ccr:0.2 ~total_data:(Dag.total_data dag)
      ~total_weight:(Dag.total_weight dag)
  in
  let platform = Platform.make_heterogeneous ~rates ~bandwidth () in
  Format.printf "%a@.@." Platform.pp platform;

  let plan = Strategy.plan Strategy.Ckpt_some ~raw:dag ~schedule ~platform in
  (* checkpoints per processor *)
  let ckpts = Array.make processors 0 and tasks = Array.make processors 0 in
  Array.iter
    (fun (seg : Placement.segment) ->
      let proc = schedule.Schedule.superchains.(seg.Placement.chain).Superchain.processor in
      ckpts.(proc) <- ckpts.(proc) + 1)
    plan.Strategy.segments;
  Array.iter
    (fun (sc : Superchain.t) ->
      tasks.(sc.Superchain.processor) <-
        tasks.(sc.Superchain.processor) + Superchain.n_tasks sc)
    schedule.Schedule.superchains;
  Format.printf "checkpoint density per processor (Algorithm 2, per-processor rates):@.";
  for p = 0 to processors - 1 do
    Format.printf "  p%d (%-8s) %3d checkpoints / %3d tasks = %.2f@." p
      (if p mod 2 = 0 then "reliable" else "flaky")
      ckpts.(p) tasks.(p)
      (float_of_int ckpts.(p) /. float_of_int (max 1 tasks.(p)))
  done;

  (* waste accounting over simulated executions *)
  let segs = Runner.segs_of_plan plan in
  let rng = Rng.create 3 in
  let trials = 400 in
  let failures = ref 0 and wasted = ref 0. and useful = ref 0. in
  for _ = 1 to trials do
    let trial = Rng.split rng in
    let traces = Hashtbl.create 16 in
    let trace p =
      match Hashtbl.find_opt traces p with
      | Some t -> t
      | None ->
          let t = Failure.create trial ~lambda:(Platform.rate_of platform p) in
          Hashtbl.replace traces p t;
          t
    in
    let s = Engine.summarize (Engine.run segs trace).Engine.records in
    failures := !failures + s.Engine.failures;
    wasted := !wasted +. s.Engine.wasted_time;
    useful := !useful +. s.Engine.useful_time
  done;
  Format.printf "@.simulated over %d trials: %.2f failures/run, waste ratio %.3f%%@." trials
    (float_of_int !failures /. float_of_int trials)
    (100. *. !wasted /. (!wasted +. !useful));

  (* the homogeneous-DP counterfactual: plan with the MEAN rate
     everywhere, execute on the heterogeneous platform *)
  let homogeneous =
    Platform.make ~processors ~lambda:platform.Platform.lambda ~bandwidth
  in
  let naive_plan = Strategy.plan Strategy.Ckpt_some ~raw:dag ~schedule ~platform:homogeneous in
  let run p =
    (* simulate a plan against the TRUE heterogeneous rates *)
    let segs = Runner.segs_of_plan p in
    let stats = Ckpt_prob.Stats.create () in
    let rng = Rng.create 9 in
    for _ = 1 to trials do
      let trial = Rng.split rng in
      let traces = Hashtbl.create 16 in
      let trace q =
        match Hashtbl.find_opt traces q with
        | Some t -> t
        | None ->
            let t = Failure.create trial ~lambda:(Platform.rate_of platform q) in
            Hashtbl.replace traces q t;
            t
      in
      Ckpt_prob.Stats.add stats (Engine.makespan segs trace)
    done;
    Ckpt_prob.Stats.mean stats
  in
  let aware = run plan and naive = run naive_plan in
  Format.printf
    "@.rate-aware DP: %.1f s | mean-rate DP: %.1f s (rate-awareness saves %.2f%%)@." aware
    naive
    ((naive -. aware) /. naive *. 100.)
