(* Tests for the recovery subsystem (Ckpt_recovery) and the
   degraded-mode execution loop (Ckpt_sim.Degrade): the permanent-
   failure model, residual-DAG construction, online schedule repair,
   and the repair-vs-restart comparison. *)

module Dag = Ckpt_dag.Dag
module Mortality = Ckpt_recovery.Mortality
module Residual = Ckpt_recovery.Residual
module Repair = Ckpt_recovery.Repair
module Engine = Ckpt_sim.Engine
module Runner = Ckpt_sim.Runner
module Degrade = Ckpt_sim.Degrade
module Failure = Ckpt_platform.Failure
module Platform = Ckpt_platform.Platform
module Rng = Ckpt_prob.Rng
module Strategy = Ckpt_core.Strategy
module Storage = Ckpt_storage.Storage
module Pipeline = Ckpt_core.Pipeline
module Spec = Ckpt_workflows.Spec

let check_close ?(eps = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > eps *. (1. +. abs_float expected) then
    Alcotest.failf "%s: expected %g, got %g" msg expected actual

(* --- Mortality --- *)

let test_mortality_zero_rate () =
  let d = Mortality.draw (Rng.create 1) ~processors:4 ~lambda_death:0. ~max_losses:2 in
  Alcotest.(check bool) "all immortal" true (Array.for_all (fun x -> x = infinity) d)

let test_mortality_censoring () =
  let d = Mortality.draw (Rng.create 2) ~processors:8 ~lambda_death:0.1 ~max_losses:3 in
  let finite = Array.fold_left (fun acc x -> if x < infinity then acc + 1 else acc) 0 d in
  Alcotest.(check int) "exactly max_losses deaths" 3 finite;
  (* the censored instants are the earliest drawn ones: every kept
     instant is below every discarded one by construction, which we can
     only check indirectly — redraw without censoring *)
  let all = Mortality.draw (Rng.create 2) ~processors:8 ~lambda_death:0.1 ~max_losses:8 in
  let sorted = Array.copy all in
  Array.sort compare sorted;
  let threshold = sorted.(2) in
  Array.iteri
    (fun p x ->
      if x < infinity then check_close (Printf.sprintf "kept %d" p) all.(p) x
      else Alcotest.(check bool) "discarded are late" true (all.(p) >= threshold))
    d

let test_mortality_deterministic () =
  let a = Mortality.draw (Rng.create 3) ~processors:5 ~lambda_death:0.01 ~max_losses:5 in
  let b = Mortality.draw (Rng.create 3) ~processors:5 ~lambda_death:0.01 ~max_losses:5 in
  Alcotest.(check bool) "same seed, same deaths" true (a = b)

let test_mortality_survivors () =
  let deaths = [| 5.; infinity; 2.; infinity |] in
  Alcotest.(check (list int)) "after 3" [ 0; 1; 3 ] (Mortality.survivors deaths ~after:3.);
  Alcotest.(check (list int)) "after 5 (tie dies)" [ 1; 3 ]
    (Mortality.survivors deaths ~after:5.);
  Alcotest.(check (list int)) "after 0 (everyone still alive)" [ 0; 1; 2; 3 ]
    (Mortality.survivors deaths ~after:0.)

(* --- Residual --- *)

(* a -> b -> c, plus a shared file a -> c; a has an initial input *)
let chain_dag () =
  let d = Dag.create ~name:"chain" () in
  let a = Dag.add_task d ~name:"a" ~weight:10. in
  let b = Dag.add_task d ~name:"b" ~weight:20. in
  let c = Dag.add_task d ~name:"c" ~weight:30. in
  Dag.add_input d a 7.;
  Dag.add_edge d a b 100.;
  Dag.add_edge d a c 200.;
  Dag.add_edge d b c 300.;
  (d, a, b, c)

let test_residual_keeps_not_done () =
  let d, a, _, _ = chain_dag () in
  let done_ = Array.make 3 false in
  done_.(a) <- true;
  let sub, task_of = Residual.build ~dag:d ~done_ in
  Alcotest.(check int) "two tasks left" 2 (Dag.n_tasks sub);
  Alcotest.(check (list int)) "mapping" [ 1; 2 ] (Array.to_list task_of);
  (* b now reads a->b's file from stable storage; c reads a->c's *)
  Alcotest.(check (list (float 1e-9))) "b inputs" [ 100. ] (Dag.inputs sub 0);
  Alcotest.(check (list (float 1e-9))) "c inputs" [ 200. ] (Dag.inputs sub 1);
  (* the internal edge b -> c survives with its file; total data is
     that file plus the two migrated re-reads *)
  Alcotest.(check bool) "b -> c kept" true (Dag.has_edge sub 0 1);
  check_close "total data = edge + migrated inputs" (300. +. 100. +. 200.)
    (Dag.total_data sub)

let test_residual_keeps_initial_inputs () =
  let d, _, _, _ = chain_dag () in
  let sub, _ = Residual.build ~dag:d ~done_:(Array.make 3 false) in
  Alcotest.(check (list (float 1e-9))) "a keeps its initial input" [ 7. ] (Dag.inputs sub 0)

let test_residual_rejects_all_done () =
  let d, _, _, _ = chain_dag () in
  Alcotest.(check bool) "rejected" true
    (match Residual.build ~dag:d ~done_:(Array.make 3 true) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Engine.run under permanent deaths --- *)

let no_failures _ = Failure.create (Rng.create 1) ~lambda:0.

let until_death ?start segs ~death =
  Engine.run ?start ~interrupts:(Engine.deaths death) segs no_failures

let test_death_free_matches_execute () =
  let segs =
    [| { Engine.processor = 0; duration = 3.; preds = [] };
       { Engine.processor = 1; duration = 5.; preds = [ 0 ] } |]
  in
  let o = until_death segs ~death:(fun _ -> infinity) in
  match o.Engine.cut with
  | None -> check_close "same makespan" 8. o.Engine.finish
  | Some _ -> Alcotest.fail "no deaths injected"

let test_idle_death_is_harmless () =
  (* p0 finishes at 3, dies at 4: nothing was lost *)
  let segs = [| { Engine.processor = 0; duration = 3.; preds = [] } |] in
  let o = until_death segs ~death:(fun p -> if p = 0 then 4. else infinity) in
  match o.Engine.cut with
  | None -> check_close "finished" 3. o.Engine.finish
  | Some _ -> Alcotest.fail "idle death must not interrupt"

let test_midflight_death_interrupts () =
  let segs =
    [| { Engine.processor = 0; duration = 2.; preds = [] };
       { Engine.processor = 0; duration = 10.; preds = [ 0 ] };
       { Engine.processor = 1; duration = 3.; preds = [] };
       { Engine.processor = 1; duration = 9.; preds = [ 2 ] } |]
  in
  match (until_death segs ~death:(fun p -> if p = 0 then 5. else infinity)).Engine.cut with
  | None -> Alcotest.fail "p0 died mid-segment"
  | Some { Engine.proc; at; completed; _ } ->
      Alcotest.(check int) "dead processor" 0 proc;
      check_close "at the death instant" 5. at;
      Alcotest.(check (list bool)) "cut at the instant" [ true; false; true; false ]
        (Array.to_list completed)

let test_earliest_disruptive_death_wins () =
  let segs =
    [| { Engine.processor = 0; duration = 10.; preds = [] };
       { Engine.processor = 1; duration = 10.; preds = [] } |]
  in
  match (until_death segs ~death:(fun p -> if p = 0 then 7. else 4.)).Engine.cut with
  | None -> Alcotest.fail "both died mid-segment"
  | Some { Engine.proc; at; _ } ->
      Alcotest.(check int) "p1 died first" 1 proc;
      check_close "its instant" 4. at

let test_death_before_start_rejected () =
  let segs = [| { Engine.processor = 0; duration = 1.; preds = [] } |] in
  Alcotest.(check bool) "rejected" true
    (match until_death ~start:5. segs ~death:(fun _ -> 4.) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_start_offsets_execution () =
  let segs = [| { Engine.processor = 0; duration = 3.; preds = [] } |] in
  let o = until_death ~start:10. segs ~death:(fun _ -> infinity) in
  match o.Engine.cut with
  | None -> check_close "starts at 10" 13. o.Engine.finish
  | Some _ -> Alcotest.fail "no deaths injected"

(* --- Repair --- *)

let genome_plan ?(tasks = 50) ?(processors = 5) ?(seed = 1) () =
  let dag = Spec.generate Spec.Genome ~seed ~tasks () in
  let setup = Pipeline.prepare ~dag ~processors ~pfail:0.001 ~ccr:0.1 () in
  Pipeline.plan setup Strategy.Ckpt_some

let test_repair_no_survivors () =
  let plan = genome_plan () in
  Alcotest.(check bool) "error" true
    (match
       Repair.replan ~kind:Strategy.Ckpt_some ~dag:plan.Strategy.raw_dag
         ~done_:(Array.make (Dag.n_tasks plan.Strategy.raw_dag) false)
         ~survivors:[] ~platform:plan.Strategy.platform ()
     with
    | Error _ -> true
    | Ok _ -> false)

let test_repair_full_restart_plannable () =
  (* done_ = nothing: the "restart from scratch on survivors" fallback *)
  let plan = genome_plan () in
  let raw = plan.Strategy.raw_dag in
  match
    Repair.replan ~kind:Strategy.Ckpt_some ~dag:raw
      ~done_:(Array.make (Dag.n_tasks raw) false)
      ~survivors:[ 0; 2; 4 ] ~platform:plan.Strategy.platform ()
  with
  | Error msg -> Alcotest.failf "replan failed: %s" msg
  | Ok r ->
      Alcotest.(check int) "all tasks" (Dag.n_tasks raw)
        (Dag.n_tasks r.Repair.plan.Strategy.raw_dag);
      Alcotest.(check (list int)) "phys mapping" [ 0; 2; 4 ] (Array.to_list r.Repair.phys);
      Alcotest.(check int) "three processors"
        3 r.Repair.plan.Strategy.platform.Platform.processors

(* Simulate up to the first loss, then repair: the repaired plan must
   re-execute exactly the tasks that were not checkpointed before the
   loss — the acceptance property, checked across random workflows,
   death instants and transient-failure seeds. *)
let repaired_reexecutes_only_unsaved seed =
  let plan = genome_plan ~tasks:(30 + (seed mod 3 * 13)) ~seed:(seed + 1) () in
  let raw = plan.Strategy.raw_dag in
  let n = Dag.n_tasks raw in
  let platform = plan.Strategy.platform in
  let nprocs = platform.Platform.processors in
  let rng = Rng.for_trial ~seed:97 seed in
  (* a death rate high enough to usually interrupt the schedule *)
  let lambda_death = 2. /. plan.Strategy.wpar in
  let deaths =
    Mortality.draw rng ~processors:nprocs ~lambda_death ~max_losses:1
  in
  let trace_rngs = Array.init nprocs (fun _ -> Rng.split rng) in
  let trace_of p = Failure.create trace_rngs.(p) ~lambda:(Platform.rate_of platform p) in
  let prepared_segs = Runner.segs_of_plan plan in
  match
    (Engine.run ~interrupts:(Engine.deaths (fun p -> deaths.(p))) prepared_segs trace_of)
      .Engine.cut
  with
  | None -> true (* no loss struck: nothing to verify *)
  | Some { Engine.at; completed; _ } ->
      let done_ = Array.make n false in
      Array.iteri
        (fun i ok ->
          if ok then begin
            let seg = plan.Strategy.segments.(i) in
            let sc =
              plan.Strategy.schedule.Ckpt_core.Schedule.superchains.(seg.Ckpt_core.Placement.chain)
            in
            for k = seg.Ckpt_core.Placement.first to seg.Ckpt_core.Placement.last do
              done_.(Ckpt_core.Superchain.task_at sc k) <- true
            done
          end)
        completed;
      let survivors = Mortality.survivors deaths ~after:at in
      if survivors = [] then true
      else begin
        match
          Repair.replan ~kind:Strategy.Ckpt_some ~dag:raw ~done_ ~survivors ~platform ()
        with
        | Error msg -> Alcotest.failf "replan failed: %s" msg
        | Ok r ->
            let residual = r.Repair.plan.Strategy.raw_dag in
            let saved = Array.fold_left (fun a d -> if d then a + 1 else a) 0 done_ in
            (* only unsaved work is re-executed... *)
            Array.iter
              (fun orig ->
                if done_.(orig) then
                  Alcotest.failf "task %d was checkpointed yet re-planned" orig)
              r.Repair.task_of;
            (* ...and all of it *)
            Alcotest.(check int) "every unsaved task replanned" (n - saved)
              (Dag.n_tasks residual);
            (* the replan only uses surviving processors *)
            Array.iter
              (fun (sc : Ckpt_core.Superchain.t) ->
                let phys = r.Repair.phys.(sc.Ckpt_core.Superchain.processor) in
                if not (List.mem phys survivors) then
                  Alcotest.failf "superchain mapped to dead processor %d" phys)
              r.Repair.plan.Strategy.schedule.Ckpt_core.Schedule.superchains;
            true
      end

let qcheck_repair_only_unsaved =
  QCheck.Test.make ~count:25 ~name:"repaired plan re-executes only unsaved work"
    QCheck.(int_range 0 10_000)
    repaired_reexecutes_only_unsaved

(* --- Degrade --- *)

let degrade_config ?(max_losses = 1) plan lambda_scale =
  {
    Degrade.lambda_death = lambda_scale /. plan.Strategy.wpar;
    max_losses;
    kind = Strategy.Ckpt_some;
    store = Ckpt_storage.Store.default;
  }

let test_degrade_no_deaths_matches_runner () =
  (* lambda_death = 0: the degraded run is a plain simulation *)
  let plan = genome_plan () in
  let config =
    { Degrade.lambda_death = 0.; max_losses = 1; kind = Strategy.Ckpt_some;
      store = Ckpt_storage.Store.default }
  in
  let trials = Degrade.sample ~trials:20 ~seed:5 ~mode:Degrade.Repair config plan in
  Array.iter
    (fun (t : Degrade.trial) ->
      Alcotest.(check int) "no losses" 0 t.Degrade.losses;
      Alcotest.(check bool) "finite" true (t.Degrade.makespan < infinity))
    trials

let test_degrade_deterministic_per_seed () =
  let plan = genome_plan () in
  let config = degrade_config plan 1.5 in
  let a = Degrade.sample ~trials:30 ~seed:3 ~mode:Degrade.Repair config plan in
  let b = Degrade.sample ~trials:30 ~seed:3 ~mode:Degrade.Repair config plan in
  Alcotest.(check bool) "bitwise reproducible" true (a = b)

let test_degrade_jobs_invariant () =
  let plan = genome_plan () in
  let config = degrade_config plan 1.5 in
  let seq = Degrade.sample ~trials:40 ~seed:9 ~jobs:1 ~mode:Degrade.Repair config plan in
  let par = Degrade.sample ~trials:40 ~seed:9 ~jobs:4 ~mode:Degrade.Repair config plan in
  Alcotest.(check bool) "bitwise identical at any --jobs" true (seq = par)

let test_degrade_losses_bounded () =
  let plan = genome_plan () in
  let config = degrade_config ~max_losses:2 plan 4. in
  let trials = Degrade.sample ~trials:30 ~seed:7 ~mode:Degrade.Repair config plan in
  Array.iter
    (fun (t : Degrade.trial) ->
      Alcotest.(check bool) "at most max_losses" true (t.Degrade.losses <= 2))
    trials

let test_degrade_stranded_when_all_die () =
  (* one processor, certain early death, nobody survives *)
  let plan = genome_plan ~processors:1 () in
  let config =
    { Degrade.lambda_death = 50. /. plan.Strategy.wpar; max_losses = 1;
      kind = Strategy.Ckpt_some; store = Ckpt_storage.Store.default }
  in
  let trials = Degrade.sample ~trials:20 ~seed:2 ~mode:Degrade.Repair config plan in
  let s = Degrade.summarize trials in
  Alcotest.(check bool) "some trial strands" true (s.Degrade.stranded > 0);
  Alcotest.(check bool) "mean goes infinite" true (s.Degrade.mean_makespan = infinity)

let test_repair_beats_restart_on_genome () =
  (* the headline acceptance check: GENOME with one injected permanent
     loss — online repair must beat restart-from-scratch in expectation
     (paired trials: both modes consume identical randomness) *)
  let plan = genome_plan () in
  let config = degrade_config plan 1.5 in
  let trials = 150 in
  let repair =
    Degrade.summarize (Degrade.sample ~trials ~seed:13 ~mode:Degrade.Repair config plan)
  in
  let restart =
    Degrade.summarize (Degrade.sample ~trials ~seed:13 ~mode:Degrade.Restart config plan)
  in
  Alcotest.(check bool) "losses actually struck" true (repair.Degrade.mean_losses > 0.3);
  if repair.Degrade.mean_makespan >= restart.Degrade.mean_makespan then
    Alcotest.failf "online repair (%.1f) does not beat restart (%.1f)"
      repair.Degrade.mean_makespan restart.Degrade.mean_makespan

let test_degrade_rejects_ckptnone () =
  let dag = Spec.generate Spec.Genome ~seed:1 ~tasks:50 () in
  let setup = Pipeline.prepare ~dag ~processors:5 ~pfail:0.001 ~ccr:0.1 () in
  let plan = Pipeline.plan setup Strategy.Ckpt_none in
  Alcotest.(check bool) "rejected" true
    (match Degrade.prepare plan with exception Invalid_argument _ -> true | _ -> false)

let suite =
  [
    Alcotest.test_case "mortality zero rate" `Quick test_mortality_zero_rate;
    Alcotest.test_case "mortality censoring" `Quick test_mortality_censoring;
    Alcotest.test_case "mortality deterministic" `Quick test_mortality_deterministic;
    Alcotest.test_case "mortality survivors" `Quick test_mortality_survivors;
    Alcotest.test_case "residual keeps not-done" `Quick test_residual_keeps_not_done;
    Alcotest.test_case "residual keeps initial inputs" `Quick test_residual_keeps_initial_inputs;
    Alcotest.test_case "residual rejects all-done" `Quick test_residual_rejects_all_done;
    Alcotest.test_case "death-free matches execute" `Quick test_death_free_matches_execute;
    Alcotest.test_case "idle death harmless" `Quick test_idle_death_is_harmless;
    Alcotest.test_case "mid-flight death interrupts" `Quick test_midflight_death_interrupts;
    Alcotest.test_case "earliest disruptive death wins" `Quick test_earliest_disruptive_death_wins;
    Alcotest.test_case "death before start rejected" `Quick test_death_before_start_rejected;
    Alcotest.test_case "start offsets execution" `Quick test_start_offsets_execution;
    Alcotest.test_case "repair: no survivors" `Quick test_repair_no_survivors;
    Alcotest.test_case "repair: full restart plannable" `Quick test_repair_full_restart_plannable;
    QCheck_alcotest.to_alcotest qcheck_repair_only_unsaved;
    Alcotest.test_case "degrade: no deaths" `Quick test_degrade_no_deaths_matches_runner;
    Alcotest.test_case "degrade: deterministic" `Quick test_degrade_deterministic_per_seed;
    Alcotest.test_case "degrade: jobs invariant" `Slow test_degrade_jobs_invariant;
    Alcotest.test_case "degrade: losses bounded" `Quick test_degrade_losses_bounded;
    Alcotest.test_case "degrade: stranded when all die" `Quick test_degrade_stranded_when_all_die;
    Alcotest.test_case "repair beats restart (GENOME)" `Slow test_repair_beats_restart_on_genome;
    Alcotest.test_case "degrade rejects CKPTNONE" `Quick test_degrade_rejects_ckptnone;
  ]
