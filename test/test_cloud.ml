(* Tests for the cloud extension: revocation draws with warnings
   (Ckpt_recovery.Mortality), the warning-cut engine with proactive
   rescue checkpoints (Ckpt_sim.Engine.run with revocations), and
   the spot-instance trial loop (Ckpt_sim.Cloud). *)

module Dag = Ckpt_dag.Dag
module Mortality = Ckpt_recovery.Mortality
module Repair = Ckpt_recovery.Repair
module Engine = Ckpt_sim.Engine
module Runner = Ckpt_sim.Runner
module Degrade = Ckpt_sim.Degrade
module Cloud = Ckpt_sim.Cloud
module Failure = Ckpt_platform.Failure
module Platform = Ckpt_platform.Platform
module Rng = Ckpt_prob.Rng
module Strategy = Ckpt_core.Strategy
module Schedule = Ckpt_core.Schedule
module Superchain = Ckpt_core.Superchain
module Placement = Ckpt_core.Placement
module Store = Ckpt_storage.Store
module Pipeline = Ckpt_core.Pipeline
module Spec = Ckpt_workflows.Spec

let check_close ?(eps = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > eps *. (1. +. abs_float expected) then
    Alcotest.failf "%s: expected %g, got %g" msg expected actual

(* --- Mortality.draw_revocations --- *)

let test_revocations_zero_grace_is_plain_kill () =
  (* grace 0 degenerates to an unannounced revocation: warn = kill *)
  let revs =
    Mortality.draw_revocations (Rng.create 4) ~rates:(Array.make 6 0.2) ~grace:0.
      ~max_revocations:6
  in
  Array.iter
    (fun r ->
      if r.Mortality.kill < infinity then
        check_close "warn = kill" r.Mortality.kill r.Mortality.warn)
    revs

let test_revocations_warn_clamped_at_zero () =
  (* a kill inside the first grace window warns at instant 0, never at
     a negative instant *)
  let revs =
    Mortality.draw_revocations (Rng.create 5) ~rates:(Array.make 8 5.) ~grace:1e9
      ~max_revocations:8
  in
  Array.iter
    (fun r ->
      Alcotest.(check bool) "warn non-negative" true (r.Mortality.warn >= 0.);
      if r.Mortality.kill < infinity then
        Alcotest.(check bool) "kill inside grace warns at 0" true (r.Mortality.warn = 0.))
    revs

let test_revocations_past_horizon () =
  (* an immortal processor warns never: both instants infinite *)
  let rates = [| 0.; 0.3; 0. |] in
  let revs =
    Mortality.draw_revocations (Rng.create 6) ~rates ~grace:2. ~max_revocations:3
  in
  Alcotest.(check bool) "rate-0 never killed" true (revs.(0).Mortality.kill = infinity);
  Alcotest.(check bool) "rate-0 never warned" true (revs.(0).Mortality.warn = infinity);
  Alcotest.(check bool) "rate-0 never killed" true (revs.(2).Mortality.kill = infinity);
  if revs.(1).Mortality.kill < infinity then
    check_close "warn precedes kill by grace (clamped at 0)"
      (Float.max 0. (revs.(1).Mortality.kill -. 2.))
      revs.(1).Mortality.warn

let test_revocations_all_zero_draw_nothing () =
  (* an all-zero rate vector consumes no randomness: the stream is
     untouched after the call *)
  let a = Rng.create 7 and b = Rng.create 7 in
  let _ =
    Mortality.draw_revocations a ~rates:(Array.make 5 0.) ~grace:3. ~max_revocations:5
  in
  check_close "stream untouched" (Rng.float b 1.) (Rng.float a 1.)

let test_revocations_match_draw_bitwise () =
  (* uniform positive rates: the kill instants are bitwise the plain
     death draw — the cloud path degenerates to the degrade one *)
  let lambda = 0.07 in
  let revs =
    Mortality.draw_revocations (Rng.create 8) ~rates:(Array.make 9 lambda) ~grace:4.
      ~max_revocations:2
  in
  let deaths =
    Mortality.draw (Rng.create 8) ~processors:9 ~lambda_death:lambda ~max_losses:2
  in
  Array.iteri
    (fun p d ->
      Alcotest.(check bool)
        (Printf.sprintf "kill %d bitwise" p)
        true
        (revs.(p).Mortality.kill = d))
    deaths

let test_revocations_censoring () =
  let revs =
    Mortality.draw_revocations (Rng.create 9) ~rates:(Array.make 10 0.5) ~grace:1.
      ~max_revocations:3
  in
  let finite =
    Array.fold_left
      (fun acc r -> if r.Mortality.kill < infinity then acc + 1 else acc)
      0 revs
  in
  Alcotest.(check int) "exactly max_revocations kills" 3 finite

let test_eviction_survivors_strict () =
  let rev ~warn ~kill = { Mortality.warn; kill } in
  let revs =
    [|
      rev ~warn:5. ~kill:7.;
      rev ~warn:infinity ~kill:infinity;
      rev ~warn:2. ~kill:4.;
      rev ~warn:3. ~kill:3.;
    |]
  in
  (* a warned-but-still-alive processor is draining: not a survivor *)
  Alcotest.(check (list int))
    "after 3 (warned p0 survives, p2 drains, p3 ties out)" [ 0; 1 ]
    (Mortality.eviction_survivors revs ~after:3.);
  Alcotest.(check (list int))
    "after 6 (p0 now draining too)" [ 1 ]
    (Mortality.eviction_survivors revs ~after:6.);
  Alcotest.(check (list int))
    "after 0" [ 0; 1; 2; 3 ]
    (Mortality.eviction_survivors revs ~after:0.)

(* --- Engine.run under revocations --- *)

let no_failures _ = Failure.create (Rng.create 1) ~lambda:0.
let reliable_store () = Store.create Store.default (Rng.create 0)

let revoke ?start ?rescue segs ~write ~warn ~kill =
  Engine.run ?start ~store:(reliable_store ()) ~write
    ~interrupts:{ Engine.warn; kill; rescue }
    segs no_failures

let two_proc_segs () =
  [|
    { Engine.processor = 0; duration = 10.; preds = [] };
    { Engine.processor = 1; duration = 10.; preds = [] };
  |]

let test_zero_grace_matches_plain_death () =
  (* warn = kill: the warning cut is bitwise the plain death cut, and
     rescue metadata buys nothing without a grace window *)
  let segs = two_proc_segs () in
  let write = [| 1.; 1. |] in
  let kill p = if p = 0 then 6. else infinity in
  let death =
    Engine.run ~store:(reliable_store ()) ~write ~interrupts:(Engine.deaths kill) segs
      no_failures
  in
  let rescue =
    Array.make 2
      { Engine.rread = 0.; task_durs = Array.make 5 2.; partial_writes = Array.make 5 0.5 }
  in
  let rev = revoke segs ~write ~rescue ~warn:kill ~kill in
  match (death.Engine.cut, rev.Engine.cut) with
  | ( Some { Engine.proc; at; completed; _ },
      Some { Engine.proc = proc'; at = at'; completed = completed'; saved; _ } ) ->
      Alcotest.(check int) "same processor" proc proc';
      check_close "same instant" at at';
      Alcotest.(check (list bool))
        "same frontier" (Array.to_list completed) (Array.to_list completed');
      Alcotest.(check bool) "zero grace never rescues" true (saved = None)
  | _ -> Alcotest.fail "both executions must be interrupted"

let test_earliest_warning_wins_in_shared_grace () =
  (* two processors revoked inside the same grace window: the earliest
     disruptive warning cuts the run, the other's revocation is left
     for the replanned continuation *)
  let segs = two_proc_segs () in
  let warn p = if p = 0 then 5. else 4. in
  let kill p = if p = 0 then 8. else 7. in
  match (revoke segs ~write:[| 1.; 1. |] ~warn ~kill).Engine.cut with
  | None -> Alcotest.fail "both warned mid-segment"
  | Some { Engine.proc; at; kill = k; completed; _ } ->
      Alcotest.(check int) "p1 warned first" 1 proc;
      check_close "cut at its warning" 4. at;
      check_close "its kill carried along" 7. k;
      Alcotest.(check (list bool))
        "nobody finished by the cut" [ false; false ] (Array.to_list completed)

let rescue_segs () =
  (* one five-task segment of 2s each; partial checkpoints cost 0.5s *)
  let segs = [| { Engine.processor = 0; duration = 10.; preds = [] } |] in
  let rescue =
    [|
      {
        Engine.rread = 0.;
        task_durs = Array.make 5 2.;
        partial_writes = Array.make 5 0.5;
      };
    |]
  in
  (segs, rescue)

let test_rescue_commits_prefix_in_grace () =
  let segs, rescue = rescue_segs () in
  match
    (revoke segs ~write:[| 0.5 |] ~rescue ~warn:(fun _ -> 5.) ~kill:(fun _ -> 7.))
      .Engine.cut
  with
  | None -> Alcotest.fail "must be cut at 5"
  | Some { Engine.saved; lost; _ } -> (
      match saved with
      | Some { Engine.seg = 0; tasks = k; handle = Some _ } ->
          (* 5 elapsed seconds cover two whole 2s tasks; the 0.5s write
             fits well before the kill at 7 *)
          Alcotest.(check int) "two tasks saved" 2 k;
          check_close "gross loss is the elapsed attempt" 5. lost
      | _ -> Alcotest.fail "rescue expected")

let test_rescue_loses_race_to_kill () =
  (* same cut, but the kill lands before the 0.5s partial write can
     complete: grace races C and loses *)
  let segs, rescue = rescue_segs () in
  match
    (revoke segs ~write:[| 0.5 |] ~rescue ~warn:(fun _ -> 5.) ~kill:(fun _ -> 5.2))
      .Engine.cut
  with
  | None -> Alcotest.fail "must be cut at 5"
  | Some { Engine.saved; _ } ->
      Alcotest.(check bool) "write span does not fit" true (saved = None)

let test_rescue_commit_latency_races_kill () =
  (* the 0.5s partial write fits before the kill, but a remote store's
     1s commit latency lands the commit at 6.5: past a kill at 6, in
     time for one at 7 *)
  let segs, rescue = rescue_segs () in
  let remote =
    {
      Store.default with
      Store.backend = Store.Remote { commit_latency = 1.; read_latency = 0. };
    }
  in
  let saved kill =
    (Engine.run
       ~store:(Store.create remote (Rng.create 0))
       ~write:[| 0.5 |]
       ~interrupts:
         { Engine.warn = (fun _ -> 5.); kill = (fun _ -> kill); rescue = Some rescue }
       segs no_failures)
      .Engine.cut
    |> Option.map (fun (c : Engine.cut) -> c.Engine.saved <> None)
  in
  Alcotest.(check (option bool)) "commit lands after the kill" (Some false) (saved 6.);
  Alcotest.(check (option bool)) "commit lands before the kill" (Some true) (saved 7.)

let test_revocation_before_start_rejected () =
  let segs = [| { Engine.processor = 0; duration = 1.; preds = [] } |] in
  Alcotest.(check bool) "rejected" true
    (match
       revoke ~start:5. segs ~write:[| 0. |] ~warn:(fun _ -> 4.) ~kill:(fun _ -> 9.)
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Cloud --- *)

let genome_plan ?(tasks = 50) ?(processors = 5) ?(seed = 1) () =
  let dag = Spec.generate Spec.Genome ~seed ~tasks () in
  let setup = Pipeline.prepare ~dag ~processors ~pfail:0.001 ~ccr:0.1 () in
  Pipeline.plan setup Strategy.Ckpt_some

let cloud_config ?(grace = 0.) ?(lambda_scale = 0.) plan =
  {
    Cloud.lambda_revoke = lambda_scale /. plan.Strategy.wpar;
    grace;
    max_revocations = 1;
    kind = Strategy.Ckpt_some;
    store = Store.default;
  }

let test_cloud_degenerates_to_degrade () =
  (* zero grace on an unpriced uniform platform: every trial is bitwise
     a Degrade repair trial at the same death rate *)
  let plan = genome_plan () in
  let lambda = 1.5 /. plan.Strategy.wpar in
  let dconfig =
    {
      Degrade.lambda_death = lambda;
      max_losses = 1;
      kind = Strategy.Ckpt_some;
      store = Store.default;
    }
  in
  let cconfig = { (cloud_config plan) with Cloud.lambda_revoke = lambda } in
  let d = Degrade.sample ~trials:40 ~seed:3 ~mode:Degrade.Repair dconfig plan in
  let c =
    Cloud.sample_prepared ~trials:40 ~seed:3 ~mode:Cloud.Checkpoint cconfig (Cloud.prepare plan)
  in
  Array.iteri
    (fun i (t : Degrade.trial) ->
      Alcotest.(check bool)
        (Printf.sprintf "trial %d makespan bitwise" i)
        true
        (t.Degrade.makespan = c.(i).Cloud.makespan);
      Alcotest.(check int)
        (Printf.sprintf "trial %d events" i)
        t.Degrade.losses c.(i).Cloud.revocations)
    d

let test_cloud_jobs_invariant () =
  let plan = genome_plan () in
  let config = cloud_config ~grace:5. ~lambda_scale:1.5 plan in
  let sample jobs =
    Cloud.sample_prepared ~trials:40 ~seed:9 ~jobs ~mode:Cloud.Checkpoint config
      (Cloud.prepare plan)
  in
  let seq = sample 1 in
  let par = sample 4 in
  Alcotest.(check bool) "bitwise identical at any --jobs" true (seq = par)

let test_cloud_modes_share_worlds () =
  (* both modes are deterministic and consume identical randomness, so
     each trial index sees the same revocation instants *)
  let plan = genome_plan () in
  let config = cloud_config ~grace:2. ~lambda_scale:2. plan in
  let sample () =
    Cloud.sample_prepared ~trials:30 ~seed:4 ~mode:Cloud.Replicate config (Cloud.prepare plan)
  in
  let a = sample () in
  let b = sample () in
  Alcotest.(check bool) "replicate mode reproducible" true (a = b);
  Array.iter
    (fun (t : Cloud.trial) ->
      Alcotest.(check int) "baseline never rescues" 0 t.Cloud.rescues;
      Alcotest.(check int) "baseline never replans" 0 t.Cloud.replans)
    a

let test_cloud_spot_risk_scales_revocations () =
  (* a discounted spot half of the platform is revoked more often than
     the same platform bought fully on-demand *)
  let dag = Spec.generate Spec.Genome ~seed:1 ~tasks:50 () in
  let processors = 6 in
  (* rates and bandwidth derived exactly as the homogeneous pipeline
     derives them — raw per-second values would be out of scale for
     genome's data volumes *)
  let mean_weight = Dag.total_weight dag /. float_of_int (Dag.n_tasks dag) in
  let lambda = Platform.lambda_of_pfail ~pfail:0.001 ~mean_weight in
  let bandwidth =
    Platform.bandwidth_for_ccr ~ccr:0.1 ~total_data:(Dag.total_data dag)
      ~total_weight:(Dag.total_weight dag)
  in
  let platform_with_discount d =
    let prices = Array.init processors (fun p -> if p >= 3 then d else 1.) in
    Platform.make_heterogeneous ~prices ~rates:(Array.make processors lambda) ~bandwidth
      ()
  in
  let sample d =
    let setup =
      Pipeline.prepare ~platform:(platform_with_discount d) ~dag ~processors ~pfail:0.001
        ~ccr:0.1 ()
    in
    let plan = Pipeline.plan setup Strategy.Ckpt_some in
    let config =
      { (cloud_config plan) with Cloud.lambda_revoke = 0.5 /. plan.Strategy.wpar }
    in
    (Cloud.summarize
       (Cloud.sample_prepared ~trials:80 ~seed:6 ~mode:Cloud.Checkpoint config
          (Cloud.prepare plan)))
      .Cloud.mean_revocations
  in
  let cheap = sample 0.2 and dear = sample 1.0 in
  if cheap <= dear then
    Alcotest.failf "deep discount (%.3f revs) must out-revoke full price (%.3f revs)"
      cheap dear

let test_cloud_grace_cuts_work_lost () =
  (* the tentpole's headline: at a high revocation rate, a generous
     warning strictly shrinks the expected work lost *)
  let plan = genome_plan () in
  let lambda_scale = 2.5 in
  let lost grace =
    let config = cloud_config ~grace ~lambda_scale plan in
    (Cloud.summarize
       (Cloud.sample_prepared ~trials:150 ~seed:13 ~mode:Cloud.Checkpoint config
          (Cloud.prepare plan)))
      .Cloud.mean_work_lost
  in
  let unwarned = lost 0. and warned = lost 30. in
  if warned >= unwarned then
    Alcotest.failf "grace does not pay: lost %.2f with warning vs %.2f without" warned
      unwarned

let test_cloud_rejects_ckptnone () =
  let dag = Spec.generate Spec.Genome ~seed:1 ~tasks:50 () in
  let setup = Pipeline.prepare ~dag ~processors:5 ~pfail:0.001 ~ccr:0.1 () in
  let plan = Pipeline.plan setup Strategy.Ckpt_none in
  Alcotest.(check bool) "rejected" true
    (match Cloud.prepare plan with exception Invalid_argument _ -> true | _ -> false)

let test_cloud_rejects_nan () =
  let plan = genome_plan () in
  let prepared = Cloud.prepare plan in
  List.iter
    (fun (msg, config) ->
      Alcotest.(check bool) msg true
        (match Cloud.run_trial ~mode:Cloud.Checkpoint config prepared (Rng.create 1) with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [
      ("NaN rate", { (cloud_config plan) with Cloud.lambda_revoke = nan });
      ("NaN grace", { (cloud_config plan) with Cloud.grace = nan });
    ]

(* --- rescued work is never re-executed (QCheck) --- *)

(* Mirror of Cloud's internal metadata builders, reconstructed from the
   plan's public fields (the module keeps its prepared type abstract). *)
let seg_tasks_of (plan : Strategy.plan) =
  Array.map
    (fun (seg : Placement.segment) ->
      let sc = plan.Strategy.schedule.Schedule.superchains.(seg.Placement.chain) in
      Array.init
        (seg.Placement.last - seg.Placement.first + 1)
        (fun k -> Superchain.task_at sc (seg.Placement.first + k)))
    plan.Strategy.segments

let rescue_of_plan (plan : Strategy.plan) =
  let dag = plan.Strategy.schedule.Schedule.dag in
  let platform = plan.Strategy.platform in
  let replicas = plan.Strategy.replicas in
  Array.map
    (fun (seg : Placement.segment) ->
      let sc = plan.Strategy.schedule.Schedule.superchains.(seg.Placement.chain) in
      let len = seg.Placement.last - seg.Placement.first + 1 in
      {
        Engine.rread = seg.Placement.read;
        task_durs =
          Array.init len (fun k ->
              Dag.weight dag (Superchain.task_at sc (seg.Placement.first + k)));
        partial_writes =
          Array.init len (fun k ->
              (Placement.segment_of ~replicas platform dag sc ~first:seg.Placement.first
                 ~last:(seg.Placement.first + k))
                .Placement.write);
      })
    plan.Strategy.segments

(* One revocation-interrupted execution with a generous grace window,
   then an eviction-aware replan: no task whose checkpoint committed —
   by a segment completing or by the warning rescue — may reappear in
   the replanned residual. Extends the PR-3 "only unsaved work"
   property to warning-committed prefixes. *)
let rescued_tasks_never_replanned case_seed =
  let plan = genome_plan ~tasks:(30 + (case_seed mod 3 * 13)) ~seed:(case_seed + 1) () in
  let raw = plan.Strategy.raw_dag in
  let n = Dag.n_tasks raw in
  let platform = plan.Strategy.platform in
  let nprocs = platform.Platform.processors in
  let rng = Rng.for_trial ~seed:101 case_seed in
  let grace = plan.Strategy.wpar /. 20. in
  let revs =
    Mortality.draw_revocations rng
      ~rates:(Array.make nprocs (2. /. plan.Strategy.wpar))
      ~grace ~max_revocations:1
  in
  let trace_rngs = Array.init nprocs (fun _ -> Rng.split rng) in
  let trace_of p = Failure.create trace_rngs.(p) ~lambda:(Platform.rate_of platform p) in
  let warn p = revs.(p).Mortality.warn in
  let kill p = revs.(p).Mortality.kill in
  if Array.exists (fun r -> r.Mortality.warn <= 0.) revs then true
  else begin
    let segs = Runner.segs_of_plan plan in
    let seg_tasks = seg_tasks_of plan in
    let rescue = rescue_of_plan plan in
    match
      (Engine.run ~store:(reliable_store ()) ~write:(Runner.writes_of_plan plan)
         ~interrupts:{ Engine.warn; kill; rescue = Some rescue }
         segs trace_of)
        .Engine.cut
    with
    | None -> true
    | Some { Engine.at; completed; saved; _ } ->
        let done_ = Array.make n false in
        Array.iteri
          (fun i ok -> if ok then Array.iter (fun t -> done_.(t) <- true) seg_tasks.(i))
          completed;
        let rescued =
          match saved with
          | None -> []
          | Some { Engine.seg = i; tasks = k; _ } ->
              List.init k (fun j ->
                  let t = seg_tasks.(i).(j) in
                  done_.(t) <- true;
                  t)
        in
        let survivors = Mortality.eviction_survivors revs ~after:at in
        if survivors = [] then true
        else begin
          match Repair.replan ~kind:Strategy.Ckpt_some ~done_ ~survivors plan with
          | Error msg -> Alcotest.failf "replan failed: %s" msg
          | Ok r ->
              Array.iter
                (fun orig ->
                  if List.mem orig rescued then
                    Alcotest.failf "warning-committed task %d re-planned" orig;
                  if done_.(orig) then
                    Alcotest.failf "committed task %d re-planned" orig)
                r.Repair.task_of;
              true
        end
  end

let qcheck_rescued_never_replanned =
  QCheck.Test.make ~count:25 ~name:"warning-committed checkpoints are never re-executed"
    QCheck.(int_range 0 10_000)
    rescued_tasks_never_replanned

let suite =
  [
    Alcotest.test_case "revocations: zero grace = plain kill" `Quick
      test_revocations_zero_grace_is_plain_kill;
    Alcotest.test_case "revocations: warn clamped at 0" `Quick
      test_revocations_warn_clamped_at_zero;
    Alcotest.test_case "revocations: past horizon" `Quick test_revocations_past_horizon;
    Alcotest.test_case "revocations: all-zero rates draw nothing" `Quick
      test_revocations_all_zero_draw_nothing;
    Alcotest.test_case "revocations: kills bitwise match draw" `Quick
      test_revocations_match_draw_bitwise;
    Alcotest.test_case "revocations: censoring" `Quick test_revocations_censoring;
    Alcotest.test_case "eviction survivors exclude draining" `Quick
      test_eviction_survivors_strict;
    Alcotest.test_case "zero grace matches plain death" `Quick
      test_zero_grace_matches_plain_death;
    Alcotest.test_case "earliest warning wins in shared grace" `Quick
      test_earliest_warning_wins_in_shared_grace;
    Alcotest.test_case "rescue commits prefix in grace" `Quick
      test_rescue_commits_prefix_in_grace;
    Alcotest.test_case "rescue loses race to kill" `Quick test_rescue_loses_race_to_kill;
    Alcotest.test_case "rescue commit latency races the kill" `Quick
      test_rescue_commit_latency_races_kill;
    Alcotest.test_case "revocation before start rejected" `Quick
      test_revocation_before_start_rejected;
    Alcotest.test_case "cloud degenerates to degrade" `Quick
      test_cloud_degenerates_to_degrade;
    Alcotest.test_case "cloud: jobs invariant" `Slow test_cloud_jobs_invariant;
    Alcotest.test_case "cloud: replicate mode sane" `Quick test_cloud_modes_share_worlds;
    Alcotest.test_case "cloud: discount buys risk" `Slow
      test_cloud_spot_risk_scales_revocations;
    Alcotest.test_case "cloud: grace cuts work lost (GENOME)" `Slow
      test_cloud_grace_cuts_work_lost;
    Alcotest.test_case "cloud rejects CKPTNONE" `Quick test_cloud_rejects_ckptnone;
    QCheck_alcotest.to_alcotest qcheck_rescued_never_replanned;
    Alcotest.test_case "cloud rejects NaN knobs" `Quick test_cloud_rejects_nan;
  ]
