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
module Mspg = Ckpt_mspg.Mspg
module Recognize = Ckpt_mspg.Recognize
module Random_wf = Ckpt_workflows.Random_wf
module Allocate = Ckpt_core.Allocate
module Schedule = Ckpt_core.Schedule

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

(* The censoring reference: every (instant, id) pair sorted by
   polymorphic compare, the first [keep] kept, the rest at infinity *)
let reference_censor instants keep =
  let n = Array.length instants in
  let order = Array.init n (fun p -> (instants.(p), p)) in
  Array.sort compare order;
  let out = Array.make n infinity in
  for k = 0 to min keep n - 1 do
    let x, p = order.(k) in
    out.(p) <- x
  done;
  out

let test_mortality_censoring_reference () =
  for seed = 0 to 59 do
    let processors = 1 + (seed * 7 mod 40) in
    let uncensored =
      Mortality.draw (Rng.create seed) ~processors ~lambda_death:0.3 ~max_losses:processors
    in
    (* zero-rate processors draw no instant: infinite kills tie *)
    let rates = Array.init processors (fun p -> if (p + seed) mod 3 = 0 then 0. else 0.3) in
    let kills revs = Array.map (fun (r : Mortality.revocation) -> r.Mortality.kill) revs in
    let all_kills =
      kills
        (Mortality.draw_revocations (Rng.create seed) ~rates ~grace:1.
           ~max_revocations:processors)
    in
    for keep = 0 to processors do
      let drawn =
        Mortality.draw (Rng.create seed) ~processors ~lambda_death:0.3 ~max_losses:keep
      in
      if drawn <> reference_censor uncensored keep then
        Alcotest.failf "draw: seed %d, %d processors, %d losses" seed processors keep;
      let revoked =
        kills
          (Mortality.draw_revocations (Rng.create seed) ~rates ~grace:1.
             ~max_revocations:keep)
      in
      if revoked <> reference_censor all_kills keep then
        Alcotest.failf "draw_revocations: seed %d, %d processors, %d revocations" seed
          processors keep
    done
  done

let test_censor_ties () =
  let rng = Rng.create 11 in
  for case = 0 to 199 do
    let n = 1 + Rng.int rng 40 in
    (* few distinct values, so ties are common *)
    let instants =
      Array.init n (fun _ ->
          match Rng.int rng 6 with 0 -> infinity | k -> float_of_int k)
    in
    for keep = 0 to n + 1 do
      let censored = Array.copy instants in
      Mortality.censor censored ~keep;
      if censored <> reference_censor instants keep then
        Alcotest.failf "case %d: %d instants, keep %d" case n keep
    done
  done;
  let ties = [| 1.; 1.; 0.5; 1. |] in
  Mortality.censor ties ~keep:2;
  Alcotest.(check (array (float 0.))) "a tie goes to the lower id" [| 1.; infinity; 0.5; infinity |]
    ties

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

(* --- The pruning law: a strict residual's tree is the setup's, pruned --- *)

let rec least_id = function
  | Mspg.Leaf t -> t
  | Mspg.Serial l | Mspg.Parallel l ->
      List.fold_left (fun acc c -> min acc (least_id c)) max_int l

(* The reference prune: drop the leaves without a new id, rename the
   rest, collapse singleton compositions, and order every parallel
   composition's children by least id *)
let rec reference_prune new_id = function
  | Mspg.Leaf t -> if new_id.(t) < 0 then None else Some (Mspg.leaf new_id.(t))
  | Mspg.Serial l -> (
      match List.filter_map (reference_prune new_id) l with
      | [] -> None
      | l -> Some (Mspg.serial l))
  | Mspg.Parallel l -> (
      match List.filter_map (reference_prune new_id) l with
      | [] -> None
      | l -> (
          match Mspg.parallel l with
          | Mspg.Parallel cs ->
              Some
                (Mspg.Parallel (List.sort (fun a b -> compare (least_id a) (least_id b)) cs))
          | t -> Some t))

let recognised dag =
  match Recognize.of_dag_completed dag with
  | Ok (m, dummies) -> (m.Mspg.tree, dummies)
  | Error msg -> Alcotest.failf "%s not recognised: %s" (Dag.name dag) msg

(* Recognising the residual of [done_] gives the setup tree pruned by
   the reference, with no dummy dependency *)
let law_holds dag tree done_ =
  let residual, task_of = Residual.build ~dag ~done_ in
  let new_id = Array.make (Dag.n_tasks dag) (-1) in
  Array.iteri (fun nid oid -> new_id.(oid) <- nid) task_of;
  match (Recognize.of_dag_completed residual, reference_prune new_id tree) with
  | Ok (m, 0), Some pruned -> m.Mspg.tree = pruned
  | _ -> false

(* A random predecessor-closed done set: a prefix of a random
   topological order, never the whole workflow *)
let closed_done_set rng dag =
  let n = Dag.n_tasks dag in
  let order = Dag.topological_sort ~rng dag in
  let done_ = Array.make n false in
  for k = 0 to Rng.int rng n - 1 do
    done_.(order.(k)) <- true
  done;
  done_

let test_law_on_strict_workflows () =
  List.iter
    (fun (kind, tasks) ->
      let dag = Spec.generate kind ~seed:3 ~tasks () in
      let tree, dummies = recognised dag in
      Alcotest.(check int) (Dag.name dag ^ " is strict") 0 dummies;
      let rng = Rng.create (17 + tasks) in
      for i = 1 to 30 do
        if not (law_holds dag tree (closed_done_set rng dag)) then
          Alcotest.failf "%s: done set %d breaks the law" (Dag.name dag) i
      done)
    [
      (Spec.Genome, 50); (Spec.Genome, 300); (Spec.Cybershake, 50); (Spec.Cybershake, 300);
      (Spec.Sipht, 50); (Spec.Sipht, 300);
    ]

let qcheck_law_on_random_mspgs =
  QCheck.Test.make ~count:60 ~name:"residual law on random M-SPGs"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let dag = (Random_wf.generate ~seed ~max_tasks:60 ()).Mspg.dag in
      let tree, dummies = recognised dag in
      let rng = Rng.create seed in
      dummies = 0
      && List.for_all
           (fun _ -> law_holds dag tree (closed_done_set rng dag))
           (List.init 10 Fun.id))

(* s -> (a1 -> a2 || b1 -> b2) -> t, numbered s=0 a1=1 b1=2 b2=3 a2=4
   t=5: once s and a1 are done, branch a's least id (a2, now 2)
   follows branch b's (b1, now 0), so the pruned parallel composition
   must be re-sorted *)
let resort_dag () =
  let d = Dag.create ~name:"resort" () in
  let task name = Dag.add_task d ~name ~weight:1. in
  let s = task "s" and a1 = task "a1" and b1 = task "b1" in
  let b2 = task "b2" and a2 = task "a2" and t = task "t" in
  List.iter
    (fun (u, v) -> Dag.add_edge d u v 1.)
    [ (s, a1); (s, b1); (a1, a2); (b1, b2); (a2, t); (b2, t) ];
  d

let test_law_resorts_branches () =
  let dag = resort_dag () in
  let tree, _ = recognised dag in
  let leaf = Mspg.leaf in
  Alcotest.(check bool) "setup tree" true
    (tree
    = Mspg.Serial
        [ leaf 0; Mspg.Parallel [ Mspg.Serial [ leaf 1; leaf 4 ]; Mspg.Serial [ leaf 2; leaf 3 ] ];
          leaf 5 ]);
  let done_ = [| true; true; false; false; false; false |] in
  let residual, _ = Residual.build ~dag ~done_ in
  let rtree, _ = recognised residual in
  Alcotest.(check bool) "branch b leads the residual" true
    (rtree = Mspg.Serial [ Mspg.Parallel [ Mspg.Serial [ leaf 0; leaf 1 ]; leaf 2 ]; leaf 3 ]);
  Alcotest.(check bool) "the law holds" true (law_holds dag tree done_)

let test_law_preconditions () =
  (* a completed workflow: the residual of a completed cut is completed
     its own way *)
  let montage = Spec.generate Spec.Montage ~seed:3 ~tasks:50 () in
  let tree, dummies = recognised montage in
  Alcotest.(check bool) "MONTAGE needs completion" true (dummies > 0);
  let rng = Rng.create 5 in
  let broken = ref 0 in
  for _ = 1 to 30 do
    if not (law_holds montage tree (closed_done_set rng montage)) then incr broken
  done;
  Alcotest.(check bool) "a MONTAGE n=50 done set breaks the law" true (!broken > 0);
  (* a done set that is not predecessor-closed: a middle serial factor
     done, its neighbours not *)
  let genome = Spec.generate Spec.Genome ~seed:3 ~tasks:50 () in
  let tree, _ = recognised genome in
  let rng = Rng.create 6 in
  let broken = ref 0 in
  for _ = 1 to 30 do
    let done_ = Array.init (Dag.n_tasks genome) (fun _ -> Rng.uniform rng < 0.3) in
    if Array.exists not done_ && not (law_holds genome tree done_) then incr broken
  done;
  Alcotest.(check bool) "an open GENOME done set breaks the law" true (!broken > 0)

(* --- Repair: the pruned and the recognised residual agree --- *)

(* [Repair.replan] as it was before pruning: recognise every residual
   (the test plans run on homogeneous, unpriced platforms) *)
let reference_replan ~kind ~done_ ~survivors (plan : Strategy.plan) =
  let residual, _ = Residual.build ~dag:plan.Strategy.raw_dag ~done_ in
  match Recognize.of_dag_completed residual with
  | Error msg -> Error msg
  | Ok (mspg, dummies) ->
      let phys = Array.of_list survivors in
      let platform = plan.Strategy.platform in
      let sub =
        Platform.make_heterogeneous
          ~rates:(Array.map (Platform.rate_of platform) phys)
          ~bandwidth:platform.Platform.bandwidth ()
      in
      let schedule = Allocate.run mspg ~processors:(Array.length phys) in
      Ok (Strategy.plan kind ~raw:residual ~schedule ~platform:sub, dummies)

let same_replan what ~done_ ~survivors plan =
  match
    ( Repair.replan ~kind:Strategy.Ckpt_some ~done_ ~survivors plan,
      reference_replan ~kind:Strategy.Ckpt_some ~done_ ~survivors plan )
  with
  | Ok r, Ok (p, dummies) ->
      let tree (q : Strategy.plan) = q.Strategy.schedule.Schedule.tree in
      if tree r.Repair.plan <> tree p then
        Alcotest.failf "%s: residual trees differ: %s vs %s" what
          (Format.asprintf "%a" Mspg.pp_tree (tree r.Repair.plan))
          (Format.asprintf "%a" Mspg.pp_tree (tree p));
      Alcotest.(check int) (what ^ ": dummies") dummies r.Repair.dummy_edges;
      Alcotest.(check int) (what ^ ": checkpoints") p.Strategy.checkpoint_count
        r.Repair.plan.Strategy.checkpoint_count;
      Alcotest.(check (float 0.)) (what ^ ": expected makespan")
        (Strategy.expected_makespan p) (Strategy.expected_makespan r.Repair.plan)
  | Error _, Error _ -> ()
  | Ok _, Error msg -> Alcotest.failf "%s: only the reference failed: %s" what msg
  | Error msg, Ok _ -> Alcotest.failf "%s: only the repair failed: %s" what msg

let test_repair_paths_agree () =
  let plan_of dag processors =
    Pipeline.plan
      (Pipeline.prepare ~dag ~processors ~pfail:0.001 ~ccr:0.1 ())
      Strategy.Ckpt_some
  in
  let rng = Rng.create 23 in
  let survivors processors =
    match List.filter (fun _ -> Rng.bool rng) (List.init processors Fun.id) with
    | [] -> [ 0 ]
    | l -> l
  in
  (* strict workflows (pruned) and completed ones (recognised), over
     closed done sets; open done sets (recognised) *)
  List.iter
    (fun kind ->
      let dag = Spec.generate kind ~seed:4 ~tasks:50 () in
      let plan = plan_of dag 5 in
      for i = 1 to 12 do
        same_replan
          (Printf.sprintf "%s closed %d" (Dag.name dag) i)
          ~done_:(closed_done_set rng dag) ~survivors:(survivors 5) plan;
        let open_ = Array.init (Dag.n_tasks dag) (fun _ -> Rng.uniform rng < 0.3) in
        if Array.exists not open_ then
          same_replan
            (Printf.sprintf "%s open %d" (Dag.name dag) i)
            ~done_:open_ ~survivors:(survivors 5) plan
      done)
    [ Spec.Genome; Spec.Cybershake; Spec.Sipht; Spec.Montage; Spec.Ligo ];
  (* a pruned parallel composition whose branches change order *)
  same_replan "re-sorted branches" ~done_:[| true; true; false; false; false; false |]
    ~survivors:[ 0; 1 ] (plan_of (resort_dag ()) 2);
  (* a GSPG: its tree leaves the transitive edge s -> t out of its
     cuts, so recognition, not the tree, decides the residual *)
  let gspg = Dag.create ~name:"gspg" () in
  let s = Dag.add_task gspg ~name:"s" ~weight:1. in
  let m = Dag.add_task gspg ~name:"m" ~weight:1. in
  let t = Dag.add_task gspg ~name:"t" ~weight:1. in
  List.iter (fun (u, v) -> Dag.add_edge gspg u v 1.) [ (s, m); (m, t); (s, t) ];
  same_replan "GSPG" ~done_:[| false; false; false |] ~survivors:[ 0; 1 ] (plan_of gspg 2)

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
       Repair.replan ~kind:Strategy.Ckpt_some
         ~done_:(Array.make (Dag.n_tasks plan.Strategy.raw_dag) false)
         ~survivors:[] plan
     with
    | Error _ -> true
    | Ok _ -> false)

let test_repair_full_restart_plannable () =
  (* done_ = nothing: the "restart from scratch on survivors" fallback *)
  let plan = genome_plan () in
  let raw = plan.Strategy.raw_dag in
  match
    Repair.replan ~kind:Strategy.Ckpt_some
      ~done_:(Array.make (Dag.n_tasks raw) false)
      ~survivors:[ 0; 2; 4 ] plan
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
          Repair.replan ~kind:Strategy.Ckpt_some ~done_ ~survivors plan
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
    Alcotest.test_case "censoring = sorted reference" `Quick test_mortality_censoring_reference;
    Alcotest.test_case "censor breaks ties by id" `Quick test_censor_ties;
    Alcotest.test_case "residual keeps not-done" `Quick test_residual_keeps_not_done;
    Alcotest.test_case "residual keeps initial inputs" `Quick test_residual_keeps_initial_inputs;
    Alcotest.test_case "residual rejects all-done" `Quick test_residual_rejects_all_done;
    Alcotest.test_case "residual law: strict workflows" `Quick test_law_on_strict_workflows;
    QCheck_alcotest.to_alcotest qcheck_law_on_random_mspgs;
    Alcotest.test_case "residual law: re-sorted branches" `Quick test_law_resorts_branches;
    Alcotest.test_case "residual law: preconditions" `Quick test_law_preconditions;
    Alcotest.test_case "repair: pruned = recognised" `Quick test_repair_paths_agree;
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
