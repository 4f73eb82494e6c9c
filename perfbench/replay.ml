(* The traced run: the same operations the untraced run sends to
   ckptwf, issued in-process through the same public library calls the
   commands make, with one span per call. Layers that run inside
   another layer's public function are split off by probes (see
   {!Perfbench.Trace}): recognition and ALLOCATE inside
   [Pipeline.prepare], the Algorithm-2 table and DP inside
   [Strategy.plan], the engine inside a disk-store sample.

   Every replay renders the figures its command prints, so the harness
   can check that the traced computation is the one ckptwf ran. *)

module T = Perfbench.Trace
module Ops = Perfbench.Ops
module Proc = Perfbench.Proc
module Dag = Ckpt_dag.Dag
module Spec = Ckpt_workflows.Spec
module Recognize = Ckpt_mspg.Recognize
module Platform = Ckpt_platform.Platform
module Allocate = Ckpt_core.Allocate
module Schedule = Ckpt_core.Schedule
module Superchain = Ckpt_core.Superchain
module Placement = Ckpt_core.Placement
module Toueg = Ckpt_core.Toueg
module Strategy = Ckpt_core.Strategy
module Pipeline = Ckpt_core.Pipeline
module Service = Ckpt_core.Service
module Prob_dag = Ckpt_eval.Prob_dag
module Runner = Ckpt_sim.Runner
module Degrade = Ckpt_sim.Degrade
module Cloud = Ckpt_sim.Cloud
module Store = Ckpt_storage.Store
module Storage = Ckpt_storage.Storage

type state = {
  tr : T.t;
  work : string;  (* scratch directory for store files *)
  mutable sample_plan : Strategy.plan option;  (* first CKPTSOME plan built *)
}

let create ~work = { tr = T.create (); work; sample_plan = None }

let overhead st f = T.probe st.tr ~parent:(-1) "trace.overhead" f

let generate st wf ~seed ~tasks =
  T.span st.tr "workflows.generate" (fun () ->
      let kind = match Spec.of_name wf with Some k -> k | None -> invalid_arg wf in
      let dag = Spec.generate kind ~seed ~tasks () in
      match Dag.validate dag with
      | Ok () -> dag
      | Error _ -> failwith ("generated workflow failed validation: " ^ Dag.name dag))

let prepare st ?platform ~dag ~processors ~pfail ~ccr () =
  let setup, id =
    T.span_id st.tr "pipeline.prepare" (fun () ->
        Pipeline.prepare ?platform ~dag ~processors ~pfail ~ccr ())
  in
  T.probe st.tr ~parent:id "mspg.recognize" (fun () ->
      match Recognize.of_dag_completed dag with
      | Ok (_, dummies) -> T.count st.tr "mspg.dummy_edges" (float_of_int dummies)
      | Error _ -> ());
  T.count st.tr "mspg.calls" 1.;
  let schedule =
    T.probe st.tr ~parent:id "allocate" (fun () -> Allocate.run setup.Pipeline.mspg ~processors)
  in
  Array.iter
    (fun sc -> T.maximum st.tr "allocate.max_chain_len" (float_of_int (Superchain.n_tasks sc)))
    schedule.Schedule.superchains;
  T.count st.tr "allocate.superchains" (float_of_int (Array.length schedule.Schedule.superchains));
  setup

(* Algorithm 2 on one superchain, split into the cost table and the DP:
   the whole placement call is re-issued, then the DP alone on the same
   table built by the reference [Placement.cost_matrix] *)
let placement_probe st ~parent ~arena ~replicas platform dag sc =
  let _, pid =
    T.probe_id st.tr ~parent "placement" (fun () ->
        Placement.optimal_positions ~arena ~replicas platform dag sc)
  in
  let n = Superchain.n_tasks sc in
  let tri, monge =
    overhead st (fun () ->
        let m = Placement.cost_matrix ~replicas platform dag sc in
        let tri = Array.make (Toueg.tri_size n) 0. in
        for j = 0 to n - 1 do
          for i = 0 to j do
            tri.((j * (j + 1) / 2) + i) <- m.(j).(i)
          done
        done;
        (tri, n >= Toueg.monotone_cutoff && Toueg.tri_is_monge ~n ~tri))
  in
  let etime = Array.make n 0. and last_ckpt = Array.make n 0 in
  let start_ns = Proc.now_ns () in
  ignore (Toueg.solve_packed_auto ~n ~tri ~etime ~last_ckpt);
  let stop_ns = Proc.now_ns () in
  ignore (T.record st.tr ~parent:pid ~name:"toueg" ~start_ns ~stop_ns ~probe:true);
  T.count st.tr "placement.cells" (float_of_int (Toueg.tri_size n));
  T.count st.tr (if monge then "toueg.chains_monotone" else "toueg.chains_packed") 1.

let plan st ?(replicas = 1) setup kind =
  let plan, id =
    T.span_id st.tr "strategy.plan" (fun () -> Pipeline.plan ~replicas setup kind)
  in
  overhead st (fun () ->
      match plan.Strategy.prob_dag with
      | None -> ()
      | Some pd ->
          let nodes = Prob_dag.n_nodes pd in
          let edges = ref 0 in
          for v = 0 to nodes - 1 do
            edges := !edges + List.length (Prob_dag.succs pd v)
          done;
          T.count st.tr "strategy.prob_dag_nodes" (float_of_int nodes);
          T.count st.tr "strategy.prob_dag_edges" (float_of_int !edges));
  if kind = Strategy.Ckpt_some then begin
    T.count st.tr "placement.plans" 1.;
    let schedule = setup.Pipeline.schedule in
    let dag = schedule.Schedule.dag in
    let arena = overhead st (fun () -> Placement.arena dag) in
    Array.iter
      (placement_probe st ~parent:id ~arena ~replicas setup.Pipeline.platform dag)
      schedule.Schedule.superchains;
    if st.sample_plan = None then st.sample_plan <- Some plan
  end;
  plan

let eval st plan = T.span st.tr "eval.pathapprox" (fun () -> Strategy.expected_makespan plan)

(* --- sweep: the CSV rows `ckptwf sweep --csv` prints ---------------- *)

let sweep st (s : Ops.sweep) =
  T.span st.tr "cli.sweep" (fun () ->
      let dag = generate st s.Ops.wf ~seed:s.Ops.seed ~tasks:s.Ops.n in
      List.map
        (fun ccr ->
          T.span st.tr "sweep.cell" (fun () ->
              let setup =
                prepare st ~dag ~processors:s.Ops.p ~pfail:s.Ops.pfail ~ccr ()
              in
              let some = plan st setup Strategy.Ckpt_some in
              let all = plan st setup Strategy.Ckpt_all in
              let none = plan st setup Strategy.Ckpt_none in
              let em_some = eval st some and em_all = eval st all and em_none = eval st none in
              Printf.sprintf "%s,%d,%d,%g,%g,%.4f,%.4f,%.4f,%.4f,%.4f,%d" (Dag.name dag)
                (Dag.n_tasks dag) s.Ops.p s.Ops.pfail ccr em_some em_all em_none
                (em_all /. em_some) (em_none /. em_some) some.Strategy.checkpoint_count))
        (Ops.ccrs s.Ops.wf))

(* --- serve: a planning service answering the same requests ---------- *)

type service = {
  svc : Service.t;
  degraded : (string, Degrade.prepared) Hashtbl.t;
}

let service () = { svc = Service.create (); degraded = Hashtbl.create 4 }

let degrade_trials st ~trials ~seed config prepared mode =
  T.count st.tr "degrade.trials" (float_of_int trials);
  T.span st.tr "degrade.trials" (fun () ->
      Degrade.summarize (Degrade.sample_prepared ~trials ~seed ~jobs:1 ~mode config prepared))

let note_replan_cache st layer (hits, misses) =
  T.count st.tr (layer ^ ".replan_hits") (float_of_int hits);
  T.count st.tr (layer ^ ".replan_misses") (float_of_int misses)

(* the figures of one answer: expected makespan and checkpoint count of
   a plan, or the repair/restart makespans of a degrade request *)
let request st sv req =
  T.span st.tr "serve.request" (fun () ->
      let n, p, seed =
        match req with
        | Ops.Plan { n; p; seed; _ } | Ops.Degrade { n; p; seed; _ } -> (n, p, seed)
      in
      let key = Printf.sprintf "genome|%d|%d|%d" n seed p in
      let setup =
        T.span st.tr "service.setup" (fun () ->
            Service.setup sv.svc ~key (fun () ->
                let dag = generate st "genome" ~seed ~tasks:n in
                prepare st ~dag ~processors:p ~pfail:0.001 ~ccr:0.01 ()))
      in
      let plan =
        match T.span st.tr "service.lookup" (fun () -> Service.find_plan sv.svc ~key) with
        | Some plan -> plan
        | None -> Service.store_plan sv.svc ~key (plan st setup Strategy.Ckpt_some)
      in
      match req with
      | Ops.Plan _ ->
          Printf.sprintf "%.2f/%d" (eval st plan) plan.Strategy.checkpoint_count
      | Ops.Degrade { seed; pdeath; trials; _ } ->
          let prepared =
            match Hashtbl.find_opt sv.degraded key with
            | Some d -> d
            | None ->
                let d = T.span st.tr "degrade.prepare" (fun () -> Degrade.prepare plan) in
                Hashtbl.add sv.degraded key d;
                d
          in
          let config =
            {
              Degrade.lambda_death =
                Platform.lambda_of_pfail ~pfail:pdeath ~mean_weight:plan.Strategy.wpar;
              max_losses = 1;
              kind = Strategy.Ckpt_some;
              store = Store.default;
            }
          in
          let repair = degrade_trials st ~trials ~seed config prepared Degrade.Repair in
          let restart = degrade_trials st ~trials ~seed config prepared Degrade.Restart in
          Printf.sprintf "%.4f/%.4f" repair.Degrade.mean_makespan restart.Degrade.mean_makespan)

let finish_service st sv =
  Hashtbl.iter (fun _ d -> note_replan_cache st "degrade" (Degrade.cache_stats d)) sv.degraded

(* --- resilience: the commands' stdout figures ----------------------- *)

let simulate st ~seed ~trials =
  T.span st.tr "cli.simulate" (fun () ->
      let dag = generate st "genome" ~seed ~tasks:1000 in
      let setup = prepare st ~dag ~processors:61 ~pfail:0.001 ~ccr:0.01 () in
      let plans =
        List.map (fun kind -> (kind, plan st setup kind))
          [ Strategy.Ckpt_some; Strategy.Ckpt_all; Strategy.Ckpt_none ]
      in
      List.map
        (fun (kind, p) ->
          let est = eval st p in
          T.count st.tr "sim.trials" (float_of_int trials);
          let stats = T.span st.tr "sim.trials" (fun () -> Runner.simulate ~trials ~jobs:1 p) in
          Printf.sprintf "  %-10s estimate %10.2f | simulated %10.2f +- %.2f (min %.2f max %.2f)"
            (Strategy.kind_name kind) est (Ckpt_prob.Stats.mean stats)
            (Ckpt_prob.Stats.ci95_halfwidth stats) (Ckpt_prob.Stats.min stats)
            (Ckpt_prob.Stats.max stats))
        plans)

let default_pdeaths = [ 0.01; 0.05; 0.1; 0.2; 0.5 ]

let degrade st ~seed ~trials =
  T.span st.tr "cli.degrade" (fun () ->
      let dag = generate st "genome" ~seed ~tasks:300 in
      let setup = prepare st ~dag ~processors:35 ~pfail:0.001 ~ccr:0.01 () in
      let p = plan st setup Strategy.Ckpt_some in
      List.map
        (fun pdeath ->
          let config =
            {
              Degrade.lambda_death =
                Platform.lambda_of_pfail ~pfail:pdeath ~mean_weight:p.Strategy.wpar;
              max_losses = 1;
              kind = Strategy.Ckpt_some;
              store = Store.default;
            }
          in
          let prepared = T.span st.tr "degrade.prepare" (fun () -> Degrade.prepare p) in
          let repair = degrade_trials st ~trials ~seed config prepared Degrade.Repair in
          let restart = degrade_trials st ~trials ~seed config prepared Degrade.Restart in
          note_replan_cache st "degrade" (Degrade.cache_stats prepared);
          Printf.sprintf "%s,%d,%d,%s,%d,%d,%g,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%d,%d"
            (Dag.name dag) (Dag.n_tasks dag) 35 (Strategy.kind_name Strategy.Ckpt_some) 1 trials
            pdeath repair.Degrade.mean_makespan restart.Degrade.mean_makespan
            (restart.Degrade.mean_makespan /. repair.Degrade.mean_makespan)
            repair.Degrade.mean_losses repair.Degrade.mean_replans repair.Degrade.mean_restarts
            repair.Degrade.stranded restart.Degrade.stranded)
        default_pdeaths)

(* `ckptwf cloud` defaults: two revocation rates, two grace windows, an
   all-on-demand and a half-spot platform (30% price, full speed) *)
let cloud st ~seed ~trials =
  T.span st.tr "cli.cloud" (fun () ->
      let processors = 35 and pfail = 0.001 and ccr = 0.01 in
      let dag = generate st "genome" ~seed ~tasks:300 in
      let mean_weight = Dag.total_weight dag /. float_of_int (Dag.n_tasks dag) in
      let lambda = Platform.lambda_of_pfail ~pfail ~mean_weight in
      let bandwidth =
        Platform.bandwidth_for_ccr ~ccr ~total_data:(Dag.total_data dag)
          ~total_weight:(Dag.total_weight dag)
      in
      let platform_for sf =
        let nspot = int_of_float (Float.round (sf *. float_of_int processors)) in
        let prices =
          Array.init processors (fun q -> if q >= processors - nspot then 0.3 else 1.)
        in
        Platform.make_heterogeneous ~prices ~rates:(Array.make processors lambda) ~bandwidth ()
      in
      let prepared = Hashtbl.create 2 in
      let prepared_for sf =
        match Hashtbl.find_opt prepared sf with
        | Some v -> v
        | None ->
            let setup =
              prepare st ~platform:(platform_for sf) ~dag ~processors ~pfail ~ccr ()
            in
            let p = plan st setup Strategy.Ckpt_some in
            let v = (p, T.span st.tr "cloud.prepare" (fun () -> Cloud.prepare p)) in
            Hashtbl.add prepared sf v;
            v
      in
      let rows =
        List.concat_map
          (fun prevoke ->
            List.concat_map
              (fun grace ->
                List.map
                  (fun sf ->
                    let p, prep = prepared_for sf in
                    let config =
                      {
                        Cloud.lambda_revoke =
                          Platform.lambda_of_pfail ~pfail:prevoke ~mean_weight:p.Strategy.wpar;
                        grace;
                        max_revocations = 1;
                        kind = Strategy.Ckpt_some;
                        store = Store.default;
                      }
                    in
                    let summary mode =
                      T.count st.tr "cloud.trials" (float_of_int trials);
                      T.span st.tr "cloud.trials" (fun () ->
                          Cloud.summarize
                            (Cloud.sample_prepared ~trials ~seed ~jobs:1 ~mode config prep))
                    in
                    let ck = summary Cloud.Checkpoint in
                    let repl = summary Cloud.Replicate in
                    Printf.sprintf
                      "%s,%d,%d,%s,%d,%g,%g,%g,%g,%g,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%d,%d"
                      (Dag.name dag) (Dag.n_tasks dag) processors
                      (Strategy.kind_name Strategy.Ckpt_some) trials prevoke grace sf 0.3 1.
                      ck.Cloud.mean_makespan repl.Cloud.mean_makespan ck.Cloud.mean_dollar_cost
                      repl.Cloud.mean_dollar_cost ck.Cloud.mean_work_lost
                      repl.Cloud.mean_work_lost ck.Cloud.mean_rescues
                      ck.Cloud.mean_rescued_tasks ck.Cloud.mean_revocations
                      ck.Cloud.mean_replans ck.Cloud.stranded repl.Cloud.stranded)
                  [ 0.; 0.5 ])
              [ 0.; 10. ])
          [ 0.05; 0.2 ]
      in
      Hashtbl.iter (fun _ (_, prep) -> note_replan_cache st "cloud" (Cloud.cache_stats prep)) prepared;
      rows)

(* One storm sample through a disk store. The store's share is split off
   by re-issuing the sample against a memory store with the same fault
   physics, which simulates the same trials without the file I/O. *)
let store_sample st ~layer ~trials ~seed ~persist ~scope ~faults ~path plan =
  let disk = { Store.backend = Store.Disk { path }; policy = Store.Every_segment; faults } in
  let sample, id =
    T.span_id st.tr layer (fun () ->
        Runner.sample_storage ~trials ~seed ~jobs:1 ~persist ~scope ~store:disk plan)
  in
  T.probe st.tr ~parent:id "sim.storage_trials" (fun () ->
      ignore
        (Runner.sample_storage ~trials ~seed ~jobs:1 ~scope
           ~store:{ disk with Store.backend = Store.Memory }
           plan));
  sample

(* opening is part of the store layer's cost: a resumed store loads and
   validates its records here, not during the samples *)
let open_store st ~layer ~path plans =
  let fingerprint = Store.fingerprint (List.map Runner.plan_signature plans) in
  T.span st.tr layer (fun () ->
      match Store.open_persist ~path ~fingerprint () with
      | Ok p -> p
      | Error e -> failwith (Ckpt_resilience.Error.to_string e))

let store_layer ~resume = if resume then "store.resume" else "store.commit"

let note_persist st ~resume persist =
  let n f = float_of_int (f persist) in
  T.count st.tr "store.rejected" (n Store.persist_rejected);
  if resume then begin
    T.count st.tr "store.resumed" (n Store.persist_resumed);
    T.count st.tr "store.resume_records" (n Store.persist_resumed +. n Store.persist_appended)
  end
  else T.count st.tr "store.appended" (n Store.persist_appended)

(* `ckptwf storm --store disk`: replicas 1-3 x five corruption
   probabilities; [resume] marks the second run over the same file *)
let storm st ~seed ~trials ~path ~resume =
  let layer = store_layer ~resume in
  T.span st.tr (if resume then "cli.storm_resume" else "cli.storm_fresh") (fun () ->
      let dag = generate st "genome" ~seed ~tasks:300 in
      let setup = prepare st ~dag ~processors:35 ~pfail:0.001 ~ccr:0.01 () in
      let plans = List.map (fun k -> (k, plan st ~replicas:k setup Strategy.Ckpt_some)) [ 1; 2; 3 ] in
      let persist = open_store st ~layer ~path (List.map snd plans) in
      let rows =
        List.concat_map
          (fun (k, p) ->
            List.map
              (fun cp ->
                let faults = { Storage.default with Storage.corrupt_prob = cp; replicas = k } in
                let sample =
                  store_sample st ~layer ~trials ~seed ~persist
                    ~scope:(Printf.sprintf "k%d,cp%.17g" k cp)
                    ~faults ~path p
                in
                let n = float_of_int (Array.length sample) in
                let mean f = Array.fold_left (fun acc t -> acc +. f t) 0. sample /. n in
                Printf.sprintf "%s,%d,%d,%s,%d,%g,%g,%g,%d,%.4f,%.4f,%.4f,%.4f,%d" (Dag.name dag)
                  (Dag.n_tasks dag) 35 (Strategy.kind_name Strategy.Ckpt_some) k 0. cp 0. trials
                  (mean (fun t -> t.Runner.makespan))
                  (mean (fun t -> float_of_int t.Runner.commit_retries))
                  (mean (fun t -> float_of_int t.Runner.corrupt_reads))
                  (mean (fun t -> float_of_int t.Runner.rollbacks))
                  p.Strategy.checkpoint_count)
              [ 0.; 0.02; 0.05; 0.1; 0.2 ])
          plans
      in
      note_persist st ~resume persist;
      rows)

let command st ~store = function
  | Ops.Simulate { seed; trials } -> simulate st ~seed ~trials
  | Ops.Degrade_sweep { seed; trials } -> degrade st ~seed ~trials
  | Ops.Cloud_sweep { seed; trials } -> cloud st ~seed ~trials
  | Ops.Storm { seed; trials; resume } -> storm st ~seed ~trials ~path:store ~resume

(* --- layers the workload does not reach ----------------------------- *)

(* Every per-layer metric is reported for every workload. A layer the
   workload's commands never call is sampled once on the first CKPTSOME
   plan the replay built, under an "offpath" root span, so its unit cost
   is measured on this workload's inputs without entering the workload's
   own breakdown. *)
let offpath st =
  match st.sample_plan with
  | None -> ()
  | Some p -> (
      let samplers =
        [
          ( "sim.trials",
            fun () ->
              T.count st.tr "sim.trials" 200.;
              ignore (T.span st.tr "sim.trials" (fun () -> Runner.simulate ~trials:200 ~jobs:1 p)) );
          ( "degrade.trials",
            fun () ->
              let config =
                {
                  Degrade.lambda_death =
                    Platform.lambda_of_pfail ~pfail:0.1 ~mean_weight:p.Strategy.wpar;
                  max_losses = 1;
                  kind = Strategy.Ckpt_some;
                  store = Store.default;
                }
              in
              let prepared = T.span st.tr "degrade.prepare" (fun () -> Degrade.prepare p) in
              ignore (degrade_trials st ~trials:20 ~seed:1 config prepared Degrade.Repair);
              note_replan_cache st "degrade" (Degrade.cache_stats prepared) );
          ( "cloud.trials",
            fun () ->
              let config =
                {
                  Cloud.lambda_revoke =
                    Platform.lambda_of_pfail ~pfail:0.2 ~mean_weight:p.Strategy.wpar;
                  grace = 10.;
                  max_revocations = 1;
                  kind = Strategy.Ckpt_some;
                  store = Store.default;
                }
              in
              let prep = T.span st.tr "cloud.prepare" (fun () -> Cloud.prepare p) in
              T.count st.tr "cloud.trials" 20.;
              ignore
                (T.span st.tr "cloud.trials" (fun () ->
                     Cloud.sample_prepared ~trials:20 ~seed:1 ~jobs:1 ~mode:Cloud.Checkpoint config
                       prep));
              note_replan_cache st "cloud" (Cloud.cache_stats prep) );
          ( "store.commit",
            fun () ->
              let path = Filename.concat st.work "offpath.store" in
              (try Sys.remove path with Sys_error _ -> ());
              List.iter
                (fun resume ->
                  let layer = store_layer ~resume in
                  let persist = open_store st ~layer ~path [ p ] in
                  ignore
                    (store_sample st ~layer ~trials:4 ~seed:1 ~persist ~scope:"offpath"
                       ~faults:Storage.default ~path p);
                  note_persist st ~resume persist)
                [ false; true ];
              Sys.remove path );
        ]
      in
      let seen name = List.exists (fun s -> s.T.name = name) (T.spans st.tr) in
      match List.filter (fun (layer, _) -> not (seen layer)) samplers with
      | [] -> ()
      | missing -> T.span st.tr "offpath" (fun () -> List.iter (fun (_, sample) -> sample ()) missing))
