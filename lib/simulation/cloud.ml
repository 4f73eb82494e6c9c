module Strategy = Ckpt_core.Strategy
module Schedule = Ckpt_core.Schedule
module Superchain = Ckpt_core.Superchain
module Placement = Ckpt_core.Placement
module Platform = Ckpt_platform.Platform
module Rng = Ckpt_prob.Rng
module Mortality = Ckpt_recovery.Mortality
module Repair = Ckpt_recovery.Repair
module Dag = Ckpt_dag.Dag
module Store = Ckpt_storage.Store

type mode = Checkpoint | Replicate

let mode_name = function Checkpoint -> "ckpt" | Replicate -> "replicate"

type config = {
  lambda_revoke : float;
  grace : float;
  max_revocations : int;
  kind : Strategy.kind;
  store : Store.config;
}

type trial = {
  makespan : float;
  revocations : int;
  rescues : int;
  rescued_tasks : int;
  replans : int;
  restarts : int;
  work_lost : float;
  dollar_cost : float;
}

(* Warning-rescue metadata: per segment, the recovery-read span, each
   task's speed-scaled compute span, and the write span of a partial
   checkpoint covering the first k tasks (a [segment_of] cut at task
   k, so files consumed by the segment's own tail count as escaping —
   the tail re-executes elsewhere after the eviction). *)
let rescue_of_plan (plan : Strategy.plan) =
  (* the raw workflow's files, as the plan's own segment costs: the
     completion edges carry no data *)
  let dag = plan.Strategy.raw_dag in
  let platform = plan.Strategy.platform in
  let replicas = plan.Strategy.replicas in
  Array.map
    (fun (seg : Placement.segment) ->
      let sc = plan.Strategy.schedule.Schedule.superchains.(seg.Placement.chain) in
      let speed =
        if Platform.uniform_speed platform then 1.
        else Platform.speed_of platform sc.Superchain.processor
      in
      let len = seg.Placement.last - seg.Placement.first + 1 in
      let task_durs =
        Array.init len (fun k ->
            Dag.weight dag (Superchain.task_at sc (seg.Placement.first + k)) /. speed)
      in
      let partial_writes =
        Array.init len (fun k ->
            (Placement.segment_of ~replicas platform dag sc ~first:seg.Placement.first
               ~last:(seg.Placement.first + k))
              .Placement.write)
      in
      { Engine.rread = seg.Placement.read; task_durs; partial_writes })
    plan.Strategy.segments

type replica = { rsegs : Engine.seg array; rwrites : float array }

type prepared = {
  base : Replan.prepared;
  replicas : replica list;
      (* the Setlur-style baseline: the platform split into interleaved
         halves, each running the whole workflow with minimal
         checkpoints (superchain ends only), restart-only *)
}

(* Minimal checkpointing for the replication baseline: a period beyond
   any superchain length places one checkpoint per superchain, at its
   end. *)
let minimal_kind = Strategy.Ckpt_every 1_000_000

let replica_of_half (plan : Strategy.plan) half =
  let raw = plan.Strategy.raw_dag in
  let done_ = Array.make (Dag.n_tasks raw) false in
  match
    Repair.replan ~replicas:plan.Strategy.replicas ~kind:minimal_kind ~dag:raw ~done_
      ~survivors:half ~platform:plan.Strategy.platform ()
  with
  | Error msg -> invalid_arg ("Cloud.prepare: replica plan failed: " ^ msg)
  | Ok r ->
      { rsegs = Replan.physical_segs r; rwrites = Runner.writes_of_plan r.Repair.plan }

let prepare ?cache (plan : Strategy.plan) =
  let base = Replan.prepare ~name:"Cloud" ?cache ~rescue_of:rescue_of_plan plan in
  let nprocs = plan.Strategy.platform.Platform.processors in
  let all = List.init nprocs Fun.id in
  let halves =
    List.filter
      (fun l -> l <> [])
      [
        List.filter (fun p -> p mod 2 = 0) all; List.filter (fun p -> p mod 2 = 1) all;
      ]
  in
  { base; replicas = List.map (replica_of_half plan) halves }

let cache_stats prepared = Replan.cache_stats prepared.base

let run_trial ~mode config prepared rng =
  if config.max_revocations < 0 then
    invalid_arg "Cloud.run_trial: negative max_revocations";
  if config.lambda_revoke < 0. then invalid_arg "Cloud.run_trial: negative rate";
  if config.grace < 0. then invalid_arg "Cloud.run_trial: negative grace";
  (if config.kind = Strategy.Ckpt_none then
     invalid_arg "Cloud.run_trial: CKPTNONE cannot be a replan policy");
  let platform = (Replan.plan prepared.base).Strategy.platform in
  let nprocs = platform.Platform.processors in
  (* fixed per-trial randomness, in a mode-independent order (both
     modes see identical worlds): revocations first — the
     discount-buys-risk law scales the base rate per processor — then
     one trace generator per processor, then the storage substreams.
     With revocations off and reliable storage this is bitwise the
     layout of a {!Degrade} trial with no deaths. *)
  let rates =
    Array.init nprocs (fun p ->
        if config.lambda_revoke = 0. then 0.
        else config.lambda_revoke *. Platform.revocation_risk platform p)
  in
  let revs =
    Mortality.draw_revocations rng ~rates ~grace:config.grace
      ~max_revocations:config.max_revocations
  in
  let trace_of = Replan.traces rng platform in
  (* a passthrough store draws nothing, ever, so the trial runs without
     one; a non-passthrough store takes dedicated splits (the second
     only feeds the baseline's sibling replica) *)
  let store_a, store_b =
    if Store.passthrough config.store then (None, None)
    else
      let a = Store.create config.store (Rng.split rng) in
      let b = Store.create config.store (Rng.split rng) in
      (Some a, Some b)
  in
  let warn p = revs.(p).Mortality.warn in
  let kill p = revs.(p).Mortality.kill in
  let bill makespan =
    Platform.billed_cost platform ~until:(fun p -> Float.min (kill p) makespan)
  in
  match mode with
  | Replicate ->
      (* restart-only baseline: each half-platform replica runs the
         whole workflow with minimal checkpoints; a replica whose
         processor is revoked mid-work is lost (warnings unused: a
         revocation is a plain death at its kill), the makespan is the
         first replica to finish *)
      let revocations = ref 0 and work_lost = ref 0. and makespan = ref infinity in
      List.iteri
        (fun idx r ->
          let store = if idx mod 2 = 0 then store_a else store_b in
          let o =
            Engine.run ?store ~write:r.rwrites ~interrupts:(Engine.deaths kill) r.rsegs
              trace_of
          in
          match o.Engine.cut with
          | None -> if o.Engine.finish < !makespan then makespan := o.Engine.finish
          | Some cut ->
              incr revocations;
              work_lost := !work_lost +. cut.Engine.lost)
        prepared.replicas;
      {
        makespan = !makespan;
        revocations = !revocations;
        rescues = 0;
        rescued_tasks = 0;
        replans = 0;
        restarts = 0;
        work_lost = !work_lost;
        dollar_cost = bill !makespan;
      }
  | Checkpoint ->
      (* eviction-aware: a warned-but-not-yet-killed processor is
         draining and gets no replanned work *)
      let t =
        Replan.run_trial ~kind:config.kind ~restart_always:false ?store:store_a ~warn ~kill
          ~survivors:(Mortality.eviction_survivors revs)
          prepared.base trace_of
      in
      {
        makespan = t.Replan.makespan;
        revocations = t.Replan.cuts;
        rescues = t.Replan.rescues;
        rescued_tasks = t.Replan.rescued_tasks;
        replans = t.Replan.replans;
        restarts = t.Replan.restarts;
        work_lost = t.Replan.work_lost;
        dollar_cost = bill t.Replan.makespan;
      }

let sample_prepared ?trials ?seed ?jobs ~mode config prepared =
  Replan.sample ~name:"Cloud" ?trials ?seed ?jobs (run_trial ~mode config prepared)

let sample ?trials ?seed ?jobs ~mode config plan =
  sample_prepared ?trials ?seed ?jobs ~mode config (prepare plan)

type summary = {
  trials : int;
  mean_makespan : float;
  mean_revocations : float;
  mean_rescues : float;
  mean_rescued_tasks : float;
  mean_replans : float;
  mean_restarts : float;
  mean_work_lost : float;
  mean_dollar_cost : float;
  stranded : int;
}

let summarize trials =
  let n = Array.length trials in
  if n = 0 then invalid_arg "Cloud.summarize: empty sample";
  let fn = float_of_int n in
  let sum f = Array.fold_left (fun acc t -> acc +. f t) 0. trials in
  {
    trials = n;
    mean_makespan = sum (fun t -> t.makespan) /. fn;
    mean_revocations = sum (fun t -> float_of_int t.revocations) /. fn;
    mean_rescues = sum (fun t -> float_of_int t.rescues) /. fn;
    mean_rescued_tasks = sum (fun t -> float_of_int t.rescued_tasks) /. fn;
    mean_replans = sum (fun t -> float_of_int t.replans) /. fn;
    mean_restarts = sum (fun t -> float_of_int t.restarts) /. fn;
    mean_work_lost = sum (fun t -> t.work_lost) /. fn;
    mean_dollar_cost = sum (fun t -> t.dollar_cost) /. fn;
    stranded =
      Array.fold_left (fun acc t -> if t.makespan = infinity then acc + 1 else acc) 0 trials;
  }
