module Strategy = Ckpt_core.Strategy
module Schedule = Ckpt_core.Schedule
module Superchain = Ckpt_core.Superchain
module Placement = Ckpt_core.Placement
module Prob_dag = Ckpt_eval.Prob_dag
module Platform = Ckpt_platform.Platform
module Failure = Ckpt_platform.Failure
module Rng = Ckpt_prob.Rng
module Stats = Ckpt_prob.Stats
module Deadline = Ckpt_resilience.Deadline
module Retry = Ckpt_resilience.Retry
module Error = Ckpt_resilience.Error
module Pool = Ckpt_parallel.Pool
module Store = Ckpt_storage.Store

let segs_of_plan (plan : Strategy.plan) =
  match plan.Strategy.prob_dag with
  | None -> invalid_arg "Runner.segs_of_plan: CKPTNONE has no segments"
  | Some pd ->
      Array.mapi
        (fun idx (seg : Placement.segment) ->
          let sc = plan.Strategy.schedule.Schedule.superchains.(seg.Placement.chain) in
          {
            Engine.processor = sc.Superchain.processor;
            duration = seg.Placement.read +. seg.Placement.work +. seg.Placement.write;
            preds = Prob_dag.preds pd idx;
          })
        plan.Strategy.segments

let writes_of_plan (plan : Strategy.plan) =
  match plan.Strategy.prob_dag with
  | None -> invalid_arg "Runner.writes_of_plan: CKPTNONE has no segments"
  | Some _ ->
      Array.map (fun (seg : Placement.segment) -> seg.Placement.write) plan.Strategy.segments

(* Work-distribution chunk: the unit of dynamic claiming by worker
   domains and of deadline checking (one clock read per chunk). Trials
   within a chunk are computed from per-trial generators, so the chunk
   partitioning never affects the drawn samples. *)
let chunk_trials = 128

let sample_makespans ?(trials = 1000) ?(seed = 7) ?(deadline = Deadline.never)
    ?(inject = fun ~trial:_ -> ()) ?retry ?(jobs = 1) (plan : Strategy.plan) =
  if trials < 1 then invalid_arg "Runner.simulate: trials < 1";
  if jobs < 1 then invalid_arg "Runner.simulate: jobs < 1";
  let platform = plan.Strategy.platform in
  (* the engine creates each processor's trace once, at its first
     segment, so the trial generator is split in first-use order *)
  let one_trial =
    match plan.Strategy.prob_dag with
    | Some _ ->
        let segs = segs_of_plan plan in
        fun trial_rng ->
          Engine.makespan segs (fun p ->
              Failure.create trial_rng ~lambda:(Platform.rate_of platform p))
    | None ->
        let wpar = plan.Strategy.wpar in
        (* restart semantics: the aggregate failure process over the
           used processors (sum of exponential rates) *)
        let used = Hashtbl.create 16 in
        Array.iter
          (fun (sc : Superchain.t) -> Hashtbl.replace used sc.Superchain.processor ())
          plan.Strategy.schedule.Schedule.superchains;
        let rate =
          Hashtbl.fold (fun p () acc -> acc +. Platform.rate_of platform p) used 0.
        in
        Engine.restart_rate_makespan ~wpar ~rate
  in
  (* the trial's randomness is a pure function of (seed, k), fixed
     before any attempt: a retried (fault-injected) trial reproduces
     the exact makespan an undisturbed run would have drawn, and so
     does any worker that ends up computing trial k *)
  let trial k =
    let base = Rng.for_trial ~seed k in
    let attempt ~attempt:_ =
      inject ~trial:k;
      one_trial (Rng.copy base)
    in
    match retry with
    | None -> attempt ~attempt:1
    | Some policy -> (
        match
          Retry.with_retries ~policy ~rng:(Rng.create (seed + k)) ~deadline attempt
        with
        | Ok v -> v
        | Result.Error e -> Error.raise_ e)
  in
  Array.concat
    (Array.to_list
       (Pool.map_chunks ~jobs ~chunk:chunk_trials
          ~stop:(fun () -> Deadline.expired deadline)
          trials
          (fun ~lo ~hi -> Array.init (hi - lo) (fun i -> trial (lo + i)))))

(* ---------- Monte-Carlo over unreliable stable storage ---------- *)

type storage_trial = {
  makespan : float;
  commit_retries : int;
  commit_exhausted : int;
  corrupt_reads : int;
  rollbacks : int;
  store : Store.stats;
}

(* A stable rendering of everything that determines a plan's
   checkpoint semantics — the segment DAG (processor, duration,
   dependencies) and the per-segment write spans — fed to
   {!Store.fingerprint} as the disk store's DAG structural hash. *)
let plan_signature (plan : Strategy.plan) =
  let segs = segs_of_plan plan in
  let writes = writes_of_plan plan in
  let buf = Buffer.create 256 in
  Array.iteri
    (fun i (s : Engine.seg) ->
      Buffer.add_string buf
        (Printf.sprintf "%d:%d:%Lx:%Lx[%s];" i s.Engine.processor
           (Int64.bits_of_float s.Engine.duration)
           (Int64.bits_of_float writes.(i))
           (String.concat "," (List.map string_of_int s.Engine.preds))))
    segs;
  Buffer.contents buf

(* The storage substream's trial seed: decorrelated from the
   failure-trace streams (which derive from [seed] itself) by a fixed
   tag, so faults never perturb the traces — with faults disabled the
   substream is simply never created and the makespans are bitwise the
   fault-free ones. *)
let storage_seed seed = seed + 0x53544f52 (* "STOR" *)

let sample_storage ?(trials = 1000) ?(seed = 7) ?(jobs = 1) ?inject ?persist ?scope
    ~store (plan : Strategy.plan) =
  Store.validate store;
  if trials < 1 then invalid_arg "Runner.sample_storage: trials < 1";
  if jobs < 1 then invalid_arg "Runner.sample_storage: jobs < 1";
  (match persist with
  | Some _ when jobs > 1 ->
      invalid_arg "Runner.sample_storage: a persistent store needs jobs = 1"
  | _ -> ());
  let platform = plan.Strategy.platform in
  let segs = segs_of_plan plan in
  let writes = writes_of_plan plan in
  let trial k =
    let trial_rng = Rng.for_trial ~seed k in
    let trace_of p = Failure.create trial_rng ~lambda:(Platform.rate_of platform p) in
    let st =
      Store.create ?inject ?persist ?scope ~trial:k store
        (Rng.for_trial ~seed:(storage_seed seed) k)
    in
    let run = Engine.run ~store:st ~write:writes segs trace_of in
    let stats = Store.stats st in
    {
      makespan = run.Engine.finish;
      commit_retries = stats.Store.commit_retries;
      commit_exhausted = stats.Store.commit_exhausted;
      corrupt_reads = stats.Store.corrupt_reads;
      rollbacks = List.length run.Engine.rollbacks;
      store = stats;
    }
  in
  Array.concat
    (Array.to_list
       (Pool.map_chunks ~jobs ~chunk:chunk_trials ~stop:(fun () -> false) trials
          (fun ~lo ~hi -> Array.init (hi - lo) (fun i -> trial (lo + i)))))

let simulate ?trials ?seed ?deadline ?inject ?retry ?jobs plan =
  Stats.of_array (sample_makespans ?trials ?seed ?deadline ?inject ?retry ?jobs plan)

let simulated_expected_makespan ?trials ?seed plan = Stats.mean (simulate ?trials ?seed plan)
