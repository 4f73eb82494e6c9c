module Strategy = Ckpt_core.Strategy
module Schedule = Ckpt_core.Schedule
module Superchain = Ckpt_core.Superchain
module Placement = Ckpt_core.Placement
module Platform = Ckpt_platform.Platform
module Failure = Ckpt_platform.Failure
module Rng = Ckpt_prob.Rng
module Repair = Ckpt_recovery.Repair
module Pool = Ckpt_parallel.Pool
module Memo = Ckpt_parallel.Memo
module Dag = Ckpt_dag.Dag
module Store = Ckpt_storage.Store

(* For each segment of a plan, the task ids it covers (in the plan's
   own id space). *)
let seg_tasks_of (plan : Strategy.plan) =
  Array.map
    (fun (seg : Placement.segment) ->
      let sc = plan.Strategy.schedule.Schedule.superchains.(seg.Placement.chain) in
      Array.init
        (seg.Placement.last - seg.Placement.first + 1)
        (fun k -> Superchain.task_at sc (seg.Placement.first + k)))
    plan.Strategy.segments

type epoch = {
  segs : Engine.seg array;
  writes : float array;
  seg_tasks : int array array;
  rescue : Engine.rescue_info array option;
}

type prepared = {
  name : string;
  plan : Strategy.plan;
  rescue_of : (Strategy.plan -> Engine.rescue_info array) option;
  init : epoch;
  (* structural replan cache: Repair.replan is a pure function of
     (kind, survivor set, committed-checkpoint frontier) for a fixed
     plan, so its physically-mapped result is memoised under that key.
     Values are shared read-only across worker domains (the engine
     never mutates segments). The memo computes each key once, so the
     counters do not depend on [jobs]; [None] when disabled. *)
  cache : (string, (epoch, string) result) Memo.t option;
}

let prepare ~name ?(cache = true) ?rescue_of (plan : Strategy.plan) =
  if plan.Strategy.prob_dag = None then
    invalid_arg (name ^ ".prepare: a CKPTNONE plan has no checkpoints to recover from");
  {
    name;
    plan;
    rescue_of;
    init =
      {
        segs = Runner.segs_of_plan plan;
        writes = Runner.writes_of_plan plan;
        seg_tasks = seg_tasks_of plan;
        rescue = Option.map (fun f -> f plan) rescue_of;
      };
    cache = (if cache then Some (Memo.create ()) else None);
  }

let plan prepared = prepared.plan

let cache_stats prepared =
  match prepared.cache with
  | Some memo ->
      let s = Memo.stats memo in
      (s.Memo.hits, s.Memo.misses)
  | None -> (0, 0)

(* kind + survivor list + done_ bitset, packed into a flat string *)
let replan_key ~kind ~survivors ~done_ =
  let buf = Buffer.create (32 + (Array.length done_ / 8)) in
  Buffer.add_string buf (Strategy.kind_name kind);
  Buffer.add_char buf '|';
  List.iter
    (fun p ->
      Buffer.add_string buf (string_of_int p);
      Buffer.add_char buf ',')
    survivors;
  Buffer.add_char buf '|';
  let byte = ref 0 in
  Array.iteri
    (fun i b ->
      if b then byte := !byte lor (1 lsl (i land 7));
      if i land 7 = 7 then begin
        Buffer.add_char buf (Char.chr !byte);
        byte := 0
      end)
    done_;
  if Array.length done_ land 7 <> 0 then Buffer.add_char buf (Char.chr !byte);
  Buffer.contents buf

let physical_segs (r : Repair.t) =
  Array.map
    (fun (s : Engine.seg) -> { s with Engine.processor = r.Repair.phys.(s.Engine.processor) })
    (Runner.segs_of_plan r.Repair.plan)

(* Replan the residual workflow and map the result onto physical
   processor / original task ids — the value the cache stores. *)
let compute_replan prepared ~kind ~survivors ~done_ =
  let plan = prepared.plan in
  match
    Repair.replan ~replicas:plan.Strategy.replicas ~kind ~dag:plan.Strategy.raw_dag
      ~done_ ~survivors ~platform:plan.Strategy.platform ()
  with
  | Error msg -> Error msg
  | Ok r ->
      let seg_tasks =
        Array.map (Array.map (fun t -> r.Repair.task_of.(t))) (seg_tasks_of r.Repair.plan)
      in
      Ok
        {
          segs = physical_segs r;
          writes = Runner.writes_of_plan r.Repair.plan;
          seg_tasks;
          rescue = Option.map (fun f -> f r.Repair.plan) prepared.rescue_of;
        }

let replan_cached prepared ~kind ~survivors ~done_ =
  match prepared.cache with
  | None -> compute_replan prepared ~kind ~survivors ~done_
  | Some memo ->
      Memo.get memo (replan_key ~kind ~survivors ~done_) (fun () ->
          compute_replan prepared ~kind ~survivors ~done_)

let traces rng (platform : Platform.t) =
  let nprocs = platform.Platform.processors in
  let trace_rngs = Array.init nprocs (fun _ -> Rng.split rng) in
  let traces = Array.make nprocs None in
  fun p ->
    match traces.(p) with
    | Some t -> t
    | None ->
        let t = Failure.create trace_rngs.(p) ~lambda:(Platform.rate_of platform p) in
        traces.(p) <- Some t;
        t

type tally = {
  makespan : float;
  cuts : int;
  replans : int;
  restarts : int;
  rollbacks : int;
  invalidated : int;
  rescues : int;
  rescued_tasks : int;
  work_lost : float;
}

let run_trial ~kind ~restart_always ?store ~warn ~kill ~survivors prepared trace_of =
  let name = prepared.name in
  (if kind = Strategy.Ckpt_none then
     invalid_arg (name ^ ".run_trial: CKPTNONE cannot be a replan policy"));
  let nprocs = prepared.plan.Strategy.platform.Platform.processors in
  let n = Dag.n_tasks prepared.plan.Strategy.raw_dag in
  let done_ = Array.make n false in
  (* the checkpoint handle backing each done task — the recovery line:
     an interrupt revalidates every handle, and a failed recovery read
     clears [done_] so the replan re-schedules the producing segment
     (and, transitively through the residual DAG, everything
     downstream of it) from its own last valid checkpoint *)
  let task_ckpt = Array.make n None in
  let stored = Option.is_some store in
  (* one epoch: run the current plan until it finishes or is cut, then
     mark the committed frontier (crediting any rescued prefix),
     revalidate it, and replan on the survivors — or restart from
     scratch when replanning is impossible or [restart_always] *)
  let rec go ~clock (e : epoch) t =
    let o =
      Engine.run ~start:clock ?store ~write:e.writes
        ~interrupts:{ Engine.warn; kill; rescue = e.rescue }
        e.segs trace_of
    in
    match o.Engine.cut with
    | None ->
        {
          t with
          makespan = o.Engine.finish;
          rollbacks = t.rollbacks + List.length o.Engine.rollbacks;
        }
    | Some cut ->
        Array.iteri
          (fun i ok ->
            if ok then
              Array.iter
                (fun task ->
                  done_.(task) <- true;
                  if stored then task_ckpt.(task) <- o.Engine.ckpts.(i))
                e.seg_tasks.(i))
          cut.Engine.completed;
        (* credit the warning-committed prefix: its tasks are done and
           their recovery data sits behind the rescue handle, so the
           replan never re-executes them *)
        let t =
          match (cut.Engine.saved, e.rescue) with
          | Some { Engine.seg = i; tasks = k; handle }, Some rescue ->
              let bought = ref 0. in
              for j = 0 to k - 1 do
                bought := !bought +. rescue.(i).Engine.task_durs.(j);
                let task = e.seg_tasks.(i).(j) in
                done_.(task) <- true;
                task_ckpt.(task) <- handle
              done;
              {
                t with
                cuts = t.cuts + 1;
                rescues = t.rescues + 1;
                rescued_tasks = t.rescued_tasks + k;
                work_lost = t.work_lost +. cut.Engine.lost -. !bought;
              }
          | _ -> { t with cuts = t.cuts + 1; work_lost = t.work_lost +. cut.Engine.lost }
        in
        (* revalidate the committed frontier at the cut, before the
           replan key is formed: latent corruption (or a
           policy-volatile / invalidated handle) revealed here rolls
           the recovery line back past that segment *)
        let t =
          match store with
          | None -> t
          | Some st ->
              let fresh = ref 0 in
              for task = 0 to n - 1 do
                if done_.(task) then
                  match task_ckpt.(task) with
                  | Some ck ->
                      if not (Store.recovery_readable st ck ~at:cut.Engine.at) then begin
                        done_.(task) <- false;
                        task_ckpt.(task) <- None;
                        incr fresh
                      end
                  | None -> ()
              done;
              { t with invalidated = t.invalidated + !fresh }
        in
        replan ~at:cut.Engine.at t
  and replan ~at t =
    match survivors ~after:at with
    | [] -> { t with makespan = infinity }
    | survivors -> (
        let from_scratch t =
          Array.fill done_ 0 n false;
          Array.fill task_ckpt 0 n None;
          match replan_cached prepared ~kind ~survivors ~done_ with
          | Ok e -> go ~clock:at e { t with restarts = t.restarts + 1 }
          | Error msg ->
              (* the full workflow was plannable at trial start on any
                 processor count, so this is unreachable for plans
                 built through the pipeline *)
              invalid_arg (name ^ ".run_trial: restart replan failed: " ^ msg)
        in
        if restart_always then from_scratch t
        else
          match replan_cached prepared ~kind ~survivors ~done_ with
          | Ok e -> go ~clock:at e { t with replans = t.replans + 1 }
          | Error _ -> from_scratch t)
  in
  let zero =
    {
      makespan = 0.;
      cuts = 0;
      replans = 0;
      restarts = 0;
      rollbacks = 0;
      invalidated = 0;
      rescues = 0;
      rescued_tasks = 0;
      work_lost = 0.;
    }
  in
  (* a processor warned at instant 0 (a kill inside the first grace
     window) never receives work: replan on the rest up front *)
  match List.filter (fun p -> warn p <= 0.) (List.init nprocs Fun.id) with
  | [] -> go ~clock:0. prepared.init zero
  | warned0 -> replan ~at:0. { zero with cuts = List.length warned0 }

(* Work-distribution chunk (see Runner): trials are claimed chunkwise
   by worker domains but derive their randomness from the trial index
   alone, so the partitioning never affects the drawn samples. *)
let chunk_trials = 16

let sample ~name ?(trials = 200) ?(seed = 11) ?(jobs = 1) run_trial =
  if trials < 1 then invalid_arg (name ^ ".sample: trials < 1");
  if jobs < 1 then invalid_arg (name ^ ".sample: jobs < 1");
  Array.concat
    (Array.to_list
       (Pool.map_chunks ~jobs ~chunk:chunk_trials ~stop:(fun () -> false) trials
          (fun ~lo ~hi ->
            Array.init (hi - lo) (fun k -> run_trial (Rng.for_trial ~seed (lo + k))))))
