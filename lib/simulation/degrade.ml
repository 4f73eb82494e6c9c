module Strategy = Ckpt_core.Strategy
module Platform = Ckpt_platform.Platform
module Rng = Ckpt_prob.Rng
module Mortality = Ckpt_recovery.Mortality
module Store = Ckpt_storage.Store

type mode = Repair | Restart

let mode_name = function Repair -> "repair" | Restart -> "restart"

type config = {
  lambda_death : float;
  max_losses : int;
  kind : Strategy.kind;
  store : Store.config;
}

type trial = {
  makespan : float;
  losses : int;
  replans : int;
  restarts : int;
  rollbacks : int;
  invalidated : int;
  store_stats : Store.stats;
}

type prepared = Replan.prepared

let prepare ?cache plan = Replan.prepare ~name:"Degrade" ?cache plan
let cache_stats = Replan.cache_stats

let run_trial ~mode config prepared rng =
  if config.max_losses < 0 then invalid_arg "Degrade.run_trial: negative max_losses";
  let platform = (Replan.plan prepared).Strategy.platform in
  (* fixed per-trial randomness, in a mode-independent order: deaths
     first, then one trace generator per processor — Repair and Restart
     trials with the same rng see identical worlds *)
  let deaths =
    Mortality.draw rng ~processors:platform.Platform.processors
      ~lambda_death:config.lambda_death ~max_losses:config.max_losses
  in
  let trace_of = Replan.traces rng platform in
  let death p = deaths.(p) in
  (* the store substream splits strictly after deaths and traces, and
     only when the store is non-passthrough: a passthrough config
     consumes exactly the legacy randomness and takes the legacy
     execution path, bitwise *)
  let store =
    if Store.passthrough config.store then None
    else Some (Store.create config.store (Rng.split rng))
  in
  let t =
    Replan.run_trial ~kind:config.kind ~restart_always:(mode = Restart) ?store ~warn:death
      ~kill:death ~survivors:(Mortality.survivors deaths) prepared trace_of
  in
  {
    makespan = t.Replan.makespan;
    losses = t.Replan.cuts;
    replans = t.Replan.replans;
    restarts = t.Replan.restarts;
    rollbacks = t.Replan.rollbacks;
    invalidated = t.Replan.invalidated;
    store_stats = (match store with Some st -> Store.stats st | None -> Store.zero);
  }

let sample_prepared ?trials ?seed ?jobs ~mode config prepared =
  Replan.sample ~name:"Degrade" ?trials ?seed ?jobs (run_trial ~mode config prepared)

let sample ?trials ?seed ?jobs ~mode config plan =
  sample_prepared ?trials ?seed ?jobs ~mode config (prepare plan)

type summary = {
  trials : int;
  mean_makespan : float;
  mean_losses : float;
  mean_replans : float;
  mean_restarts : float;
  mean_rollbacks : float;
  mean_invalidated : float;
  stranded : int;
  store_totals : Store.stats;
}

let summarize trials =
  let n = Array.length trials in
  if n = 0 then invalid_arg "Degrade.summarize: empty sample";
  let fn = float_of_int n in
  let sum f = Array.fold_left (fun acc t -> acc +. f t) 0. trials in
  {
    trials = n;
    mean_makespan = sum (fun t -> t.makespan) /. fn;
    mean_losses = sum (fun t -> float_of_int t.losses) /. fn;
    mean_replans = sum (fun t -> float_of_int t.replans) /. fn;
    mean_restarts = sum (fun t -> float_of_int t.restarts) /. fn;
    mean_rollbacks = sum (fun t -> float_of_int t.rollbacks) /. fn;
    mean_invalidated = sum (fun t -> float_of_int t.invalidated) /. fn;
    stranded = Array.fold_left (fun acc t -> if t.makespan = infinity then acc + 1 else acc) 0 trials;
    store_totals =
      Array.fold_left (fun acc t -> Store.add acc t.store_stats) Store.zero trials;
  }
