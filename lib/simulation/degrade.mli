(** Degraded-mode execution: survive permanent processor loss.

    Each trial runs the shared replan loop ({!Replan.run_trial}) with
    permanent deaths as the interrupt source: the current plan
    executes against transient failure traces {e and} permanent death
    instants ({!Ckpt_recovery.Mortality}), each a warning with no
    grace ({!Engine.deaths}); at the first disruptive death the tasks
    of every checkpoint-committed segment are marked done, and the
    residual workflow is replanned on the survivors
    ({!Ckpt_recovery.Mortality.survivors}, {!Ckpt_recovery.Repair}) —
    Algorithm 1 and the Algorithm 2 DP re-run on the smaller platform,
    migration charged as re-reads of checkpointed data. Execution
    resumes at the loss instant with the repaired plan; up to
    [max_losses] losses can strike one trial. When replanning is
    impossible the trial falls back to restarting the whole workflow
    from scratch on the survivors; when nobody survives the trial is
    stranded (makespan [infinity]).

    {!Restart} mode is the baseline the repair is measured against: a
    static schedule cannot adapt, so each loss discards {e all}
    progress and restarts the workflow from scratch on the survivors.
    Both modes consume identical per-trial randomness (deaths drawn
    first, then one trace generator split per processor, in processor
    order), so repair-vs-restart comparisons are paired.

    The checkpoint store ([config.store]) composes with loss: epochs
    execute through {!Engine.run} with the store, each
    completed segment's checkpoint handle is retained as the trial's
    recovery line, and every loss instant revalidates the whole
    committed frontier — a checkpoint whose recovery read fails
    (corrupt replicas, or a policy-volatile / invalidated handle) is
    removed from [done_] so the replan re-schedules its producer (and
    its transitive consumers) instead of trusting lost data.

    Determinism contract: a trial's randomness is a pure function of
    [(seed, trial)] — deaths first, then one trace split per processor,
    then (only when the store is non-passthrough) one store split — and
    results are reassembled in trial order, so {!sample} returns
    bitwise identical arrays for any [jobs] value, and a
    {!Ckpt_storage.Store.passthrough} config reproduces the pre-store
    samples bitwise. *)

module Strategy = Ckpt_core.Strategy

type mode =
  | Repair  (** online repair: keep checkpointed progress across losses *)
  | Restart  (** baseline: every loss restarts the workflow from scratch *)

val mode_name : mode -> string

type config = {
  lambda_death : float;  (** per-processor permanent-failure rate *)
  max_losses : int;  (** deaths that actually occur, the rest censored *)
  kind : Strategy.kind;  (** checkpoint policy applied at each replan *)
  store : Ckpt_storage.Store.config;
      (** the checkpoint store ({!Ckpt_storage.Store.default} for the
          classic reliable in-memory one). With a
          {!Ckpt_storage.Store.passthrough} config the trial consumes
          exactly the legacy randomness and execution path, so results
          are bitwise the pre-store ones. *)
}

type trial = {
  makespan : float;  (** [infinity] when the trial strands *)
  losses : int;  (** disruptive permanent losses suffered *)
  replans : int;  (** successful residual replans (online repair) *)
  restarts : int;  (** restart-from-scratch replans (baseline / fallback) *)
  rollbacks : int;
      (** cascading rollbacks (failed recovery reads re-executing their
          producer) inside the epoch that ran to completion *)
  invalidated : int;
      (** done tasks whose checkpoint failed its recovery read at a
          loss instant and were returned to the residual workflow *)
  store_stats : Ckpt_storage.Store.stats;
      (** the trial's store counters ({!Ckpt_storage.Store.zero} on the
          passthrough path) *)
}

type prepared
(** A plan frozen for degraded-mode trials ({!Replan.prepared}): the
    initial segment DAG and segment-to-task map are materialised once,
    so worker domains share them read-only. Also carries the
    structural replan cache: replans are memoised under the key
    [(kind, survivor set, committed-checkpoint frontier)] —
    {!Ckpt_recovery.Repair.replan} is a pure function of that triple
    for a fixed plan, so trials hitting the same degradation state
    (common for Restart, whose frontier is always empty) reuse the
    physically-mapped plan instead of re-running recognition, ALLOCATE
    and the placement DP. The key holds neither the death rate nor the
    mode, so one [prepared] serves a whole sweep over death
    probabilities. Cached values are shared read-only across worker
    domains; results are bitwise identical with the cache on or off,
    at any [jobs]. *)

val prepare : ?cache:bool -> Strategy.plan -> prepared
(** [cache] (default [true]) toggles the replan cache.

    @raise Invalid_argument on a CKPTNONE plan (no checkpoints to
    recover from) or a CKPTNONE replan policy. *)

val cache_stats : prepared -> int * int
(** [(hits, misses)] of the replan cache so far (0, 0 when disabled). *)

val sample :
  ?trials:int ->
  ?seed:int ->
  ?jobs:int ->
  mode:mode ->
  config ->
  Strategy.plan ->
  trial array
(** [trials] (default 200) degraded-mode executions, trial [k] driven
    by [Ckpt_prob.Rng.for_trial ~seed k] (seed default 11). [jobs]
    fans trials over worker domains without changing the result. *)

val sample_prepared :
  ?trials:int ->
  ?seed:int ->
  ?jobs:int ->
  mode:mode ->
  config ->
  prepared ->
  trial array
(** {!sample} over an existing {!prepared}, so the caller can reuse one
    replan cache across batches and read {!cache_stats} afterwards. *)

type summary = {
  trials : int;
  mean_makespan : float;  (** [infinity] as soon as one trial strands *)
  mean_losses : float;
  mean_replans : float;
  mean_restarts : float;
  mean_rollbacks : float;
  mean_invalidated : float;
  stranded : int;
  store_totals : Ckpt_storage.Store.stats;
      (** field-wise sum of the per-trial store counters *)
}

val summarize : trial array -> summary
