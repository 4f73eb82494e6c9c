(** Monte-Carlo simulation driver for strategy plans.

    Repeatedly executes a {!Ckpt_core.Strategy.plan} against fresh
    exponential failure traces and collects makespan statistics —
    ground truth against which the analytical estimators (and the
    first-order model itself) are validated.

    The driver practices what the paper preaches: a wall-clock
    {!Ckpt_resilience.Deadline} cuts a runaway simulation off at the
    trials completed so far; an [inject] hook lets the fault-injection
    harness ({!Ckpt_resilience.Faulty}) kill individual trials; and an
    optional {!Ckpt_resilience.Retry} policy re-runs a killed trial
    with its original randomness, so an injected-and-retried run
    produces bitwise the same samples as an undisturbed one. *)

val segs_of_plan : Ckpt_core.Strategy.plan -> Engine.seg array
(** The executable segment DAG of a CKPTALL/CKPTSOME plan: one entry
    per coalesced segment, dependencies taken from the plan's 2-state
    DAG, durations equal to [read + work + write].

    @raise Invalid_argument on a CKPTNONE plan (nothing to segment). *)

val writes_of_plan : Ckpt_core.Strategy.plan -> float array
(** Per-segment checkpoint-commit durations (seconds) aligned with
    {!segs_of_plan}; a plan built with [~replicas:k] already carries
    the [k·C] cost here.

    @raise Invalid_argument on a CKPTNONE plan. *)

type storage_trial = {
  makespan : float;
  commit_retries : int;  (** checkpoint-commit attempts that failed *)
  commit_exhausted : int;  (** commit cycles that exhausted the backoff *)
  corrupt_reads : int;  (** recovery reads that found no valid replica *)
  rollbacks : int;  (** cascading segment re-executions those triggered *)
  store : Ckpt_storage.Store.stats;  (** full store counters of the trial *)
}

val plan_signature : Ckpt_core.Strategy.plan -> string
(** A stable rendering of the plan's segment DAG and write spans —
    feed it (with whatever else determines semantics) to
    {!Ckpt_storage.Store.fingerprint} to derive a disk store's DAG
    structural hash.

    @raise Invalid_argument on a CKPTNONE plan. *)

val sample_storage :
  ?trials:int ->
  ?seed:int ->
  ?jobs:int ->
  ?inject:(string -> unit) ->
  ?persist:Ckpt_storage.Store.persist ->
  ?scope:string ->
  store:Ckpt_storage.Store.config ->
  Ckpt_core.Strategy.plan ->
  storage_trial array
(** Monte-Carlo over the checkpoint store
    ({!Engine.run} with a store): each trial draws the same
    [(seed, trial)] failure traces as {!sample_makespans} plus an
    independent storage substream (derived from a tagged seed, so
    storage faults never perturb the traces). With a
    {!Ckpt_storage.Store.passthrough} config the per-trial makespans
    are bitwise those of {!sample_makespans} at the same
    [(trials, seed)]. Deterministic and bitwise identical for any
    [jobs] value. [inject] / [persist] / [scope] are passed to each
    trial's {!Ckpt_storage.Store.create} ([trial] is the trial
    index).

    @raise Invalid_argument on a CKPTNONE plan, an invalid [store]
    config ({!Ckpt_storage.Store.validate}), or [persist] with
    [jobs > 1] (the store file is single-domain). *)

val simulate :
  ?trials:int ->
  ?seed:int ->
  ?deadline:Ckpt_resilience.Deadline.t ->
  ?inject:(trial:int -> unit) ->
  ?retry:Ckpt_resilience.Retry.policy ->
  ?jobs:int ->
  Ckpt_core.Strategy.plan ->
  Ckpt_prob.Stats.t
(** [trials] defaults to 1000. CKPTALL/CKPTSOME run through
    {!Engine.makespan}; CKPTNONE uses the restart-from-scratch
    semantics on its failure-free parallel time. See
    {!sample_makespans} for [deadline] / [inject] / [retry] / [jobs]. *)

val simulated_expected_makespan : ?trials:int -> ?seed:int -> Ckpt_core.Strategy.plan -> float
(** The mean of {!simulate}, sequentially. *)

val sample_makespans :
  ?trials:int ->
  ?seed:int ->
  ?deadline:Ckpt_resilience.Deadline.t ->
  ?inject:(trial:int -> unit) ->
  ?retry:Ckpt_resilience.Retry.policy ->
  ?jobs:int ->
  Ckpt_core.Strategy.plan ->
  float array
(** The raw makespan sample (same semantics as {!simulate}) — for
    quantiles and distribution comparisons.

    Each trial's randomness is a pure function of [(seed, trial)]
    ({!Ckpt_prob.Rng.for_trial}), fixed before any attempt: retried
    (fault-injected) trials reproduce the undisturbed run's samples
    exactly, and the returned array is bitwise identical for any
    [jobs] value (default 1: fully sequential). Each trial creates a
    processor's failure trace at that processor's first segment
    ({!Engine.makespan}).

    [deadline]: checked between 128-trial chunks; on expiry the
    completed prefix (never empty) is returned. [inject ~trial] runs
    before each trial attempt and may raise to simulate a fail-stop
    error; with [jobs > 1] the hook must be thread-safe and fires in
    nondeterministic trial order. Without [retry] such an exception
    propagates; with [retry] the trial is re-attempted under the
    policy (jitter seeded from [seed] and the trial index), and
    exhaustion raises [Error.E (Retries_exhausted)]. *)
