(** MONTECARLO estimator: sample makespan realisations and average.

    The classical ground-truth method (van Slyke 1963): unbiased, with
    a [1/sqrt(trials)] error, but expensive — the paper uses 300,000
    trials to calibrate the other estimators and notes this is
    prohibitive in practice. This implementation therefore samples
    through the compiled CSR form of the DAG (zero allocation per
    trial) and can fan the trial loop out over [jobs] worker domains.

    Parallelism is {e strictly deterministic}: trial [i]'s generator is
    a pure function of [(seed, i)] ({!Ckpt_prob.Rng.for_trial}), trials
    are processed in fixed 128-trial chunks, and per-chunk statistics
    are folded in chunk order with Chan's parallel Welford combine — so
    the returned statistics are bitwise identical for any [jobs] value,
    including the sequential [jobs = 1].

    A wall-clock {!Ckpt_resilience.Deadline} can bound the sampling
    loop: the clock is checked once per chunk, and when the budget runs
    out the estimator stops at the chunks completed so far (at least
    one) instead of hanging — the resulting statistics report the
    achieved count via [Stats.count]. *)

val estimate : ?trials:int -> ?seed:int -> Prob_dag.t -> float
(** Mean over [trials] (default 10_000) independent realisations,
    sampled sequentially. *)

val estimate_with_stats :
  ?trials:int ->
  ?seed:int ->
  ?deadline:Ckpt_resilience.Deadline.t ->
  ?jobs:int ->
  Prob_dag.t ->
  Ckpt_prob.Stats.t
(** Full sample statistics (mean, variance, extremes, CI) over
    [trials] (default 10_000) realisations, or over however many
    completed before [deadline] expired, on [jobs] (default 1) worker
    domains; the result does not depend on [jobs]. *)
