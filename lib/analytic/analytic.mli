(** Closed-form expected-makespan evaluation (the analytic path).

    Under the paper's exponential fail-stop model each segment's
    expectation is known in closed form — the same Toueg/Daly-style
    cost the Algorithm-2 DP already prices
    ({!Ckpt_core.Placement.first_order}). This module composes those
    per-segment expectations over a plan with no sampling:

    - {!expected_makespan} under {!First_order} is the one first-order
      functional of the repository, {!Ckpt_core.Strategy.expected_makespan}
      (PATHAPPROX, and the Theorem-1 restart closed form for CKPTNONE):
      the trial-count → ∞ limit of {!Ckpt_eval.Montecarlo.estimate} up to
      the simultaneous-failure O((λs)²) terms the 2-state model itself
      discards. Exact on chains; inside the MC 95% confidence interval on
      the test suite's pinned sweep cells and within three half-widths on
      randomised M-SPGs (the estimator's own 95% interval excludes the
      true mean 5% of the time, so strict containment is not a property
      even an exact evaluator could satisfy);
    - {!schedule_makespan} replays the {!Ckpt_sim.Engine} recurrence
      (predecessor joins plus same-processor serialisation) with each
      segment at its expected duration — the limit of
      {!Ckpt_sim.Runner.sample_makespans} under the same caveat.

    Two per-segment models are available: {!First_order} is the
    paper's 2-state cost (bitwise the mean the MC estimator converges
    to), {!Exact} is the exact exponential expectation
    [E(T) = (e^{λs} − 1)/λ] that stays valid when [λs] is not small —
    the regime where Sodre's restart-vs-checkpoint asymptotics
    (arXiv 1802.07455) bite. *)

module Strategy := Ckpt_core.Strategy

(** Per-segment expectation model. *)
type model =
  | First_order
      (** [(1 − p)·s + p·(3/2)s] with [p = min(1, λs)] — Eq. 2 of the
          paper, the distribution the 2-state DAG samples. *)
  | Exact
      (** [(e^{λs} − 1)/λ]: expected completion of an [s]-second
          segment under Poisson failures of rate λ with instant
          restart from the segment's start. Agrees with [First_order]
          to O((λs)²); diverges exponentially where restart-heavy
          policies pay. *)

val segment_time : model -> lambda:float -> float -> float
(** [segment_time model ~lambda s] is the expected wall-clock time to
    complete [s] seconds of work on a processor of failure rate
    [lambda]. [lambda <= 0] yields [s] under both models. *)

val restart_time : model -> rate:float -> float -> float
(** [restart_time model ~rate wpar] is the expected makespan of a
    CKPTNONE execution: [wpar] failure-free seconds re-executed from
    scratch on any failure of the aggregate process of rate [rate].
    [First_order] is bitwise {!Ckpt_eval.Ckptnone.expected_makespan_rate};
    [Exact] is the limit of {!Ckpt_sim.Engine.restart_rate_makespan}. *)

val expected_makespan : ?model:model -> Strategy.plan -> float
(** Closed-form expected makespan of a plan, O(nodes + edges), no
    sampling. [First_order] (the default) is
    {!Ckpt_core.Strategy.expected_makespan}: the first-order failure
    expansion of the 2-state DAG's expected longest path. [Exact]
    composes the exact exponential per-segment expectations over the
    longest path (exact on chains — the Sodre asymptotic regimes —
    where [First_order] degrades for large λs), and prices a CKPTNONE
    plan by {!restart_time} at {!Ckpt_core.Strategy.restart_rate}. *)

val schedule_makespan : ?model:model -> Strategy.plan -> float
(** Expected makespan composed by the simulation engine's recurrence:
    segments in index order, each starting at the max of its
    predecessors' completions and its processor's availability. Under
    {!Exact} this equals {!expected_makespan} whenever no two
    superchains share a processor (the serialisation is then already a
    DAG edge); under {!First_order} it composes the per-segment
    2-state expectations through the recurrence without the failure
    expansion. Either way it is the closed-form counterpart of what
    {!Ckpt_sim.Runner} simulates. *)
