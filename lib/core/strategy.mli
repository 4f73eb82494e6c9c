(** The three checkpointing strategies of the paper, as evaluable
    plans over a common schedule.

    - CKPTALL: every task checkpoints all its output data (the
      de-facto standard of production WMSs);
    - CKPTSOME: Algorithm 2 places optimal checkpoints inside every
      superchain, always checkpointing its end (no crossover
      dependencies);
    - CKPTNONE: nothing is checkpointed; on the (rare) failure the
      whole workflow restarts, and the expected makespan uses the
      Theorem-1 closed form.

    For CKPTALL and CKPTSOME, the checkpointed segments are coalesced
    into a 2-state probabilistic DAG (Eq. 2), whose expected longest
    path any {!Ckpt_eval.Evaluator.method_} can estimate. The baseline
    strategies are evaluated against the {e raw} workflow edges
    (completion dummies synchronise CKPTSOME only — paper footnote 2),
    while both inherit the physical serialisation of tasks on their
    processor. *)

module Dag = Ckpt_dag.Dag
module Platform = Ckpt_platform.Platform
module Prob_dag = Ckpt_eval.Prob_dag

type kind =
  | Ckpt_all
  | Ckpt_some
  | Ckpt_none
  | Ckpt_every of int
      (** ablation baseline: a checkpoint after every k-th task of
          each superchain (plus the forced final one) *)
  | Ckpt_budget of int
      (** extension: optimal placement under a per-superchain budget
          of at most k checkpoints (budget-constrained DP) *)
  | Ckpt_restart
      (** RESTART: no intra-superchain checkpoints — each superchain
          is one segment re-executed from its natural boundary (the
          forced checkpoint ending the previous superchain) on
          failure. The zero-I/O baseline of Sodre's restart-vs-
          checkpoint asymptotics (arXiv 1802.07455). *)
  | Ckpt_hybrid of int
      (** hybrid restart/checkpoint policy: superchains with at most
          [t] tasks restart (as {!Ckpt_restart}), longer ones get the
          Algorithm-2 optimal placement — checkpoint I/O is paid only
          where a restart would forfeit a lot of work *)

val kind_name : kind -> string

type plan = private {
  kind : kind;
  schedule : Schedule.t;
  raw_dag : Dag.t;
  platform : Platform.t;
  segments : Placement.segment array;  (** empty for CKPTNONE *)
  segment_of_task : int array;  (** task id -> segment index; -1 for CKPTNONE *)
  prob_dag : Prob_dag.t option;  (** [None] for CKPTNONE *)
  wpar : float;  (** failure-free parallel time of the schedule, checkpoint-free *)
  checkpoint_count : int;
  replicas : int;  (** k-way checkpoint replication the plan was priced with *)
}

val plan :
  ?jobs:int ->
  ?replicas:int ->
  kind ->
  raw:Dag.t ->
  schedule:Schedule.t ->
  platform:Platform.t ->
  plan
(** [schedule] must schedule a DAG whose task set matches [raw] task
    for task (the dummy-completed copy, or [raw] itself). Checkpoint
    costs — the Algorithm-2 tables and every segment's R, W and C —
    read [raw]'s files, so the scheduled DAG may add only zero-size
    synchronisation edges to it: those carry no data (paper footnote
    2) and change no cost, bitwise, while CKPTSOME-family plans still
    synchronise on them in the 2-state DAG. [jobs]
    (default 1) fans the independent per-superchain placement DPs over
    the resident {!Ckpt_parallel.Pool.shared} pool; the width is
    clamped to the core count and falls back to the sequential
    shared-arena path when there is too little DP work to amortise the
    hand-off, so the plan is identical for any value. [replicas]
    (default 1) prices every checkpoint commit at [k·C]
    ({!Placement}); the optimal positions are re-derived under that
    cost, so a replicated CKPTSOME plan may checkpoint less often. *)

val plan_of_positions :
  ?jobs:int ->
  ?replicas:int ->
  kind:kind ->
  raw:Dag.t ->
  schedule:Schedule.t ->
  platform:Platform.t ->
  positions:(Superchain.t -> int list) ->
  unit ->
  plan
(** Build a plan from explicit checkpoint positions per superchain
    (sorted, each ending at the superchain's last position), priced
    over [raw] as in {!plan}. [kind] labels the plan and selects the
    dependency graph (superchain strategies synchronise on the
    completed graph). Used by {!Refine} for position-set local
    search. *)

val expected_makespan : ?method_:Ckpt_eval.Evaluator.method_ -> plan -> float
(** Default estimator: PATHAPPROX (the paper's choice). A CKPTNONE
    plan takes the Theorem-1 closed form at {!restart_rate}. *)

val restart_rate : plan -> float
(** Aggregate failure rate of the processors the schedule uses: the
    rate at which a CKPTNONE execution restarts from scratch. *)

val checkpoint_positions : plan -> (int * int list) list
(** Superchain id -> checkpointed positions (empty for CKPTNONE). *)

val segment_dag : plan -> Dag.t
(** The coalesced segment graph as a plain DAG: one task per segment
    (weight = R + W + C), zero-size edges mirroring the plan's 2-state
    DAG. Useful for visualisation and for exact evaluation.

    @raise Invalid_argument on a CKPTNONE plan. *)

val makespan_distribution : ?max_support:int -> plan -> Ckpt_prob.Dist.t option
(** The full analytic makespan distribution of the plan under the
    first-order model, by the exact SP calculus over the segment
    M-SPG (see {!exact_expected_makespan} for when this is available;
    [None] otherwise). Quantiles of this distribution answer
    "what deadline can I promise at 99%?" — a question the paper's
    expectation-only estimators cannot. *)

val exact_expected_makespan : ?max_support:int -> plan -> float option
(** Exact (pseudo-polynomial) expected makespan via the M-SPG
    distribution calculus — an extension beyond the paper's
    estimators. The segment graph of a CKPTSOME-family plan is an
    M-SPG by construction ("an M-SPG of superchains", Section II-C);
    when recognition nevertheless fails (e.g. a CKPTALL baseline over
    a raw non-M-SPG workflow) the result is [None]. [max_support]
    bounds the intermediate distribution supports (default 4096;
    expectations remain exact under compaction, see
    {!Ckpt_prob.Dist.compact}). *)
