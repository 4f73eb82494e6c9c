(** End-to-end experiment pipeline (Section VI methodology).

    From a raw workflow DAG and the experiment knobs ([processors],
    [pfail], [CCR]) to the three strategies' expected makespans:

    + λ is set so that a task of mean weight fails with probability
      [pfail] ([λ = -ln(1-pfail) / w̄]);
    + the storage bandwidth realises the requested CCR (equivalent to
      the paper's file-size scaling);
    + the workflow is recognised as an M-SPG, dummy-completing
      incomplete bipartite blocks if needed (CKPTSOME processes the
      completed graph, the baselines the raw one);
    + Algorithm 1 schedules it; Algorithm 2 (or the ALL/NONE policy)
      places checkpoints; the selected estimator prices the plans. *)

module Dag = Ckpt_dag.Dag
module Platform = Ckpt_platform.Platform
module Mspg = Ckpt_mspg.Mspg

type setup = private {
  raw : Dag.t;
  mspg : Mspg.t;  (** completed workflow backing the schedule *)
  dummy_edges : int;  (** 0 when the raw workflow is already an M-SPG *)
  platform : Platform.t;
  schedule : Schedule.t;
  pfail : float;
  ccr : float;
}

val prepare :
  ?policy:Linearize.policy ->
  ?platform:Platform.t ->
  dag:Dag.t ->
  processors:int ->
  pfail:float ->
  ccr:float ->
  unit ->
  setup
(** [platform] overrides the derived homogeneous platform with a
    caller-built one (heterogeneous rates, speeds, prices — the cloud
    extension); its processor count must equal [processors], and
    [pfail] / [ccr] are then recorded verbatim without deriving λ or
    the bandwidth from them.
    @raise Invalid_argument if the workflow cannot be recognised (even
    with completion) or the knobs are out of range. *)

val reprice : setup -> pfail:float -> ccr:float -> setup
(** [reprice s ~pfail ~ccr] is [s] at other knobs: the same raw DAG,
    completed M-SPG, dummy count and schedule (physically), with λ and
    the bandwidth re-derived by the helper {!prepare} uses. Recognition,
    completion and ALLOCATE depend on neither knob, so the result
    equals [prepare ~dag:s.raw ~pfail ~ccr] at [s]'s processor count
    and linearisation policy, and a CCR sweep recognises and schedules
    once. The platform is always the derived homogeneous one, even
    when [s] was prepared with a caller-built [?platform].
    @raise Invalid_argument if the knobs are out of range. *)

val plan : ?jobs:int -> ?replicas:int -> setup -> Strategy.kind -> Strategy.plan
(** [jobs] fans the per-superchain placement DPs over domains
    (default 1); the plan is identical for any value. [replicas]
    (default 1) prices checkpoint commits at [k·C] — the replication
    knob of the storage-fault extension ({!Strategy.plan}). *)

val plan_many :
  ?jobs:int -> (setup * Strategy.kind * int) array -> Strategy.plan array
(** [plan_many ~jobs requests] plans a batch of
    [(setup, kind, replicas)] requests over the resident
    {!Ckpt_parallel.Pool.shared} pool, parallelising {e across}
    requests (each individual request plans sequentially on its own
    arena). Results are in request order and identical to mapping
    {!plan} — this is the amortised entry point the serve daemon and
    replan loops use. *)

type comparison = {
  em_some : float;
  em_all : float;
  em_none : float;
  rel_all : float;  (** EM(CKPTALL) / EM(CKPTSOME) — Figures 5-7 series *)
  rel_none : float;  (** EM(CKPTNONE) / EM(CKPTSOME) *)
  ckpts_some : int;  (** number of checkpoints CKPTSOME takes *)
  ckpts_all : int;  (** = number of tasks *)
}

val compare_strategies :
  ?method_:Ckpt_eval.Evaluator.method_ -> setup -> comparison
(** The paper's headline measurement: both baselines' expected
    makespans relative to CKPTSOME's, all under the same estimator
    (default PATHAPPROX). *)
