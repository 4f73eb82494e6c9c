(** End-to-end experiment pipeline (Section VI methodology).

    From a raw workflow DAG and the experiment knobs ([processors],
    [pfail], [CCR]) to the three strategies' expected makespans:

    + λ is set so that a task of mean weight fails with probability
      [pfail] ([λ = -ln(1-pfail) / w̄]);
    + the storage bandwidth realises the requested CCR (equivalent to
      the paper's file-size scaling);
    + the workflow is recognised as an M-SPG, dummy-completing
      incomplete bipartite blocks if needed. The completion stays
      implicit in the M-SPG tree: CKPTSOME synchronises on the
      completed graph through the tree's serial cuts, the baselines on
      the raw edges, and every checkpoint cost reads the raw DAG;
    + Algorithm 1 schedules it; Algorithm 2 (or the ALL/NONE policy)
      places checkpoints; the selected estimator prices the plans. *)

module Dag = Ckpt_dag.Dag
module Platform = Ckpt_platform.Platform
module Mspg = Ckpt_mspg.Mspg

type setup = private {
  raw : Dag.t;
  mspg : Mspg.t;  (** [raw] and its M-SPG tree, which implies the completion *)
  dummy_edges : int;
      (** dummy dependencies the tree implies beyond [raw]'s edges; 0
          when the raw workflow is already an M-SPG *)
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
    once. A repriced setup keeps [s]'s raw DAG and schedule, so one
    {!Strategy.frame} of [s] plans every cell: a sweep keeps [s] and
    its frame, and flattens each superchain once. The platform is
    always the derived homogeneous one, even when [s] was prepared
    with a caller-built [?platform].
    @raise Invalid_argument if the knobs are out of range. *)

val plan : ?replicas:int -> ?frame:Strategy.frame -> setup -> Strategy.kind -> Strategy.plan
(** [replicas] (default 1) prices checkpoint commits at [k·C] — the replication
    knob of the storage-fault extension ({!Strategy.plan}). [frame] must
    be built from the setup's raw DAG and schedule ({!Strategy.plan});
    a throwaway one by default. *)

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
  ?method_:Ckpt_eval.Evaluator.method_ -> ?frame:Strategy.frame -> setup -> comparison
(** The paper's headline measurement: both baselines' expected
    makespans relative to CKPTSOME's, all under the same estimator
    (default PATHAPPROX). The three plans share [frame] (a throwaway
    one by default). *)
