(** Linearisation of a sub-M-SPG onto one processor (ONONEPROCESSOR).

    Produces a topological order of a task subset of the workflow.
    The paper uses a random topological sort and names volume-aware
    orders as future work (the sum-cut connection, Section VIII); all
    three policies are provided so the ablation bench can compare
    them:

    - [Deterministic]: smallest task id first (reproducible default);
    - [Random rng]: uniformly random ready-task choice (the paper's
      stated policy);
    - [Min_volume]: greedy heuristic picking the ready task that
      minimises the volume of live output data (files produced by
      executed tasks that still have pending consumers) — fewer live
      bytes when a checkpoint is taken means cheaper checkpoints. *)

type policy = Deterministic | Random of Ckpt_prob.Rng.t | Min_volume

val order :
  ?cuts:(Ckpt_dag.Task.id list * Ckpt_dag.Task.id list) list ->
  Ckpt_dag.Dag.t ->
  Ckpt_dag.Task.id list ->
  policy ->
  Ckpt_dag.Task.id array
(** [order ?cuts dag tasks policy] topologically sorts [tasks] w.r.t.
    the edges of [dag] internal to the subset plus the pairs of [cuts]
    internal to it (every task of a cut's first list precedes every
    task of its second; default none) — the completed serial cuts of
    the M-SPG ({!Ckpt_mspg.Mspg.completion}), which carry a bipartite
    completion's dummy dependencies. The order is the one over a copy
    of [dag] holding every missing cut pair as an edge, under every
    policy. Min_volume reads file sizes from [dag] alone: a dummy pair
    would carry an empty file, and adding [0.] to a byte sum changes
    no bit.

    @raise Invalid_argument if the induced subgraph is cyclic. *)
