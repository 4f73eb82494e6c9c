(** Online schedule repair after a permanent processor loss.

    At the loss instant the residual workflow ({!Residual}) is replanned
    from scratch on the surviving processor set: M-SPG recognition
    (dummy-completing incomplete bipartite blocks if needed), ALLOCATE /
    PROPMAP list scheduling (Algorithm 1) and the O(n²) checkpoint DP
    (Algorithm 2) all re-run on the smaller platform. Checkpointed
    inputs of the residual graph are initial inputs, so their re-reads
    — the migration cost of moving a dead processor's work elsewhere —
    flow into the R terms of the DP exactly like any stable-storage
    read.

    Replanning can fail (no survivors, residual graph not recognisable
    even with completion); callers then fall back to restarting the
    whole workflow from scratch on the survivors. *)

module Dag = Ckpt_dag.Dag
module Platform = Ckpt_platform.Platform
module Strategy = Ckpt_core.Strategy

type t = {
  plan : Strategy.plan;  (** repaired plan over the residual workflow *)
  task_of : int array;  (** residual task id -> original task id *)
  phys : int array;  (** plan processor index -> physical processor id *)
  dummy_edges : int;  (** dummy dependencies completing the residual (implicit in its tree) *)
}

val replan :
  ?replicas:int ->
  kind:Strategy.kind ->
  dag:Dag.t ->
  done_:bool array ->
  survivors:int list ->
  platform:Platform.t ->
  unit ->
  (t, string) result
(** [replan ~kind ~dag ~done_ ~survivors ~platform ()] replans the
    tasks of [dag] not yet checkpointed ([done_]) on the [survivors]
    (physical processor ids of [platform], ascending). The repaired
    plan runs on a heterogeneous sub-platform keeping each survivor's
    own failure rate and the storage bandwidth; [phys] maps its
    processor indices back to physical ids. [kind] is the checkpoint
    policy the replan applies (CKPTSOME re-runs the optimal DP).

    [replicas] prices the repaired plan's commits at [k·C]
    ({!Strategy.plan}). Never raises on unplannable input — returns
    [Error] instead. *)
