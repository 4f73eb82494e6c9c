(** Online schedule repair after a permanent processor loss.

    At the loss instant the residual workflow ({!Residual}) is replanned
    on the surviving processor set, starting from the plan it repairs:
    ALLOCATE / PROPMAP list scheduling (Algorithm 1) and the O(n²)
    checkpoint DP (Algorithm 2) re-run on the smaller platform, over
    the residual's M-SPG tree. That tree comes one of two ways:
    - the plan's own tree, pruned to the residual
      ({!Ckpt_mspg.Recognize.prune}), when the tree implies exactly the
      raw workflow's dependencies (a strict M-SPG such as GENOME,
      CYBERSHAKE or SIPHT: no completed cut, no transitive edge) and
      the done set is predecessor-closed (every predecessor of a done
      task is done, as in every store-free trial); recognition would
      return that very tree;
    - M-SPG recognition of the residual otherwise (dummy-completing
      incomplete bipartite blocks if needed): on completed workflows
      such as MONTAGE and LIGO, and on done sets that latent storage
      corruption left open.
    Checkpointed inputs of the residual graph are initial inputs, so
    their re-reads — the migration cost of moving a dead processor's
    work elsewhere — flow into the R terms of the DP exactly like any
    stable-storage read.

    Replanning can fail (no survivors, residual graph not recognisable
    even with completion); callers then fall back to restarting the
    whole workflow from scratch on the survivors. *)

module Strategy = Ckpt_core.Strategy

type t = {
  plan : Strategy.plan;  (** repaired plan over the residual workflow *)
  task_of : int array;  (** residual task id -> original task id *)
  phys : int array;  (** plan processor index -> physical processor id *)
  dummy_edges : int;  (** dummy dependencies completing the residual (implicit in its tree) *)
}

val replan :
  kind:Strategy.kind ->
  done_:bool array ->
  survivors:int list ->
  Strategy.plan ->
  (t, string) result
(** [replan ~kind ~done_ ~survivors plan] replans the tasks of
    [plan]'s raw workflow not yet checkpointed ([done_]) on the
    [survivors] (physical processor ids of [plan]'s platform,
    ascending). The repaired plan runs on a heterogeneous sub-platform
    keeping each survivor's own failure rate and the storage
    bandwidth; [phys] maps its processor indices back to physical ids.
    [kind] is the checkpoint policy the replan applies (CKPTSOME
    re-runs the optimal DP); commits are priced at [plan]'s replica
    count ({!Strategy.plan}). The path to the residual's tree is chosen
    from [plan]'s schedule and [done_] alone, and both paths give the
    same tree. Never raises on unplannable input — returns [Error]
    instead. *)
