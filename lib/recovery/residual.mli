(** Residual workflow after a permanent processor loss.

    At the instant of loss, every segment whose checkpoint committed
    has all of its output data on stable storage (Figure 4 semantics:
    the checkpoint saved every executed-but-unsaved file with a pending
    consumer). The tasks of those segments are {e done}; what remains
    is the sub-DAG induced by the other tasks, with one twist — an edge
    from a done task into the residual carries a file that now lives on
    stable storage, so the consumer re-reads it from there on every
    execution attempt, exactly like an initial input. That re-read is
    the migration cost: a surviving processor picking up the work of
    the dead one pays for pulling the checkpointed data back in.

    A checkpointed file consumed by several residual tasks is charged
    once per consumer (initial inputs carry no file identity); the
    repaired plan's expected makespan is thus a slight upper bound when
    such sharing exists — conservative, never optimistic. *)

module Dag = Ckpt_dag.Dag

val build : dag:Dag.t -> done_:bool array -> Dag.t * int array
(** [build ~dag ~done_] is the residual workflow over the tasks [t]
    with [done_.(t) = false], plus the mapping from residual task ids
    back to original ones. Internal edges keep their files (sharing
    preserved); original initial inputs are kept; edges from done
    producers become initial inputs of their consumers (the migration
    re-reads). A done task whose checkpoint no longer reads back is
    the caller's to clear from [done_] first: the replan loop
    ({!Ckpt_sim.Replan}) revalidates the committed frontier before
    every replan.

    @raise Invalid_argument if [done_] does not match the DAG's task
    count or if every task is done (nothing left to plan). *)
