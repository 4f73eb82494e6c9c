(** Superchains (Section II-C).

    When ALLOCATE maps a sub-M-SPG onto a single processor, its atomic
    tasks are linearised and executed sequentially: the resulting task
    set is a {e superchain} — a chain with forward dependencies that
    may skip over immediate successors. Entry (resp. exit) tasks are
    those with predecessors (resp. successors) outside the superchain;
    by the M-SPG structure, predecessors of entry tasks are exit tasks
    of earlier superchains, so checkpointing every superchain's exit
    data removes all crossover dependencies. *)

module Dag = Ckpt_dag.Dag
module Task = Ckpt_dag.Task

type t = private {
  id : int;  (** index in the schedule, in creation (temporal) order *)
  processor : int;
  order : Task.id array;  (** execution order of the tasks *)
  position : (Task.id, int) Hashtbl.t;  (** inverse of [order] *)
}

val make : id:int -> processor:int -> order:Task.id array -> t
(** @raise Invalid_argument on an empty or duplicate-containing order. *)

val n_tasks : t -> int
val mem : t -> Task.id -> bool
val position : t -> Task.id -> int
(** @raise Not_found if the task is not in the superchain. *)

val task_at : t -> int -> Task.id

val entry_tasks : Dag.t -> t -> Task.id list
(** Tasks with at least one predecessor outside the superchain. *)

val exit_tasks : Dag.t -> t -> Task.id list
(** Tasks with at least one successor outside the superchain. *)
