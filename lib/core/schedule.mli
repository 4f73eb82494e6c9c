(** A complete mapping of an M-SPG workflow onto a platform: the list
    of superchains produced by ALLOCATE, plus derived indices.

    The schedule keeps the raw workflow and its M-SPG tree side by
    side. Its precedences are the DAG's edges plus the pairs of the
    tree's serial cuts ({!Ckpt_mspg.Mspg.implied_edges}): for a workflow
    made an M-SPG by bipartite completion, the cuts carry the dummy
    dependencies that the DAG does not hold. The cuts with such pairs
    are derived once, as [completion], so that a strict workflow pays
    nothing for them; {!macro_edges}, {!check} and every
    CKPTSOME-family plan read them. *)

module Dag = Ckpt_dag.Dag
module Task = Ckpt_dag.Task
module Mspg = Ckpt_mspg.Mspg

type t = private {
  dag : Dag.t;  (** the raw workflow *)
  csr : Ckpt_dag.Compiled.t;
      (** [dag]'s flat adjacency, taken by {!make}; {!Strategy}'s W_par
          sweep reads it *)
  tree : Mspg.tree;  (** its decomposition; the completion lives in the serial cuts *)
  completion : (Task.id list * Task.id list) list;
      (** {!Ckpt_mspg.Mspg.completion}: the cuts whose pairs [dag] lacks *)
  processors : int;
  superchains : Superchain.t array;  (** indexed by superchain id, in creation (temporal) order *)
  chain_of_task : int array;  (** task id -> superchain id *)
}

val make :
  dag:Dag.t -> tree:Mspg.tree -> processors:int -> superchains:Superchain.t list -> t
(** @raise Invalid_argument unless the superchains partition the DAG's
    tasks and their ids equal their positions. *)

val macro_edges : t -> (int * int) list
(** Distinct superchain dependencies [(i, j)], [i <> j], induced by the
    DAG's edges and the completed cuts, in no particular order.
    Always acyclic for schedules built by ALLOCATE. *)

val chains_of_processor : t -> int -> Superchain.t list
(** Superchains of one processor, in temporal order. *)

val used_processors : t -> int
(** Number of processors that received at least one task. *)

val check : t -> (unit, string) result
(** Structural sanity: every intra-superchain dependency (DAG edge or
    cut pair) goes forward in the linearised order, and the macro graph
    is acyclic. *)
