(** Workflow tasks.

    A task is an atomic unit of sequential computation with a
    failure-free execution time (its {e weight}, in seconds) and a
    human-readable name (the Pegasus transformation name, e.g.
    ["mProjectPP"]). Task identity within a workflow is its integer
    index in the owning {!Dag.t}. *)

type id = int
(** Index of a task inside its workflow DAG. *)

type t = { id : id; name : string; weight : float }

val make : id:id -> name:string -> weight:float -> t
(** @raise Invalid_argument if [weight < 0.]. *)
