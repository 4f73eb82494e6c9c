(** NORMAL estimator (Sculli 1983).

    Propagates (mean, variance) pairs through the DAG under a normality
    assumption: the completion time of a node is
    [max over preds (completion) + duration], where the maximum of two
    normals is moment-matched back to a normal with Clark's formulas
    (predecessors treated as independent, Sculli's original
    assumption). Fast — O(m) Clark steps — but biased on graphs with
    strongly correlated paths. *)

val estimate : Prob_dag.t -> float
(** Estimated expected makespan. *)
