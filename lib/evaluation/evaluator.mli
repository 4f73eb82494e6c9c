(** Uniform dispatch over the expected-makespan estimators of
    Section II-B. *)

type method_ =
  | Montecarlo of { trials : int; seed : int }
  | Dodin of { max_support : int }
  | Normal
  | Pathapprox

val default_montecarlo : method_
(** 10_000 trials, seed 1. *)

val all_fast : method_ list
(** The three non-Monte-Carlo estimators. *)

val name : method_ -> string
val of_name : string -> method_ option
val estimate : method_ -> Prob_dag.t -> float
