(** Globally-aware refinement of checkpoint positions (extension).

    Algorithm 2 is optimal per superchain — it minimises each
    superchain's expected {e duration} in isolation — but the global
    objective is the expected {e makespan}, where only critical-path
    superchains matter: off-path superchains could afford denser (or
    sparser) checkpointing without the DP noticing. This module
    measures how much that matters: starting from any plan, a
    best-improvement local search toggles one checkpoint position at a
    time (the forced final position of every superchain is kept),
    re-evaluating the global expected makespan with PATHAPPROX.

    Empirically the gain over CKPTSOME is marginal (see the bench's
    refinement ablation) — evidence that the paper's decomposition
    loses almost nothing globally. *)

type result = {
  plan : Strategy.plan;
  initial_em : float;
  final_em : float;
  moves : int;  (** improving moves applied *)
  evaluations : int;  (** candidate plans priced *)
}

val hill_climb : ?max_rounds:int -> Strategy.plan -> result
(** [hill_climb plan] runs best-improvement rounds until a round finds
    no improving toggle or [max_rounds] (default 10) is reached. Every
    candidate is priced by PATHAPPROX.

    @raise Invalid_argument on a CKPTNONE plan. *)
