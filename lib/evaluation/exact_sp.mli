(** Exact (pseudo-polynomial) makespan distribution on M-SPG-shaped
    2-state DAGs — Möhring's distribution calculus, an extension
    beyond the paper used here to validate the estimators.

    An M-SPG's makespan satisfies makespan(G1 ⨟ G2) = makespan(G1) +
    makespan(G2) (every source of G2 waits for every sink of G1) and
    makespan(G1 ‖ G2) = max of the two, with the operands independent
    — so a fold over the decomposition tree with convolutions and
    CDF-product maxima computes the {e exact} distribution. Support
    grows exponentially in the worst case (the problem stays weakly
    NP-hard), hence the optional compaction bound; with [max_support =
    max_int] the result is exact. *)

val distribution :
  ?max_support:int ->
  Ckpt_mspg.Mspg.tree ->
  node_dist:(Ckpt_dag.Task.id -> Ckpt_prob.Dist.t) ->
  Ckpt_prob.Dist.t
(** Fold the tree; [node_dist] gives each leaf's duration
    distribution. [max_support] defaults to 4096. *)
