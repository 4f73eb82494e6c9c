(** M-SPG recognition: from a plain workflow DAG to a decomposition
    tree, if one exists.

    The recogniser implements the recursive characterisation directly:
    - a single task is atomic;
    - a graph with several weakly connected components is their
      parallel composition;
    - a connected graph is a serial composition iff it admits a
      {e valid cut}: a partition (V1, V2) with V1 down-closed whose
      crossing edges are exactly [sinks(V1) x sources(V2)]. Every valid
      cut satisfies [sources(V2) = succ(u)] for each sink [u] of [V1],
      so enumerating the distinct successor sets enumerates all cuts;
      the minimal-[|V1|] cut peels serial factors one at a time.

    With [~complete:true] (the paper's footnote-2 treatment of LIGO),
    when a connected graph admits no valid cut we look for a
    {e completable level cut}: a cut between longest-path levels whose
    crossing edges all go from sinks of V1 to sources of V2, but form
    an incomplete bipartite graph. The missing pairs become dummy
    dependencies ("adds synchronizations but no data transfers"), and
    recognition proceeds. The dummies are never inserted into a DAG:
    the returned tree records the completed cut as a serial
    composition, whose serial cuts imply every pair
    ({!Mspg.implied_edges}). *)

module Dag = Ckpt_dag.Dag

val of_dag : Dag.t -> (Mspg.t, string) result
(** Strict recognition; the input DAG is not modified and backs the
    returned M-SPG.

    @raise Invalid_argument if the graph is cyclic or empty. *)

val of_dag_completed : Dag.t -> (Mspg.t * int, string) result
(** Recognition with bipartite completion. The caller's DAG is neither
    copied nor modified and backs the returned M-SPG; the completion is
    implicit in its tree. Returns the M-SPG and the number of dummy
    dependencies the tree implies beyond the DAG's edges (what
    {!Mspg.validate} reports). *)

val is_mspg : Dag.t -> bool

val prune : Mspg.tree -> new_id:int array -> Mspg.tree
(** [prune tree ~new_id] drops the leaves [t] with [new_id.(t) < 0],
    renames every other leaf [t] to [new_id.(t)], collapses the
    compositions left with one child ({!Mspg.serial},
    {!Mspg.parallel}) and orders every parallel composition's children
    by least id, the order recognition lists components in. O(tree
    size), plus the sorts.

    The law. Let [tree] decompose a DAG [d] whose dependencies are
    exactly the pairs of the tree's serial cuts ({!Mspg.implied_edges}:
    a strict M-SPG — no completed cut, no transitive edge), let the
    dropped set be predecessor-closed (every predecessor of a dropped
    task is dropped), and let [new_id] number the kept tasks in
    increasing order. Then recognising the sub-DAG of [d] induced by
    the kept tasks, renumbered by [new_id], gives [prune tree ~new_id]
    with no dummy dependency. The dropped tasks of a serial
    composition form a prefix of its factors plus part of the next
    one, whose kept sinks are sinks of that factor, so every cut stays
    complete; the components of a parallel composition stay apart.

    Both preconditions matter. On a completed workflow the residual of
    a completed cut may complete differently or need no completion;
    a done set that is not predecessor-closed can empty a middle
    serial factor and disconnect its neighbours. Recognise those
    residuals instead.

    @raise Invalid_argument if every task is dropped. *)

val of_dag_gspg : Dag.t -> (Mspg.t * int, string) result
(** General Series-Parallel Graph recognition — the first step of the
    paper's future work (Section VIII): a DAG is a GSPG iff its
    {e transitive reduction} is an M-SPG. Recognition runs on the
    reduced edge set; the returned M-SPG is backed by the {e original}
    DAG, so transitive data edges keep contributing to the R/C
    checkpoint costs (the extended checkpoint saves any datum with a
    pending consumer, wherever that consumer sits). Returns the number
    of transitive edges that were ignored during recognition.

    Note that [Mspg.validate] legitimately fails on the result when
    transitive edges exist: the decomposition tree implies only the
    reduced dependencies. *)
