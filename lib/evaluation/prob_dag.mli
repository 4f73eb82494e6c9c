(** 2-state probabilistic DAGs (Section II-B).

    Every node's duration is an independent random variable taking a
    [base] value with probability [1 - pfail] and a [degraded] value
    with probability [pfail]. Under the paper's first-order model a
    checkpointed task segment of total cost [S = R + W + C] on a
    processor of failure rate λ has [base = S], [degraded = 3/2 S] and
    [pfail = λ S] (Eq. 2). The makespan is the longest path (sum of
    node durations along a path, maximised over paths); computing its
    expectation exactly is #P-complete, hence the estimators in
    {!Montecarlo}, {!Dodin}, {!Sculli}, {!Pathapprox}.

    The type {!t} is a mutable builder. Behind it sits a {!compiled}
    form — flat CSR successor/predecessor arrays, node fields in
    unboxed float arrays, the topological order computed once — that
    every traversal ({!topological_order}, {!longest_path_with},
    {!sample}, ...) goes through; it is (re)built lazily after
    mutations. Compiling also deduplicates parallel edges, so
    {!add_edge} is O(1) instead of scanning the successor list.
    The weight-free part of the compiled form is a {!topology}, which
    {!reweight} turns back into a graph at other node weights without
    rebuilding anything.

    {b Join nodes.} {!add_join} synchronises a set of nodes on another
    through one zero-duration node instead of every pair: a bipartite
    completion's |X|·|Y| dummy dependencies cost |X|+|Y| edges. Joins
    exist in two views:
    - the {e joined} graph ({!compile}, hence {!sample},
      {!longest_path_with}, {!deterministic_makespan}, {!base_paths})
      holds each join as a node of duration 0 and pfail 0, with an id
      after every real node. Longest paths over it are bitwise those
      over the expanded graph: they are max-plus sums, [max] is exact,
      and [d +. 0. = d] for every [d >= +0.]; a join draws no random
      number, so samples are bitwise the same too;
    - the {e expanded} view — {!n_nodes}, {!node}, {!succs}, {!preds},
      {!topological_order}, {!dist_of_node} — has the real nodes only,
      each join replaced by the direct edges it stands for. Estimators
      whose arithmetic is not max-exact (DODIN's compaction, NORMAL's
      Clark fold) and per-node consumers read this view. It is
      derived from the joined graph on first use and cached in its
      {!topology}, so every graph reweighted onto one topology shares
      it. *)

type node = { base : float; degraded : float; pfail : float }

type t

val create : unit -> t

val add_node : t -> base:float -> degraded:float -> pfail:float -> int
(** @raise Invalid_argument unless [0 <= base <= degraded] and
    [0 <= pfail <= 1], or on a reweighted graph. *)

val add_edge : t -> int -> int -> unit
(** O(1); duplicate edges are removed at compile time (they are
    semantically idempotent for longest paths). @raise Invalid_argument
    on unknown endpoints, self-loops or a reweighted graph. *)

val add_join : t -> int list -> int list -> unit
(** [add_join t preds succs]: every node of [succs] waits for every
    node of [preds], through one join node. The expanded view gets the
    edges [u -> v] for [u] in [preds] and [v] in [succs].
    @raise Invalid_argument on unknown nodes, an empty side or a
    reweighted graph. *)

val n_nodes : t -> int
(** Real nodes; joins are not counted. *)

val n_joins : t -> int
(** Join nodes added so far. *)

val node : t -> int -> node

val succs : t -> int -> int list
(** Successors in the expanded view, sorted ascending and
    deduplicated. *)

val preds : t -> int -> int list
(** Predecessors in the expanded view, sorted ascending and
    deduplicated. *)

val topological_order : t -> int array
(** A topological order of the real nodes (the expanded view).
    @raise Invalid_argument on cycles. *)

val expected_work : t -> float
(** Sum over nodes of the expected duration — a cheap sanity metric. *)

val longest_path_with : t -> (int -> float) -> float
(** Longest path when real node [i] lasts [f i] (joins last 0; [f] is
    called on real nodes only). *)

val base_paths : t -> float array * float array
(** [(top, bottom)] for every real node [i]: the longest path of
    [base] durations ending right before [i], and the one starting
    right after it — the two sweeps of PATHAPPROX, over the joined
    graph.
    @raise Invalid_argument on cycles. *)

val deterministic_makespan : t -> float
(** Longest path with every node at its [base] value. *)

val sample : t -> Ckpt_prob.Rng.t -> float
(** Draw one makespan realisation (independent node states). [rng]
    seeds a {!Ckpt_prob.Rng.stream} (advancing [rng] by one draw); node
    states are then drawn from it in node-id order — one
    [stream_uniform] compared against [pfail] per node with
    [pfail > 0], so never for a join. Uses a scratch buffer cached inside [t]: convenient
    and allocation-free from a single domain, but NOT safe to call on
    the same [t] from several domains — parallel callers compile once
    and give each domain its own {!sampler}. *)

val dist_of_node : t -> int -> Ckpt_prob.Dist.t
(** The node's two-point duration distribution. *)

(** {2 Compiled form} *)

type compiled
(** Immutable frozen graph. Safe to share read-only across domains. *)

val compile : t -> compiled
(** Freeze the joined graph (memoised; invalidated by {!add_node} /
    {!add_edge} / {!add_join}). Cheap to call repeatedly on an
    unchanged graph. *)

type sampler
(** A compiled graph plus per-domain scratch buffers: sampling through
    one allocates nothing in steady state. A sampler must not be shared
    between domains; derive one per worker from the shared
    {!compiled}. *)

val sampler : compiled -> sampler
(** @raise Invalid_argument on a cyclic graph. *)

val sample_with : sampler -> Ckpt_prob.Rng.t -> float
(** Same draw semantics as {!sample} (node-id order), zero allocation. *)

(** {2 Reweighting} *)

type topology
(** The weight-free structure of a compiled graph: the joined graph's
    CSR arrays and topological order, and the expanded view, derived
    on first use and published atomically. Safe to share across
    domains. *)

val topology : t -> topology
(** [t]'s structure: its compiled form's, or its graph frozen without
    the node weights when it is not compiled. *)

val reweight : topology -> base:float array -> degraded:float array -> pfail:float array -> t
(** [reweight top ~base ~degraded ~pfail]: the graph of [top] with
    real node [i] at [base.(i)], [degraded.(i)] and [pfail.(i)] —
    bitwise the graph that the same nodes, edges and joins would
    build at those weights, sampler thresholds included, without
    sorting or ordering anything again. Every node is checked as
    {!add_node} checks it. The result is frozen: {!add_node},
    {!add_edge} and {!add_join} refuse it. When [top] has no join the
    arrays become the graph's own, so the caller must not change them
    afterwards.
    @raise Invalid_argument unless each array holds one entry per real
    node, or on a node {!add_node} would refuse. *)
