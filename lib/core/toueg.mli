(** The Toueg–Babaoğlu optimal-checkpoint dynamic program (1984), in
    the generic form shared by the classical linear-chain algorithm
    and the paper's superchain extension (Algorithm 2).

    Tasks [0 .. n-1] execute in sequence; a checkpoint may be taken
    after any task and is mandatory after the last one. [cost(i,j)] is
    the expected time to successfully execute the segment [i..j]
    (inclusive) given a checkpoint right before [i] and one right
    after [j]. The DP

    [ETime j = min (cost(0,j), min over i < j (ETime i + cost(i+1,j)))]

    is optimal because expected segment times are independent across
    checkpoints (a checkpoint regenerates the state), and runs in
    O(n^2) reads of the cost table.

    Costs live in a packed lower-triangular float array — [cost(i,j)]
    at index [j*(j+1)/2 + i] — which {!Placement} fills once per
    superchain; the DP runs straight over it with no cost closure and
    no per-row boxing. The test suite keeps closure-cost reference
    DPs and an exhaustive search, and checks these solvers against
    them bit for bit.

    The DP is agnostic to {e how} segments are priced: k-way
    checkpoint replication ({!Placement}'s [?replicas], storage-fault
    extension) enters purely through the cost table as a [k·C] commit
    term, so the same recurrence places optimal checkpoints for
    replicated plans too. *)

val tri_size : int -> int
(** Slots needed for a packed [n]-task cost table: [n*(n+1)/2]. *)

val solve_packed :
  n:int ->
  tri:float array ->
  etime:float array ->
  last_ckpt:int array ->
  float * int list
(** [solve_packed ~n ~tri ~etime ~last_ckpt] returns the optimal
    expected completion time and the sorted positions after which to
    checkpoint (always including [n-1]). Allocation-free apart from
    the position list: [etime] and [last_ckpt] are caller-provided
    scratch of length at least [n]. Ties keep the earliest split.

    @raise Invalid_argument if [n < 1] or an array is too short. *)

val solve_budget_packed :
  n:int -> tri:float array -> budget:int -> float * int list
(** Budget-constrained variant (an extension beyond the paper): at
    most [budget] checkpoints in total, the mandatory final one
    included. [ETime(j, b) = min(cost(0,j), min over i < j
    (ETime(i, b-1) + cost(i+1,j)))], O(n² · budget), over flat
    budget-major DP arrays.

    @raise Invalid_argument if [n < 1], [budget < 1] or [tri] is too
    short. *)

(** {1 Read only by perfbench}

    perfbench's replay ([perfbench/replay.ml]) is the only reader of
    the three values below: it counts the cost tables that pass the
    quadrangle-inequality guard of a divide-and-conquer solver this
    module no longer has. They go with the replay's benchmark-only fix
    (ROADMAP.md, item 3). *)

val monotone_cutoff : int
(** The chain length (128) from which the replay probes
    {!tri_is_monge}. *)

val tri_is_monge : n:int -> tri:float array -> bool
(** Whether a packed cost table satisfies the Monge condition
    [tri(c,j) + tri(c+1,j+1) <= tri(c+1,j) + tri(c,j+1)] on every
    adjacent 2×2 square of the triangular domain (O(n²) float
    comparisons, early exit on the first violation). *)

val solve_packed_auto :
  n:int ->
  tri:float array ->
  etime:float array ->
  last_ckpt:int array ->
  float * int list
(** {!solve_packed}. *)
