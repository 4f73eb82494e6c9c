(** Checkpoint placement inside a superchain (Section IV, Algorithm 2).

    A checkpoint taken after position [j] saves {e all} output data of
    executed-but-unsaved tasks that still have pending consumers (the
    paper's extended checkpoint definition, Figure 4), so a segment
    [i..j] between consecutive checkpoints has:

    - [R(i,j)]: the data read from stable storage — every {e distinct}
      file consumed by tasks of the segment and produced outside it
      (earlier segments or other superchains; all such data is on
      stable storage by construction), plus the initial input files of
      the segment's tasks;
    - [W(i,j)]: the summed task weights;
    - [C(i,j)]: every distinct file produced inside the segment and
      consumed outside it (later tasks of the superchain, or entry
      tasks of later superchains). Shared files are counted once
      (Section VI-A).

    The expected segment time is Eq. (2):
    [T = (1 - λS) S + λS (3/2 S)] with [S = R + W + C] (probability
    clamped at 1 when λS exceeds it), and the optimal checkpoint
    positions minimise total expected time through the
    {!Toueg} recurrence — one packed O(n²) DP on every superchain,
    bit for bit the test suite's reference DP over {!cost_matrix}.
    The final position is always checkpointed, which removes
    crossover dependencies.

    Every cost entry point takes [?replicas] (default 1), the k-way
    checkpoint replication factor of the storage-fault extension: a
    replicated commit writes each escaping file [k] times, so [C] is
    priced at [k·C] while the recovery-read failure probability drops
    geometrically in [k] ({!Ckpt_storage.Storage}). [replicas = 1]
    leaves every cost bitwise unchanged. *)

module Dag = Ckpt_dag.Dag
module Platform = Ckpt_platform.Platform

type segment = {
  chain : int;  (** superchain id *)
  first : int;
  last : int;  (** position range within the superchain, inclusive *)
  read : float;  (** R, in seconds *)
  work : float;  (** W, in seconds *)
  write : float;  (** C, in seconds *)
}

val first_order : lambda:float -> float -> float
(** [first_order ~lambda s]: first-order expected completion of [s]
    seconds of exposed work, [(1 − p)·s + p·(3/2)s] with
    [p = min(1, λs)] — the scalar kernel of Eq. (2), exported for the
    analytic evaluator ({!Ckpt_analytic.Analytic}). *)

val expected_time : lambda:float -> segment -> float
(** Eq. (2). *)

val segment_of :
  ?replicas:int -> Platform.t -> Dag.t -> Superchain.t -> first:int -> last:int -> segment
(** Direct (non-incremental) cost computation of one segment. *)

val cost_matrix : ?replicas:int -> Platform.t -> Dag.t -> Superchain.t -> float array array
(** [m.(j).(i)], for [i <= j], is the expected time of segment [i..j]
    — computed in O(n * sum of degrees) by a descending-[i] sweep per
    [j]. Reference implementation, read by the test suite's reference
    Algorithm 2 and by perfbench; the planning hot path fills a packed
    triangular array through an {!arena} instead, with the same float
    operations in the same order. *)

type arena
(** Preallocated planning scratch (packed cost table, DP arrays,
    per-file stamp arrays), reused across the superchains of one DAG.
    Sharing an arena across domains is a race — parallel planners use
    one arena each. *)

val arena : Dag.t -> arena
(** Fresh scratch sized for [dag]'s file set; segment tables grow on
    demand to the longest superchain planned through it. *)

val optimal_positions :
  ?arena:arena -> ?replicas:int -> Platform.t -> Dag.t -> Superchain.t -> float * int list
(** Algorithm 2: optimal expected superchain time and the sorted
    checkpoint positions (the last position always included). Fills
    the packed cost table and runs {!Toueg.solve_packed} over it. On
    every input the result is bit for bit the one the test suite's
    reference gets from {!cost_matrix} and a closure-cost DP. Passing
    [?arena] (built from the same DAG) reuses scratch across calls. *)

val optimal_positions_budget :
  ?arena:arena ->
  ?replicas:int ->
  Platform.t ->
  Dag.t ->
  Superchain.t ->
  budget:int ->
  float * int list
(** Budget-constrained Algorithm 2 (extension): at most [budget]
    checkpoints in this superchain, the forced final one included.
    Runs {!Toueg.solve_budget_packed}; bit for bit the test suite's
    reference, like {!optimal_positions}. *)

val periodic_positions : Superchain.t -> period:int -> int list
(** Checkpoint after every [period]-th task plus the mandatory final
    position — the naive fixed-interval policy used as an ablation
    baseline against the DP.

    @raise Invalid_argument if [period < 1]. *)

val segments_of_positions :
  ?replicas:int -> Platform.t -> Dag.t -> Superchain.t -> positions:int list -> segment list
(** Cut the superchain at the given sorted positions (which must end
    at the last position) and price each segment. *)

val every_position : Superchain.t -> int list
(** All positions — the CKPTALL policy on this superchain. *)
