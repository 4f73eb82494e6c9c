(** Minimal Series-Parallel Graphs (M-SPGs), Section II-A of the paper.

    An M-SPG is defined recursively: an atomic task; a serial
    composition [G1 ⨟ G2 ⨟ ... ⨟ Gn] that adds dependencies from all
    sinks of each [Gi] to all sources of [G(i+1)] (without merging
    them, unlike classical SPGs); or a parallel composition
    [G1 ‖ ... ‖ Gn] (plain union). The class covers fork, join and
    complete-bipartite patterns (Figure 1) and hence most production
    Pegasus workflows.

    Here an M-SPG value pairs a decomposition {e tree} with the backing
    {!Ckpt_dag.Dag.t} that holds task weights, edges and files. The
    tree drives the recursive scheduling (Algorithm 1); the DAG holds
    the quantitative data. Every precedence the tree implies is a pair
    of one of its serial cuts ({!implied_edges}). The DAG may lack some
    of these pairs: a workflow made an M-SPG by bipartite completion
    (paper footnote 2) keeps its raw edges, and the dummy dependencies
    stay implicit in the tree's cuts. {!validate} checks that the two agree and counts
    the implicit pairs. *)

module Dag = Ckpt_dag.Dag
module Task = Ckpt_dag.Task

type tree =
  | Leaf of Task.id
  | Serial of tree list  (** >= 2 children, none itself [Serial] *)
  | Parallel of tree list  (** >= 2 children, none itself [Parallel] *)

type t = { dag : Dag.t; tree : tree }

(** {1 Smart constructors}

    [serial] and [parallel] flatten nested compositions and collapse
    singleton lists, maintaining the representation invariants above
    (associativity of both operators makes this canonical enough for
    the algorithms; [serial] preserves order). *)

val leaf : Task.id -> tree
val serial : tree list -> tree
val parallel : tree list -> tree

(** {1 Structural queries} *)

val tree_tasks : tree -> Task.id list
(** All task ids, in tree preorder (serial order respected). *)

val tree_size : tree -> int
val tree_weight : Dag.t -> tree -> float
(** Sum of the weights of the atomic tasks (the [weight] used by
    PROPMAP to balance processor allocations). *)

val tree_sources : tree -> Task.id list
(** Sources of the sub-M-SPG: sources of the first serial factor /
    union over parallel branches / the leaf itself. *)

val tree_sinks : tree -> Task.id list

val depth : tree -> int

(** {1 Canonical decomposition (Algorithm 1, line 3)} *)

type decomposition = {
  chain : Task.id list;  (** [C]: the longest possible leading chain *)
  branches : tree list;  (** [G1 ... Gn]: the parallel composition after [C] *)
  rest : tree option;  (** [G(n+1)]: remaining serial suffix *)
}

val decompose : tree -> decomposition
(** Views the tree as [C ⨟ (G1 ‖ ... ‖ Gn) ⨟ G(n+1)] with [C] maximal,
    which avoids the infinite recursions noted in the paper. For a
    pure chain, [branches = \[\]] and [rest = None]. *)

(** {1 Consistency with the backing DAG} *)

val implied_edges : tree -> (Task.id * Task.id) list
(** The exact edge set the M-SPG definition induces for this tree: the
    products of its serial cuts, each pair once. A serial cut is, for a
    serial composition [G1 ⨟ ... ⨟ Gn] and some [i < n], the pair
    [(tree_sinks Gi, tree_sources G(i+1))]: every task of the first
    list precedes every task of the second. In a tree holding each task
    once, a task is a sink in at most one cut and a source in at most
    one cut, so each implied pair belongs to exactly one cut. *)

val implied_count : tree -> int
(** [List.length (implied_edges tree)] for a tree holding each task
    once, counted in O(tree size) without listing the pairs. *)

val completion : t -> (Task.id list * Task.id list) list
(** The serial cuts whose pairs the DAG does not all hold as edges:
    empty for a strict M-SPG; after a bipartite completion, the cuts
    carrying its dummy dependencies (their pairs minus the DAG's
    edges). Every other cut's pairs are DAG edges. The tree must hold
    each DAG task once (as {!validate} checks). *)

val validate : t -> (int, string) result
(** Checks that the tree contains every DAG task exactly once and that
    every DAG edge is one of {!implied_edges}. Returns how many implied
    pairs the DAG lacks: 0 for a strict M-SPG, the dummy count for a
    bipartite completion. *)

(** {1 Building M-SPGs from blueprints (tests, examples)} *)

type blueprint =
  | Btask of string * float  (** name, weight *)
  | Bserial of blueprint list
  | Bparallel of blueprint list

val build : ?name:string -> ?edge_size:(int -> int -> float) -> blueprint -> t
(** Materialises a blueprint: creates tasks, derives the implied edges,
    and gives the edge [src -> dst] a fresh file of size
    [edge_size src dst] (default: constant 1.0). *)

val pp_tree : Format.formatter -> tree -> unit
