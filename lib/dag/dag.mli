(** Weighted workflow DAGs with explicit data files on edges.

    Tasks are nodes; every dependency edge [Ti -> Tj] carries the
    {e file} produced by [Ti] and read by [Tj]. Files are first-class
    because a task may produce one file consumed by several successors
    (common in Pegasus workflows) — a checkpoint must then save that
    file {e once}, so costs cannot be derived from per-edge sizes
    alone (paper, Section VI-A).

    The structure is a mutable builder: create, add tasks / files /
    edges, then query. All queries assume the graph is acyclic;
    {!check_acyclic} verifies it. *)

type file = { file_id : int; producer : Task.id; size : float }
(** A datum written by [producer]; [size] is in abstract data units
    (bytes). Transfer/checkpoint time = size / storage bandwidth. *)

type t

val create : ?name:string -> unit -> t
(** Fresh empty DAG. [name] is used in error messages and dot output. *)

val name : t -> string

val add_task : t -> name:string -> weight:float -> Task.id
(** Appends a task; returns its index (tasks are numbered 0,1,2,...). *)

val add_file : t -> producer:Task.id -> size:float -> int
(** Declares a file produced by a task; returns the file id.

    @raise Invalid_argument if [producer] is unknown or [size < 0.]. *)

val add_input : t -> Task.id -> float -> unit
(** [add_input d task size] declares that [task] reads an initial file
    of the given size from stable storage. Initial inputs are never
    checkpointed (they already reside on stable storage) but are
    (re-)read on every execution attempt of their consumer, and they
    count towards the workflow's total data volume (CCR). *)

val inputs : t -> Task.id -> float list
(** Sizes of the initial input files of a task. *)

val add_edge : t -> ?file:int -> Task.id -> Task.id -> float -> unit
(** [add_edge d src dst size] adds a dependency edge carrying a fresh
    file of the given [size], unless [?file] names an existing file
    (whose producer must be [src]; [size] is then ignored). Parallel
    edges between the same tasks are allowed when they carry distinct
    named files (a job may read several files from one parent);
    repeating the same (src, dst, file) triple — or adding a second
    anonymous edge between the same tasks — is rejected.

    @raise Invalid_argument on unknown endpoints, [src = dst],
    duplicate edge, or producer mismatch. *)

(** {1 Structure queries} *)

val n_tasks : t -> int
val n_edges : t -> int
val task : t -> Task.id -> Task.t
val tasks : t -> Task.t array
val weight : t -> Task.id -> float
val total_weight : t -> float

val file : t -> int -> file
val files : t -> file array
val n_files : t -> int
val total_data : t -> float
(** Sum of all file sizes, each file counted once. *)

val scale_files : t -> float -> unit
(** Multiplies every file size by the given non-negative factor (the
    CCR-scaling knob of Section VI-A). *)

val set_weight : t -> Task.id -> float -> unit

val succs : t -> Task.id -> (Task.id * file) list
(** Outgoing edges, ordered by target id. *)

val preds : t -> Task.id -> (Task.id * file) list
(** Incoming edges [(source, file)], ordered by source id. *)

val succ_ids : t -> Task.id -> Task.id list
val pred_ids : t -> Task.id -> Task.id list
val has_edge : t -> Task.id -> Task.id -> bool
val sources : t -> Task.id list
(** Tasks without predecessors, in id order. *)

val sinks : t -> Task.id list
(** Tasks without successors, in id order. *)

(** {1 Validation} *)

type violation =
  | Cycle of Task.id list
      (** Tasks trapped on directed cycles (every listed task lies on
          or behind a cycle). *)
  | Bad_weight of Task.id * float  (** NaN or negative task weight. *)
  | Bad_file_size of int * float  (** NaN or negative file size. *)
  | Bad_input_size of Task.id * float
      (** NaN or negative initial-input size. *)
  | Dangling_producer of int
      (** A file whose producer is not a task of the DAG. *)
  | Duplicate_task_id of Task.id
      (** A task whose recorded id disagrees with its index. *)
  | Duplicate_edge of Task.id * Task.id * int
      (** The same (src, dst, file) triple recorded twice. *)

val violation_to_string : violation -> string
(** One-line rendering, e.g. ["task 3 (mDiff): weight nan"]. *)

val validate : t -> (unit, violation list) result
(** Structural soundness check run at input boundaries before any
    scheduling: detects cycles, NaN/negative task weights, NaN/negative
    file and initial-input sizes, dangling file producers, duplicate
    task ids and duplicate edges. [Ok ()] on a well-formed DAG;
    otherwise every violation found, in deterministic order. Unlike the
    builder's [Invalid_argument] guards this never raises, so callers
    can degrade gracefully on hostile input (the builder cannot catch a
    NaN smuggled through {!set_weight} or a cycle assembled edge by
    edge). *)

(** {1 Algorithms} *)

val check_acyclic : t -> unit
(** @raise Invalid_argument if the graph has a cycle. *)

val topological_sort : ?rng:Ckpt_prob.Rng.t -> t -> Task.id array
(** Kahn's algorithm. Without [rng], ties break by smallest id
    (deterministic); with [rng], the ready task is drawn uniformly
    (the "random topological sort" of ONONEPROCESSOR).

    @raise Invalid_argument if the graph has a cycle. *)

val longest_path : ?weight:(Task.id -> float) -> t -> float
(** Length of the longest path, node weights given by [weight]
    (default: task weights). This is the failure-free makespan with
    unbounded processors when communications are free. *)

val critical_path : t -> Task.id list
(** One longest path (task ids in execution order). *)

val levels : t -> int array
(** [levels d].(i) = length (in hops) of the longest edge path from a
    source to task [i]; sources are at level 0. *)

val transitive_closure : t -> bool array array
(** Reachability matrix: [m.(i).(j)] iff there is a non-empty path
    from [i] to [j]. *)

val transitive_reduction_edges : t -> (Task.id * Task.id) list
(** Edges of the transitive reduction (the paper's gateway to General
    SP graphs: a DAG is a GSPG iff its transitive reduction is an
    M-SPG). *)

val copy : t -> t
(** Deep copy (tasks, edges, files, inputs). Mutating the copy leaves
    the original untouched — used to dummy-complete a workflow for
    CKPTSOME while the baselines keep the raw graph. *)

val induced : t -> Task.id list -> t * Task.id array
(** [induced d ids] is the sub-DAG induced by [ids] plus the array
    mapping new ids to original ids (ascending: new ids keep the old
    order). Edges internal to [ids] are kept with their files (file
    sizes copied; sharing within the subgraph preserved); initial
    inputs are not copied.

    Built in one pass, O(tasks + edges): each kept task's out- and
    in-edge rows are filtered to the subset and renamed, so they keep
    their order (sorted, parallel file edges in insertion order), and
    a file is recreated at its first kept edge, producers in id order
    and each out-row in order. The result is the DAG obtained by adding
    the kept tasks in id order, then each kept edge through
    {!add_edge} in that same order: same tasks, file table, rows and
    edge count. The result is an ordinary builder, open to further
    additions. *)

val to_dot : t -> string
(** Graphviz rendering for debugging and the examples. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: name, tasks, edges, total weight, total data. *)
