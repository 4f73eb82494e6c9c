(** Minimal hand-rolled domain pool for OCaml 5 multicore.

    The resident pool ({!create} / {!run_in} / {!map_in}, and the
    process-wide {!shared} pool behind {!run_shared} / {!map_shared})
    spawns its helper domains once and parks them between batches, so
    repeated small parallel regions — per-superchain placement DPs,
    degrade/cloud replan loops, daemon request batches — pay the spawn
    cost once instead of per call. Batches additionally clamp their
    width to {!available_jobs}, so an oversubscribed [--jobs] degrades
    to the sequential inline path instead of thrashing one core with
    many domains. Nested submissions from inside a batch body run
    inline sequentially rather than deadlocking.

    The pool makes no determinism promises by itself: workers race for
    work. Determinism is the {e caller's} job and is achieved in this
    repository by deriving all randomness from the work-item index
    ({!Ckpt_prob.Rng.for_trial}) and reducing partial results in a
    fixed order — see {!Ckpt_eval.Montecarlo}. *)

val available_jobs : unit -> int
(** The runtime's recommended domain count (at least 1) — a sensible
    default for a [--jobs] flag. *)

val effective_jobs : int -> int
(** [effective_jobs jobs] is [jobs] clamped to [[1, available_jobs ()]]
    — the batch width the resident-pool API will actually use. *)

(** {1 Resident pool} *)

type t
(** A long-lived pool of helper domains. Helpers are spawned by
    {!create} and parked on a condition variable between batches;
    {!shutdown} joins them. At most one batch runs at a time per pool;
    concurrent submissions from different domains are safe and simply
    queue on an internal submit lock ([ckptwf serve] connection
    handlers share the one resident pool this way). Submitting from
    {e inside} a running batch body still runs inline. *)

val create : ?jobs:int -> unit -> t
(** [create ?jobs ()] spawns a pool with capacity [jobs] (caller
    included; default {!available_jobs}). [jobs - 1] helper domains
    are spawned immediately and live until {!shutdown}.

    @raise Invalid_argument when [jobs < 1]. *)

val size : t -> int
(** Capacity of the pool (maximum batch width, caller included). *)

val run_in : t -> jobs:int -> (worker:int -> unit) -> unit
(** [run_in t ~jobs body] runs [body ~worker] as one batch on
    [min (effective_jobs jobs) (size t)] domains of the pool —
    the caller plus parked helpers — and returns once all are done,
    re-raising the first worker exception. When the clamped width is 1,
    or when called from inside a batch body, [body ~worker:0] runs
    inline on the caller with no synchronisation. Concurrent callers
    on different domains serialise: each waits its turn for the whole
    pool rather than interleaving batches.

    @raise Invalid_argument when [jobs < 1] or [t] was shut down. *)

val map_in : t -> jobs:int -> int -> (int -> 'a) -> 'a array
(** [map_in t ~jobs n f] is [Array.init n f] executed as a single
    batch on the resident pool: indices are claimed dynamically, so [f]
    must be safe to call concurrently from several domains; results
    come back in index order regardless of scheduling. When some call
    to [f] raises, workers stop claiming new indices and the first
    exception is re-raised.

    @raise Invalid_argument when [jobs < 1] or [n < 0]. *)

val shutdown : t -> unit
(** Stop and join the pool's helper domains. Idempotent. Subsequent
    {!run_in}/{!map_in} submissions raise [Invalid_argument]. *)

(** {1 The process-wide shared pool} *)

val shared : unit -> t
(** The lazily created process-wide pool, sized {!available_jobs}.
    Created on first use; lives for the rest of the process (helper
    domains park idle between batches and cost nothing measurable). *)

val run_shared : jobs:int -> (worker:int -> unit) -> unit
(** [run_shared ~jobs body] is [run_in (shared ()) ~jobs body], except
    that when [effective_jobs jobs = 1] the shared pool is not even
    created and [body ~worker:0] runs inline.

    @raise Invalid_argument when [jobs < 1]. *)

val map_shared : jobs:int -> int -> (int -> 'a) -> 'a array
(** [map_shared ~jobs n f] is [map_in (shared ()) ~jobs n f], with the
    same inline short-circuit as {!run_shared}.

    @raise Invalid_argument when [jobs < 1] or [n < 0]. *)
