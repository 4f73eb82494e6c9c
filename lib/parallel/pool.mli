(** Minimal hand-rolled domain pool for OCaml 5 multicore.

    {!map_shared} runs a batch on the process-wide resident pool. The
    pool is created on first use, spawns its helper domains once and
    parks them between batches, so repeated small parallel regions —
    Monte-Carlo trial chunks, sweep cells, daemon plan batches — pay the
    spawn cost once instead of per call. Batches clamp their width to
    {!available_jobs}, so an oversubscribed [--jobs] degrades to the
    sequential inline path instead of thrashing one core with many
    domains. {!map_chunks} is the Monte-Carlo samplers' one trial loop
    on top of it. One batch owns the pool at a time. A batch submitted while
    another owns it — from inside that batch's body, or from another
    domain such as a second [ckptwf serve] connection handler — runs
    inline on its caller instead of waiting for the pool, so a cheap
    batch never queues behind a heavy one.

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
    — the batch width {!map_shared} will actually use. *)

val map_shared : jobs:int -> int -> (int -> 'a) -> 'a array
(** [map_shared ~jobs n f] is [Array.init n f] executed as one batch on
    at most [effective_jobs jobs] domains of the process-wide pool, the
    caller included: indices are claimed dynamically, so [f] must be
    safe to call concurrently from several domains; results come back
    in index order regardless of scheduling. When some call to [f]
    raises, workers stop claiming new indices, the batch finishes, and
    the first exception is re-raised with its backtrace; the pool stays
    usable. When the width is 1 or [n <= 1] it is [Array.init n f] on
    the caller and the pool is not even created; when another batch
    owns the pool it is [Array.init n f] on the caller too.

    @raise Invalid_argument when [jobs < 1] or [n < 0]. *)

val map_chunks :
  jobs:int ->
  chunk:int ->
  stop:(unit -> bool) ->
  int ->
  (lo:int -> hi:int -> 'a) ->
  'a array
(** [map_chunks ~jobs ~chunk ~stop n f] cuts [\[0, n)] into consecutive
    [chunk]-sized pieces (the last one possibly shorter), runs
    [f ~lo ~hi] on each piece [\[lo, hi)] through {!map_shared}, so [f]
    and [stop] must be safe to call concurrently, and returns the
    results in chunk order. [stop ()] is tested before every chunk but
    the first — a deadline check, say — and a chunk it stops yields
    nothing. The result is the completed prefix, up to the first
    stopped chunk, so it is never empty when [n > 0]; when [stop] never
    fires and [f] draws its randomness from the indices alone, it is
    the same for any [jobs].

    @raise Invalid_argument when [chunk < 1], [n < 0] or [jobs < 1]. *)
