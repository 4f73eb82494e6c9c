(** A compute-once memo table, safe to share between domains.

    [get t key f] returns the value cached under [key], or computes
    [f ()], caches it and returns it. One mutex guards the table, and
    each key is computed once: a lookup that finds its key in flight on
    another domain waits for that value and counts as a hit, so two
    domains that miss one key never both compute it. A compute that
    raises frees its key and wakes its waiters; a waiter, or any later
    lookup, then computes the key afresh.

    With a [cap], at most [cap] settled entries stay: a settle beyond
    it evicts the settled entry whose last lookup is the oldest. A key
    in flight is never evicted and does not count against the cap.

    The counters are the only cache statistics of the repository's
    memoised layers: [Ckpt_core.Service]'s setup and plan tables, the
    structural replan cache of [Ckpt_sim.Replan] and [ckptwf serve]'s
    degrade handles. *)

type ('k, 'v) t

type stats = {
  hits : int;  (** lookups that found their key, settled or in flight *)
  misses : int;  (** lookups that computed their key *)
  evictions : int;  (** settled entries dropped to respect the cap *)
}

val create : ?cap:int -> unit -> ('k, 'v) t
(** An empty table over the polymorphic hash and equality of ['k];
    unbounded when [cap] is omitted.

    @raise Invalid_argument when [cap < 1]. *)

val get : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [get t key f] is the value under [key], computing [f ()] outside
    the lock on a miss. [f] must not look up [key] in [t] itself. *)

val get_many : ('k, 'v) t -> jobs:int -> 'k array -> (int -> 'v) -> ('v * bool) array
(** [get_many t ~jobs keys f] is one {!get} of each [keys.(i)], computed
    by [f i], paired with whether that lookup hit. The lookups are made
    in index order under one hold of the lock, so the hit and miss
    counts, the recency order and what a cap leaves do not depend on
    [jobs]; a key repeated in [keys] is computed once and its repeats
    count as hits. The missing keys are then computed over at most
    [jobs] domains of the shared pool ({!Pool.map_shared}). When some
    compute raises, every other claimed key is still settled, and the
    exception of the lowest such index is re-raised.

    @raise Invalid_argument when [jobs < 1]. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** The settled value under a key, refreshing its recency; [None] when
    the key is absent or in flight. Counts nothing. *)

val fold : ('v -> 'a -> 'a) -> ('k, 'v) t -> 'a -> 'a
(** Folds over the settled values, in unspecified order, under the
    table's lock: the function must not use the table. *)

val stats : ('k, 'v) t -> stats
(** The counters so far. *)
