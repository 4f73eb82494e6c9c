(** Request-level memoisation for planning as a service.

    A long-lived planning process ([ckptwf serve], the daemon-batch
    bench) sees many requests over a bounded set of workflow
    configurations. This module caches {!Pipeline.setup}s (recognition
    + Algorithm-1 schedule, including the compiled CSR view they carry)
    and finished {!Strategy.plan}s under caller-chosen string keys, so
    repeated requests pay a hash lookup instead of an O(n²) plan. A
    cold plan builds a throwaway {!Strategy.frame}: the caches hold no
    frame, so a resident setup costs no more than its schedule.

    Each table is a {!Ckpt_parallel.Memo}: safe to share between
    domains, and each key is computed once — a domain that looks up a
    key another domain is computing waits for that value and counts a
    hit.

    Capacity: a daemon that must not grow without bound passes [?cap]
    to {!create}; each table then keeps at most [cap] entries and
    evicts its least recently used one beyond that. Unbounded by
    default. *)

type t

type stats = {
  setup_hits : int;
  setup_misses : int;
  setup_evictions : int;  (** LRU evictions from the setup table *)
  plan_hits : int;
  plan_misses : int;
  plan_evictions : int;  (** LRU evictions from the plan table *)
  plan_races : int;
      (** {!store_plan} calls whose offered plan lost to an incumbent *)
}

val create : ?cap:int -> unit -> t
(** [create ?cap ()] — [cap] bounds each table's entry count with LRU
    eviction; omitted means unbounded.

    @raise Invalid_argument when [cap < 1]. *)

val setup : t -> key:string -> (unit -> Pipeline.setup) -> Pipeline.setup
(** [setup t ~key f] returns the cached setup for [key], computing and
    caching [f ()] on a miss. *)

val plan : t -> key:string -> (unit -> Strategy.plan) -> Strategy.plan
(** [plan t ~key f] likewise for finished plans. *)

val plans :
  t -> jobs:int -> string array -> (int -> Strategy.plan) -> (Strategy.plan * bool) array
(** [plans t ~jobs keys f] is one {!plan} lookup of each [keys.(i)],
    computed by [f i] and paired with whether it hit, with the missing
    plans computed over at most [jobs] domains
    ({!Ckpt_parallel.Memo.get_many}): a serve batch plans its distinct
    keys in one fan-out, and its counters do not depend on [jobs]. *)

val find_plan : t -> key:string -> Strategy.plan option
(** Lookup without computing: refreshes LRU recency on a hit but does
    not touch the hit/miss counters. *)

val store_plan : t -> key:string -> Strategy.plan -> Strategy.plan
(** A {!plan} lookup whose compute is the plan given: returns the
    incumbent if the key is already cached (counted in [plan_races],
    and asserted structurally equal to the offered plan in debug
    builds — planning is deterministic, so a mismatch is a keying
    bug). *)

val stats : t -> stats
