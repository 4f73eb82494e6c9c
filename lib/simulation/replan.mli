(** The online replan loop shared by the degraded-mode
    ({!Ckpt_sim.Degrade}) and spot-revocation ({!Ckpt_sim.Cloud})
    simulators.

    A trial is a sequence of {e epochs}. Each epoch runs the current
    plan through {!Engine.run} until it finishes or an interrupt cuts
    it; at the cut the tasks of every checkpoint-committed segment —
    and of any grace-window rescue prefix — are marked done, the
    committed frontier is revalidated against the store, and the
    residual workflow is replanned on the survivors
    ({!Ckpt_recovery.Repair}); execution resumes at the cut instant.
    When replanning is impossible (or the caller always restarts) the
    trial restarts the whole workflow from scratch on the survivors;
    when nobody survives it is stranded (makespan [infinity]).

    The callers differ only in the interrupt source (deaths, or
    revocations with a warning), the survivor rule, and whether every
    cut restarts from scratch. *)

module Strategy = Ckpt_core.Strategy

type prepared
(** A plan frozen for trials: the initial segment DAG, write spans,
    segment-to-task map and (optionally) rescue metadata are
    materialised once, so worker domains share them read-only. Also
    carries the structural replan cache: replans are memoised under
    the key [(kind, survivor set, committed-checkpoint frontier)] —
    {!Ckpt_recovery.Repair.replan} is a pure function of that triple
    for a fixed plan, so trials hitting the same degradation state
    reuse the physically-mapped plan instead of re-running
    recognition, ALLOCATE and the placement DP. The table is a
    {!Ckpt_parallel.Memo}, so each key is computed once: a trial that
    looks up a key another trial is computing waits for that value
    and counts as a hit. Results are bitwise identical with the cache
    on or off, and the hit and miss counts are the same at any
    [jobs]. *)

val prepare :
  name:string ->
  ?cache:bool ->
  ?rescue_of:(Strategy.plan -> Engine.rescue_info array) ->
  Strategy.plan ->
  prepared
(** [name] prefixes error messages. [cache] (default [true]) toggles
    the replan cache. [rescue_of] derives a plan's grace-window rescue
    metadata, computed for the initial plan and every replan; without
    it no rescue is ever attempted.

    @raise Invalid_argument on a CKPTNONE plan. *)

val physical_segs : Ckpt_recovery.Repair.t -> Engine.seg array
(** A repaired plan's segment DAG on the physical processor ids of the
    surviving platform. *)

val plan : prepared -> Strategy.plan
val cache_stats : prepared -> int * int
(** [(hits, misses)] of the replan cache so far (0, 0 when disabled),
    read from its memo: one miss per replan computed. *)

val traces :
  Ckpt_prob.Rng.t -> Ckpt_platform.Platform.t -> int -> Ckpt_platform.Failure.t
(** One failure-trace generator split from the trial stream per
    processor, in processor order, each trace created on first use. *)

type tally = {
  makespan : float;  (** [infinity] when the trial strands *)
  cuts : int;  (** disruptive interrupts suffered *)
  replans : int;  (** successful residual replans *)
  restarts : int;  (** restart-from-scratch replans *)
  rollbacks : int;
      (** cascading rollbacks inside the epoch that ran to completion *)
  invalidated : int;
      (** done tasks whose checkpoint failed revalidation at a cut *)
  rescues : int;  (** grace-window rescues that stood *)
  rescued_tasks : int;  (** tasks credited by those rescues *)
  work_lost : float;
      (** execution time sunk into never-committed segments, net of
          rescued prefixes *)
}

val run_trial :
  kind:Strategy.kind ->
  restart_always:bool ->
  ?store:Ckpt_storage.Store.t ->
  warn:(int -> float) ->
  kill:(int -> float) ->
  survivors:(after:float -> int list) ->
  prepared ->
  (int -> Ckpt_platform.Failure.t) ->
  tally
(** One trial from instant 0. [kind] is the checkpoint policy of every
    replan; [warn]/[kill] are the per-processor interrupt instants
    (equal for permanent deaths); [survivors ~after] lists the
    processors that may receive work after a cut at [after]; with
    [restart_always] every cut restarts from scratch (a static
    schedule's baseline). Without a store the loop keeps no handles
    and revalidates nothing. A processor warned at instant 0 never
    receives work: the trial replans on the rest up front.

    @raise Invalid_argument on a CKPTNONE [kind]. *)

val sample :
  name:string ->
  ?trials:int ->
  ?seed:int ->
  ?jobs:int ->
  (Ckpt_prob.Rng.t -> 'a) ->
  'a array
(** [trials] (default 200) runs of the trial function, trial [k] driven
    by [Ckpt_prob.Rng.for_trial ~seed k] (seed default 11), claimed in
    16-trial chunks by [jobs] worker domains and reassembled in trial
    order: bitwise identical for any [jobs].

    @raise Invalid_argument on [trials < 1] or [jobs < 1]. *)
