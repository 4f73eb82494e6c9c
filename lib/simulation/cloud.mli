(** Spot-instance revocation on priced heterogeneous platforms.

    The cloud extension of the degraded-mode simulator
    ({!Ckpt_sim.Degrade}): processors are bought at per-processor
    hourly prices, and the discount buys risk — a spot processor at a
    fraction of the on-demand price is revoked proportionally more
    often ({!Ckpt_platform.Platform.revocation_risk}). A revocation is
    announced by a {e warning} [grace] seconds before the kill
    ({!Ckpt_recovery.Mortality.draw_revocations}); the warned
    processor spends the grace window proactively checkpointing its
    in-flight segment's task prefix through the storage layer
    ({!Engine.run} with revocation interrupts), then drains. The trial
    runs the replan loop shared with {!Ckpt_sim.Degrade}
    ({!Replan.run_trial}) and replans the residual workflow
    {e eviction-aware} ({!Ckpt_recovery.Mortality.eviction_survivors})
    — warned but not yet killed processors get no new work — crediting
    both committed and warning-rescued checkpoints, and prices every
    trial in dollars ({!Ckpt_platform.Platform.billed_cost}).

    The baseline is a Setlur-style replication heuristic: the platform
    split into two interleaved halves, each running the whole workflow
    as a replica with minimal checkpoints (superchain ends only),
    restart-only — a replica whose processor is revoked mid-work is
    lost (each replica is one {!Engine.run} cut at the first kill, a
    plain death), and the makespan is the first replica to finish.

    Determinism: trial randomness is a pure function of the trial
    index ({!Ckpt_prob.Rng.for_trial}), drawn in a mode-independent
    order (revocations, then one trace substream per processor, then
    the store), so results are bitwise identical for any [jobs] and
    the two modes see identical worlds. A passthrough store draws
    nothing, so such trials run without a store at all. With
    [lambda_revoke = 0.] and a passthrough store a trial consumes
    exactly the randomness of a death-free {!Ckpt_sim.Degrade} trial
    and follows the same execution path, bitwise. *)

module Strategy = Ckpt_core.Strategy
module Store = Ckpt_storage.Store

type mode =
  | Checkpoint  (** checkpointing + eviction-aware replanning *)
  | Replicate  (** two half-platform replicas, restart-only *)

type config = {
  lambda_revoke : float;
      (** base revocation rate — the rate an on-demand (full-price)
          processor would see; each processor's actual rate is this
          times its {!Ckpt_platform.Platform.revocation_risk} *)
  grace : float;  (** warning-to-kill window, seconds; 0 = unannounced *)
  max_revocations : int;
      (** only the earliest [max_revocations] drawn kills take effect
          (bounds expected makespans, as {!Ckpt_recovery.Mortality}) *)
  kind : Strategy.kind;  (** replan policy (not CKPTNONE) *)
  store : Store.config;  (** the checkpoint store under everything *)
}

type trial = {
  makespan : float;  (** [infinity] when every processor was revoked *)
  revocations : int;  (** disruptive warnings seen *)
  rescues : int;  (** grace-window checkpoints that committed in time *)
  rescued_tasks : int;  (** tasks saved by those commits *)
  replans : int;
  restarts : int;  (** replan failures that fell back to from-scratch *)
  work_lost : float;
      (** execution time sunk into never-committed segments, net of
          rescued prefixes — the quantity a longer grace shrinks *)
  dollar_cost : float;
      (** every processor billed from provisioning to its revocation
          or the makespan, whichever is first *)
}

type prepared

val prepare : ?cache:bool -> Strategy.plan -> prepared
(** Precomputes engine segments, rescue metadata and the baseline's
    replica plans; [cache] (default true) memoises replans under the
    (kind, survivors, frontier) key, as {!Ckpt_sim.Degrade.prepare}.
    @raise Invalid_argument on a CKPTNONE plan. *)

val cache_stats : prepared -> int * int
(** (hits, misses) of the structural replan cache. *)

val run_trial : mode:mode -> config -> prepared -> Ckpt_prob.Rng.t -> trial

val sample_prepared :
  ?trials:int -> ?seed:int -> ?jobs:int -> mode:mode -> config -> prepared -> trial array

type summary = {
  trials : int;
  mean_makespan : float;
  mean_revocations : float;
  mean_rescues : float;
  mean_rescued_tasks : float;
  mean_replans : float;
  mean_restarts : float;
  mean_work_lost : float;
  mean_dollar_cost : float;
  stranded : int;  (** trials that ran out of processors *)
}

val summarize : trial array -> summary
(** @raise Invalid_argument on an empty sample. *)
