(** Unreliable stable storage: the checkpoint fault model.

    The paper (and the baseline {!Ckpt_sim.Engine}) assumes a committed
    checkpoint is always readable. This module drops that assumption
    and gives the simulators a three-way storage fault taxonomy:

    - {e detected commit failures}: a checkpoint write fails visibly
      with probability [commit_fail_prob]; the writer retries under
      {!Ckpt_resilience.Retry.default}'s backoff delays, without jitter
      (each retried write re-pays the full write span after its delay),
      and a policy exhaustion escalates to re-executing the whole
      segment;
    - {e latent corruption}: each replica copy of a committed
      checkpoint is corrupt from birth with probability [corrupt_prob]
      and/or rots at an exponential instant of rate [storage_lambda]
      after landing on disk — revealed only when a recovery {!read}
      tries to consume it, which is what forces cascading rollback;
    - {e transient outages}: storage is unreachable during outage
      intervals (Poisson starts at [outage_rate], exponential durations
      of mean [outage_mean]); reads and writes wait them out.

    A checkpoint is committed as [replicas] independent copies (the
    planner prices the commit at [k·C], see {!Ckpt_core.Placement});
    a recovery read succeeds iff {e some} replica is still valid, so
    the read-failure probability drops geometrically with k.

    Determinism: one {!t} per Monte-Carlo trial, created from a
    dedicated {!Ckpt_prob.Rng} substream; a {!reliable} configuration
    draws {e nothing}, so disabling the fault model reproduces the
    fault-free simulators bitwise. The [inject] hook makes every
    storage operation an injectable fail-stop site
    ({!Ckpt_resilience.Faulty}). *)

module Rng = Ckpt_prob.Rng

type config = {
  commit_fail_prob : float;  (** detected write-failure probability, in [\[0, 1)] *)
  corrupt_prob : float;
      (** per-replica latent-corruption probability, in [\[0, 1)] *)
  storage_lambda : float;  (** per-replica corruption rate in time-on-disk; 0 = never *)
  outage_rate : float;  (** storage outage starts per second; 0 = never *)
  outage_mean : float;  (** mean outage duration, seconds *)
  replicas : int;  (** copies per checkpoint commit; >= 1 *)
}

val default : config
(** All fault channels off, one replica. *)

val reliable : config -> bool
(** [true] iff every fault channel is off — the configuration under
    which the storage-aware simulators are bitwise identical to the
    fault-free ones ([replicas] is a pure planning knob and does not
    affect reliability here). *)

val validate : config -> unit
(** @raise Invalid_argument on probabilities outside [\[0, 1)] (1 would
    make cascading rollback loop forever), negative rates, an outage
    rate without a positive mean duration, or [replicas < 1]. *)

type t
(** Per-trial storage state: fault randomness, lazily materialised
    outage intervals, and operation counters. Not shareable across
    domains — each trial owns one. *)

val create : ?inject:(string -> unit) -> config -> Rng.t -> t
(** [create config rng] validates [config] and builds the trial state
    on [rng] (a dedicated substream). [inject] is called at the top of
    every {!commit} and {!read} — wire {!Ckpt_resilience.Faulty.inject}
    through it to make storage operations injectable fault sites.

    @raise Invalid_argument as {!validate}. *)

val config : t -> config

val available : t -> float -> float
(** [available t at] is the earliest instant [>= at] at which storage
    is not in an outage (the identity when [outage_rate = 0]). Queries
    need not be monotone; drawn intervals are remembered. *)

type ckpt
(** Handle of one committed checkpoint (its replica corruption layout
    is fixed at commit time, revealed at read time). *)

val commit : t -> seg:int -> write:float -> at:float -> (float * ckpt, float) result
(** [commit t ~seg ~write ~at] commits segment [seg]'s checkpoint whose
    (k-replica) write span ended at [at] — the first write is already
    part of the caller's segment duration. [Ok (done_at, ckpt)] when an
    attempt succeeds: [done_at >= at] accounts for backoff delays,
    outage waits and re-written spans of retried attempts. [Error
    give_up_at] when the backoff policy is exhausted; the caller
    escalates (re-executes the producing segment). Draws nothing when
    [commit_fail_prob = 0]. *)

val seg_of : ckpt -> int

val valid_at : ckpt -> at:float -> bool
(** [true] iff some replica is uncorrupted at instant [at]. Pure — no
    counters, no injection (used by degraded-mode revalidation sweeps
    and tests). *)

val read : t -> ckpt -> at:float -> bool
(** A recovery read at instant [at]: {!valid_at} plus operation
    accounting — a [false] result counts a corrupt read. *)

type stats = {
  commits : int;  (** {!commit} calls *)
  commit_retries : int;  (** detected commit failures that were retried *)
  commit_exhausted : int;  (** commits that exhausted the backoff policy *)
  reads : int;  (** {!read} calls *)
  corrupt_reads : int;  (** reads that found every replica corrupt *)
}

val stats : t -> stats
