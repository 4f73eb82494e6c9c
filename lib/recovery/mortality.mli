(** Permanent-failure (processor-death) model.

    Beyond the paper's transient fail-stop errors, each processor can
    die {e permanently}: it draws an exponential death instant at rate
    [lambda_death] and never repairs. In-memory work on a dead
    processor is lost; checkpointed outputs survive on stable storage.

    Expected makespans stay finite by bounding the number of deaths
    that actually occur: only the [max_losses] earliest drawn instants
    take effect (operations replace machines after that), the rest are
    pushed to [infinity]. With unbounded deaths, every trial would
    strand with positive probability and the expectation would be
    infinite. *)

val censor : float array -> keep:int -> unit
(** [censor instants ~keep] pushes every instant but the [keep]
    earliest to [infinity], in place. Earliest means least by
    [(instant, id)]: ties go to the lower processor id, and instants
    compare as [Float.compare] does — the order a sort of
    [(instant, id)] pairs gives. One pass in id order, O(n·keep) at
    worst, without polymorphic comparison. *)

val draw :
  Ckpt_prob.Rng.t ->
  processors:int ->
  lambda_death:float ->
  max_losses:int ->
  float array
(** [draw rng ~processors ~lambda_death ~max_losses] returns one death
    instant per processor, drawn in processor order (so the schedule of
    draws is a pure function of the generator state), then censored to
    the [max_losses] earliest (ties broken by processor id). A rate of
    [0.] yields all-[infinity].

    @raise Invalid_argument if [processors < 1], [lambda_death < 0.] or
    [max_losses < 0]. *)

type revocation = { warn : float; kill : float }
(** A spot revocation: the platform announces at [warn] that the
    instance dies at [kill] ([kill - warn] is the grace period,
    truncated at instant 0 for kills inside the first grace window).
    An unrevoked processor has both at [infinity]. *)

val draw_revocations :
  Ckpt_prob.Rng.t ->
  rates:float array ->
  grace:float ->
  max_revocations:int ->
  revocation array
(** One revocation per processor: kill instants are exponential at the
    per-processor [rates] (drawn in processor order, skipping
    zero-rate — on-demand — processors), censored to the
    [max_revocations] earliest (ties by processor id), and each finite
    kill is preceded by a warning [grace] seconds earlier
    ([warn = max 0 (kill - grace)], so [grace = 0.] degenerates to an
    unannounced kill). All-zero [rates] or [max_revocations = 0]
    consume no randomness. With uniform positive rates the kill
    instants are bitwise those of {!draw}.

    @raise Invalid_argument on an empty or negative [rates] array, a
    negative [grace], or a negative [max_revocations]. *)

val eviction_survivors : revocation array -> after:float -> int list
(** Processors whose {e warning} lies strictly beyond [after], in
    ascending id order — the set a replan started at [after] may use.
    Stricter than {!survivors} on kills: a warned instance is draining
    and must not receive new work. *)

val survivors : float array -> after:float -> int list
(** Processors whose death instant lies strictly beyond [after], in
    ascending id order — the processor set available to a replan
    started at instant [after]. Includes processors that died {e idle}:
    a machine lost while it had no work is equally unavailable later. *)
