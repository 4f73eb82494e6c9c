(** Execution platform model (Section VI-A).

    A platform is [p] processors, each subject to fail-stop failures
    with exponentially distributed inter-arrival times, plus a stable
    storage (shared file system) of bandwidth [bandwidth] bytes/second
    through which all checkpoint, recovery and initial-input traffic
    flows. Reading or writing a file of size [s] takes
    [s / bandwidth] seconds.

    The paper's platforms are homogeneous (one rate λ for everyone);
    {!make_heterogeneous} extends the model with per-processor rates —
    Algorithm 2 then naturally checkpoints more densely on flakier
    processors — and, for the cloud extension, per-processor relative
    {e speeds} (a task of weight w takes w / speed seconds) and
    {e prices} (dollars per hour of provisioned time). A homogeneous
    platform is the uniform special case: speed 1 and a zero price
    everywhere, with every costing function degenerating bitwise to the
    paper's. [lambda] always exposes the mean rate. *)

type t = private {
  processors : int;
  lambda : float;  (** mean failure rate across processors *)
  bandwidth : float;
  rates : float array option;  (** per-processor rates, when heterogeneous *)
  speeds : float array option;  (** per-processor relative speeds (1 = reference) *)
  prices : float array option;  (** per-processor $/hour, when priced *)
  base_price : float;  (** highest (on-demand) price; 0 when unpriced *)
}

val make : processors:int -> lambda:float -> bandwidth:float -> t
(** Homogeneous platform.
    @raise Invalid_argument unless [processors >= 1], [lambda >= 0.]
    and [bandwidth > 0.]. *)

val make_heterogeneous :
  ?speeds:float array ->
  ?prices:float array ->
  rates:float array ->
  bandwidth:float ->
  unit ->
  t
(** One processor per entry of [rates]; [speeds] and [prices] (same
    length) attach relative speeds and hourly prices. The reference
    (on-demand) price is the maximum of [prices].
    @raise Invalid_argument on an empty array, a negative rate, a
    non-positive speed or price, a size mismatch, or a non-positive
    bandwidth. *)

val rate_of : t -> int -> float
(** Failure rate of one processor.
    @raise Invalid_argument on an out-of-range processor index. *)

val speed_of : t -> int -> float
(** Relative speed of one processor (1. on unsped platforms). A task of
    weight w computes for [w /. speed_of t p] seconds there.
    @raise Invalid_argument on an out-of-range processor index. *)

val price_of : t -> int -> float
(** Hourly price of one processor (0. on unpriced platforms).
    @raise Invalid_argument on an out-of-range processor index. *)

val uniform_speed : t -> bool
(** Whether every processor runs at the reference speed. *)

val revocation_risk : t -> int -> float
(** Price-driven revocation risk factor: [base_price /. price_of t p] —
    an on-demand processor (full price) has factor 1, a spot processor
    at a third of the price is revoked three times as often. Unpriced
    platforms are uniform spot (factor 1 everywhere). Multiplied into
    the base revocation rate by {!Ckpt_recovery.Mortality}. *)

val total_rate : t -> float
(** Sum of all processors' failure rates (the aggregate failure
    process seen by restart-from-scratch strategies). *)

val io_time : t -> float -> float
(** [io_time p size] is the time to move [size] data units to or from
    stable storage. *)

val billed_cost : t -> until:(int -> float) -> float
(** Dollar cost of one execution: every processor is billed at its
    hourly price from provisioning (instant 0) to [until p] — its
    revocation instant or the release of the platform, whichever came
    first. Non-positive and infinite spans bill nothing (an immortal
    processor's span must be capped by the caller at the makespan). *)

val lambda_of_pfail : pfail:float -> mean_weight:float -> float
(** The paper's failure-rate normalisation: picks λ such that a task
    of average weight w̄ fails with probability [pfail], i.e.
    [pfail = 1 - exp (-λ w̄)].

    @raise Invalid_argument unless [0 <= pfail < 1] and
    [mean_weight > 0]. *)

val pfail_of_lambda : lambda:float -> mean_weight:float -> float
(** Inverse of {!lambda_of_pfail}. *)

val bandwidth_for_ccr :
  ccr:float -> total_data:float -> total_weight:float -> float
(** Bandwidth giving the requested Communication-to-Computation Ratio,
    where CCR = (total file store time) / (total computation time) =
    (total_data / bandwidth) / total_weight. Equivalently, the paper
    scales file sizes; scaling bandwidth by the inverse factor is the
    same operation and keeps data volumes intact.

    @raise Invalid_argument unless all arguments are positive. *)

val pp : Format.formatter -> t -> unit
