(** Bounded retries with exponential backoff and seeded jitter.

    Transient faults (a journal write hitting a busy filesystem, an
    injected fail-stop error in tests) are retried a bounded number of
    times with exponentially growing delays. Jitter is drawn from
    {!Ckpt_prob.Rng}, so a given seed yields one deterministic backoff
    schedule — experiments stay exactly reproducible even through their
    failure handling. *)

type policy = {
  max_attempts : int;  (** total tries, including the first; >= 1 *)
  base_delay : float;  (** seconds before the second attempt *)
  multiplier : float;  (** growth factor per retry; >= 1 *)
  max_delay : float;  (** cap on any single delay *)
  jitter : float;  (** relative spread in [0, 1]: each delay is scaled
                       by a factor uniform in [1 - jitter, 1 + jitter] *)
}

val default : policy
(** 5 attempts, 0.1 s base, x2 growth, 5 s cap, 0.25 jitter. *)

val schedule : ?rng:Ckpt_prob.Rng.t -> policy -> float array
(** The [max_attempts - 1] inter-attempt delays the policy produces.
    Deterministic: equal seeds give equal schedules. Without [rng] the
    jitter factor is 1 (pure exponential).

    @raise Invalid_argument on a non-positive [max_attempts], a
    negative delay, [multiplier < 1] or jitter outside [\[0, 1\]]. *)

val with_retries :
  ?policy:policy ->
  ?rng:Ckpt_prob.Rng.t ->
  ?sleep:(float -> unit) ->
  ?deadline:Deadline.t ->
  (attempt:int -> 'a) ->
  ('a, Error.t) result
(** [with_retries f] runs [f ~attempt:1]; if it raises a transient
    exception — [Sys_error], [Error.E (Io _)] or {!Faulty.Injected} —
    it sleeps the next backoff delay and tries again, up to
    [policy.max_attempts] times. Returns [Error (Retries_exhausted _)] when every attempt failed;
    non-transient exceptions propagate immediately. [sleep] defaults to
    [Unix.sleepf] and is injectable so tests need not wait.

    [deadline] (default {!Deadline.never}) bounds the whole retry loop:
    a backoff sleep is truncated to the remaining budget, and once the
    deadline has expired no further attempt is made — the loop returns
    [Error (Deadline_exceeded _)] with the attempts completed so far
    instead of dozing through an already-lost budget. *)
