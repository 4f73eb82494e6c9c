(** Failure-injected execution under stable-storage contention — an
    extension beyond the paper, whose model prices I/O at full
    bandwidth regardless of how many processors checkpoint at once.

    Here the shared storage has an aggregate bandwidth fairly divided
    among the processors currently reading or writing (a fluid model):
    with [k] concurrent streams each progresses at [bandwidth / k].
    Every segment runs three phases — read its R bytes, compute its W
    seconds, write its C bytes — and a fail-stop failure during any
    phase restarts the segment from its read phase, exactly like the
    contention-free engine. Synchronous checkpointing strategies
    (CKPTALL after every task; the bipartite-completed CKPTSOME after
    every level) produce I/O bursts, so contention widens the gap the
    paper measures at nominal bandwidth.

    An optional {!Ckpt_storage.Store} composes with contention: the
    store's policy decides durability at the first write attempt of
    each commit cycle (a policy-skipped commit is volatile — readable
    in-run but not a recovery line), a detected commit failure rewrites
    the replica set at the shared bandwidth (the rewrite {e is} the
    backoff — no wall-clock sleep is charged, since the stream already
    competes for bandwidth), an exhausted commit cycle re-executes its
    segment, and a failed recovery read discovered at dispatch time
    (corrupt replicas or an invalidated handle) sends the producing
    segment back to the head of its processor's queue (cascading
    transitively) while the consumer waits. Storage outage intervals
    and remote commit/read latency are {e not} modelled here —
    contention's fluid bandwidth sharing is itself the
    storage-availability model of this simulator. *)

type seg = {
  processor : int;
  read_bytes : float;
  work : float;  (** seconds *)
  write_bytes : float;
  preds : int list;
}

val makespan :
  ?store:Ckpt_storage.Store.t ->
  bandwidth:float ->
  seg array ->
  (int -> Ckpt_platform.Failure.t) ->
  float
(** Execute under fair-shared bandwidth. Preconditions as
    {!Engine.makespan}: topologically ordered, per-processor order
    respected. Like it, this calls the trace function at most once
    per processor, which may therefore create a fresh trace on each
    call. [store] attaches a per-trial checkpoint store (commit
    failures, latent corruption, policy-volatile commits, cascading
    rollback as described above); omitted, checkpoints are perfectly
    reliable.

    @raise Invalid_argument on a bad ordering or non-positive
    bandwidth. *)

val simulate :
  ?trials:int ->
  ?seed:int ->
  ?store:Ckpt_storage.Store.config ->
  Ckpt_core.Strategy.plan ->
  Ckpt_prob.Stats.t
(** Monte-Carlo driver under contention, mirroring {!Runner.simulate}.
    [store] attaches the checkpoint store; each trial gets its own
    state on a substream split after the trial generator, and a
    {!Ckpt_storage.Store.passthrough} config draws nothing — the
    returned statistics are then bitwise those of the fault-free
    driver. *)
