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

    Checkpoints are perfectly reliable here: the checkpoint store and
    its fault model ({!Ckpt_storage.Store}) compose with the
    contention-free engine only, since contention's fluid bandwidth
    sharing is itself this simulator's storage model. *)

type seg = {
  processor : int;
  read_bytes : float;
  work : float;  (** seconds *)
  write_bytes : float;
  preds : int list;
}

val makespan : bandwidth:float -> seg array -> (int -> Ckpt_platform.Failure.t) -> float
(** Execute under fair-shared bandwidth. Preconditions as
    {!Engine.makespan}: topologically ordered, per-processor order
    respected. Like it, this calls the trace function at most once
    per processor, which may therefore create a fresh trace on each
    call.

    @raise Invalid_argument on a bad ordering or non-positive
    bandwidth. *)

val simulate : ?trials:int -> ?seed:int -> Ckpt_core.Strategy.plan -> Ckpt_prob.Stats.t
(** Monte-Carlo simulation under contention, mirroring {!Runner.simulate}
    on {!Runner.segs_of_plan}'s segment DAG: [trials] (default 1000)
    sequential trials, each on a generator split from one master
    seeded with [seed] (default 7).

    @raise Invalid_argument on [trials < 1] or a CKPTNONE plan. *)
