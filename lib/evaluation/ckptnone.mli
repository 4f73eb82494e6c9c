(** CKPTNONE expected-makespan estimate (Theorem 1).

    Computing the expected makespan of an unchekpointed schedule is
    #P-complete (Section V); the paper therefore evaluates CKPTNONE
    with the closed-form first-order estimate

    [EM = (1 - p λ Wpar) Wpar + p λ Wpar (3/2 Wpar)]

    where [Wpar] is the failure-free parallel time of the schedule and
    [p] the number of processors: with probability [p λ Wpar] a single
    failure hits one of the [p] processors during the run, the whole
    workflow restarts from scratch, and the expected lost time is
    [Wpar / 2]. *)

val expected_makespan_rate : wpar:float -> rate:float -> float
(** The estimate at the aggregate failure rate [rate = Σ λ_p] ([p λ]
    on a homogeneous platform) — the natural form for heterogeneous
    platforms.

    @raise Invalid_argument on a negative [wpar] or [rate]. *)
