(** Guaranteed bounds on the expected makespan of a 2-state DAG
    (extension): the estimators of Section II-B are approximations
    without direction guarantees; these brackets are sound.

    - {e Lower} (Fulkerson 1962 / Jensen): the deterministic longest
      path where every node lasts its {e expected} duration. Since the
      makespan is a convex (max-of-sums) function of the durations,
      [E max Σ >= max Σ E].
    - {e Upper} (Kleindorfer 1971): the forward distribution sweep
      that treats the operands of every max as independent. Completion
      times of a node-weighted DAG are positively associated
      (Esary–Proschan), so [P(max <= x)] is {e over}-estimated by the
      product of CDFs and the resulting expectation over-estimates the
      true one. Computed by {!Dodin} with a large support bound; the
      compaction keeps expectations exact, preserving the bound up to
      the bucketing of values inside maxima (negligible at the default
      support). *)

val bracket : Prob_dag.t -> float * float
(** [(lower, upper)], the upper bound swept at a support of 2048. *)
