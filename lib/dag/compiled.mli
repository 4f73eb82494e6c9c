(** Immutable CSR form of a {!Dag.t}: flat int successor and
    predecessor arrays. M-SPG recognition walks both; the schedule
    keeps one of its DAG, whose successor rows and in-degrees
    {!Ckpt_core.Strategy}'s W_par sweep reads.

    Edge enumeration order matches {!Dag.succ_ids} / {!Dag.pred_ids}
    exactly (destination-sorted out-edges, source-sorted in-edges,
    parallel file edges kept), so algorithms ported to the compiled
    view produce bit-identical results. The view is a snapshot:
    mutating the source DAG afterwards does not update it. *)

type t = private {
  n : int;
  succ_off : int array;  (** length [n+1]: out-edges of [u] live at
                             [succ_off.(u) .. succ_off.(u+1) - 1] *)
  succ_tgt : int array;
  pred_off : int array;  (** length [n+1], as [succ_off] *)
  pred_src : int array;
}

val of_dag : Dag.t -> t
(** One pass, O(tasks + edges). *)

val n_tasks : t -> int
