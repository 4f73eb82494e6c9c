(* Immutable CSR ("compressed sparse row") view of a Dag.t. The mutable
   adjacency lists of the builder are flattened into offset/target int
   arrays once, after which every neighbourhood scan is a contiguous
   int-array walk with no list cells and no closures.

   Edge order is preserved exactly: [succ] slices replay the out-edges
   (sorted by destination, parallel file edges kept), [pred] slices the
   in-edges (sorted by source), so algorithms that enumerate
   neighbours see the same sequences as the list-based accessors. *)

type t = {
  n : int;
  succ_off : int array;  (* length n+1; out-edge range of task i *)
  succ_tgt : int array;
  pred_off : int array;  (* length n+1; in-edge range of task i *)
  pred_src : int array;
}

let of_dag dag =
  let n = Dag.n_tasks dag in
  let n_edges = Dag.n_edges dag in
  let succ_off = Array.make (n + 1) 0
  and pred_off = Array.make (n + 1) 0
  and succ_tgt = Array.make n_edges 0
  and pred_src = Array.make n_edges 0 in
  let si = ref 0 and pi = ref 0 in
  for u = 0 to n - 1 do
    succ_off.(u) <- !si;
    pred_off.(u) <- !pi;
    List.iter
      (fun v ->
        succ_tgt.(!si) <- v;
        incr si)
      (Dag.succ_ids dag u);
    List.iter
      (fun v ->
        pred_src.(!pi) <- v;
        incr pi)
      (Dag.pred_ids dag u)
  done;
  succ_off.(n) <- !si;
  pred_off.(n) <- !pi;
  { n; succ_off; succ_tgt; pred_off; pred_src }

let n_tasks t = t.n
