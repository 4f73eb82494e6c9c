module Dag = Ckpt_dag.Dag

let build ~dag ~done_ =
  let n = Dag.n_tasks dag in
  if Array.length done_ <> n then invalid_arg "Residual.build: done_ size mismatch";
  let remaining = ref [] in
  for t = n - 1 downto 0 do
    if not done_.(t) then remaining := t :: !remaining
  done;
  if !remaining = [] then invalid_arg "Residual.build: every task is done";
  let sub, task_of = Dag.induced dag !remaining in
  (* [Dag.induced] keeps internal edges and their file sharing but
     drops initial inputs and cross-boundary edges: restore the former,
     turn the latter into stable-storage re-reads *)
  Array.iteri
    (fun nid oid ->
      List.iter (fun size -> Dag.add_input sub nid size) (Dag.inputs dag oid);
      List.iter
        (fun (src, (file : Dag.file)) ->
          if done_.(src) then Dag.add_input sub nid file.Dag.size)
        (Dag.preds dag oid))
    task_of;
  (sub, task_of)
