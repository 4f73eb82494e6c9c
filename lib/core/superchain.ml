module Dag = Ckpt_dag.Dag
module Task = Ckpt_dag.Task

type t = {
  id : int;
  processor : int;
  order : Task.id array;
  position : (Task.id, int) Hashtbl.t;
}

let make ~id ~processor ~order =
  if Array.length order = 0 then invalid_arg "Superchain.make: empty order";
  let position = Hashtbl.create (Array.length order) in
  Array.iteri
    (fun k task ->
      if Hashtbl.mem position task then invalid_arg "Superchain.make: duplicate task";
      Hashtbl.replace position task k)
    order;
  { id; processor; order; position }

let n_tasks t = Array.length t.order
let mem t task = Hashtbl.mem t.position task
let position t task = Hashtbl.find t.position task
let task_at t k = t.order.(k)

let entry_tasks dag t =
  Array.to_list t.order
  |> List.filter (fun task -> List.exists (fun p -> not (mem t p)) (Dag.pred_ids dag task))

let exit_tasks dag t =
  Array.to_list t.order
  |> List.filter (fun task -> List.exists (fun s -> not (mem t s)) (Dag.succ_ids dag task))
