module Csr = Ckpt_dag.Compiled
module Mspg = Ckpt_mspg.Mspg
module Recognize = Ckpt_mspg.Recognize
module Platform = Ckpt_platform.Platform
module Allocate = Ckpt_core.Allocate
module Schedule = Ckpt_core.Schedule
module Strategy = Ckpt_core.Strategy

type t = {
  plan : Strategy.plan;
  task_of : int array;
  phys : int array;
  dummy_edges : int;
}

(* Distinct dependencies of a CSR view: rows are destination-sorted,
   so a parallel file edge repeats its predecessor's target *)
let distinct_edges (csr : Csr.t) =
  let count = ref 0 in
  for u = 0 to csr.Csr.n - 1 do
    for k = csr.Csr.succ_off.(u) to csr.Csr.succ_off.(u + 1) - 1 do
      if k = csr.Csr.succ_off.(u) || csr.Csr.succ_tgt.(k) <> csr.Csr.succ_tgt.(k - 1) then
        incr count
    done
  done;
  !count

let predecessor_closed (csr : Csr.t) done_ =
  let closed = ref true and t = ref 0 in
  while !closed && !t < csr.Csr.n do
    if done_.(!t) then
      for k = csr.Csr.pred_off.(!t) to csr.Csr.pred_off.(!t + 1) - 1 do
        if not done_.(csr.Csr.pred_src.(k)) then closed := false
      done;
    incr t
  done;
  !closed

(* The residual's M-SPG and its dummy count. Where the plan's tree
   implies exactly the raw DAG's dependencies — every cut pair an edge
   (no completion) and no edge beyond the cuts (as a GSPG's transitive
   ones) — and the done set is predecessor-closed, recognition would
   return the tree pruned to the residual ({!Recognize.prune}'s law);
   otherwise recognise it. *)
let residual_mspg (plan : Strategy.plan) ~done_ residual task_of =
  let s = plan.Strategy.schedule in
  if
    s.Schedule.completion = []
    && s.Schedule.dag == plan.Strategy.raw_dag
    && predecessor_closed s.Schedule.csr done_
    && Mspg.implied_count s.Schedule.tree = distinct_edges s.Schedule.csr
  then begin
    let new_id = Array.make (Array.length done_) (-1) in
    Array.iteri (fun nid oid -> new_id.(oid) <- nid) task_of;
    ({ Mspg.dag = residual; tree = Recognize.prune s.Schedule.tree ~new_id }, 0)
  end
  else
    match Recognize.of_dag_completed residual with Ok r -> r | Error msg -> failwith msg

let replan ~kind ~done_ ~survivors (plan : Strategy.plan) =
  match survivors with
  | [] -> Error "no surviving processors"
  | _ -> (
      try
        let residual, task_of = Residual.build ~dag:plan.Strategy.raw_dag ~done_ in
        let mspg, dummy_edges = residual_mspg plan ~done_ residual task_of in
        let platform = plan.Strategy.platform in
        let phys = Array.of_list survivors in
        let rates = Array.map (Platform.rate_of platform) phys in
        (* the survivor sub-platform keeps each survivor's own speed and
           price, so the Algorithm-2 DP costs of the repaired plan are
           scaled by the processors it actually runs on *)
        let speeds =
          if Platform.uniform_speed platform then None
          else Some (Array.map (Platform.speed_of platform) phys)
        in
        let prices =
          match platform.Platform.prices with
          | None -> None
          | Some _ -> Some (Array.map (Platform.price_of platform) phys)
        in
        let sub_platform =
          Platform.make_heterogeneous ?speeds ?prices ~rates
            ~bandwidth:platform.Platform.bandwidth ()
        in
        let schedule = Allocate.run mspg ~processors:(Array.length phys) in
        let plan =
          Strategy.plan ~replicas:plan.Strategy.replicas kind ~raw:residual ~schedule
            ~platform:sub_platform
        in
        Ok { plan; task_of; phys; dummy_edges }
      with
      | Failure msg -> Error msg
      | Invalid_argument msg -> Error msg)
