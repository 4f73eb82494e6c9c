module Dag = Ckpt_dag.Dag
module Recognize = Ckpt_mspg.Recognize
module Platform = Ckpt_platform.Platform
module Allocate = Ckpt_core.Allocate
module Strategy = Ckpt_core.Strategy

type t = {
  plan : Strategy.plan;
  task_of : int array;
  phys : int array;
  dummy_edges : int;
}

let replan ?replicas ~kind ~dag ~done_ ~survivors ~platform () =
  match survivors with
  | [] -> Error "no surviving processors"
  | _ -> (
      try
        let residual, task_of = Residual.build ~dag ~done_ in
        let mspg, dummy_edges =
          match Recognize.of_dag_completed residual with
          | Ok r -> r
          | Error msg -> failwith msg
        in
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
          Strategy.plan ?replicas kind ~raw:residual ~schedule ~platform:sub_platform
        in
        Ok { plan; task_of; phys; dummy_edges }
      with
      | Failure msg -> Error msg
      | Invalid_argument msg -> Error msg)
