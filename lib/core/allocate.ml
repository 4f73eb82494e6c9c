module Mspg = Ckpt_mspg.Mspg
module Dag = Ckpt_dag.Dag

let run ?(policy = Linearize.Deterministic) (mspg : Mspg.t) ~processors =
  if processors < 1 then invalid_arg "Allocate.run: processors < 1";
  let dag = mspg.Mspg.dag in
  let superchains = ref [] in
  let next_id = ref 0 in
  (* the completed cuts carry the precedences the DAG lacks; only a
     cut inside one linearised sub-M-SPG has both sides there *)
  let cuts = Mspg.completion mspg in
  let on_one_processor tasks proc =
    let order = Linearize.order ~cuts dag tasks policy in
    let sc = Superchain.make ~id:!next_id ~processor:proc ~order in
    incr next_id;
    superchains := sc :: !superchains
  in
  (* procs is a contiguous [first, first+count) processor window *)
  let rec allocate tree first count =
    let { Mspg.chain; branches; rest } = Mspg.decompose tree in
    if chain <> [] then on_one_processor chain first;
    (match branches with
    | [] -> ()
    | _ when count = 1 ->
        on_one_processor (List.concat_map Mspg.tree_tasks branches) first
    | _ ->
        let assignments = Propmap.run dag branches count in
        let offset = ref 0 in
        List.iter
          (fun (graph, procs) ->
            allocate graph (first + !offset) procs;
            offset := !offset + procs)
          assignments);
    match rest with None -> () | Some suffix -> allocate suffix first count
  in
  allocate mspg.Mspg.tree 0 processors;
  Schedule.make ~dag ~tree:mspg.Mspg.tree ~processors ~superchains:(List.rev !superchains)
