module Dag = Ckpt_dag.Dag
module Platform = Ckpt_platform.Platform
module Prob_dag = Ckpt_eval.Prob_dag
module Evaluator = Ckpt_eval.Evaluator

type kind =
  | Ckpt_all
  | Ckpt_some
  | Ckpt_none
  | Ckpt_every of int
  | Ckpt_budget of int
  | Ckpt_restart
  | Ckpt_hybrid of int

let kind_name = function
  | Ckpt_all -> "ckpt-all"
  | Ckpt_some -> "ckpt-some"
  | Ckpt_none -> "ckpt-none"
  | Ckpt_every k -> Printf.sprintf "ckpt-every-%d" k
  | Ckpt_budget b -> Printf.sprintf "ckpt-budget-%d" b
  | Ckpt_restart -> "ckpt-restart"
  | Ckpt_hybrid t -> Printf.sprintf "ckpt-hybrid-%d" t

type plan = {
  kind : kind;
  schedule : Schedule.t;
  raw_dag : Dag.t;
  platform : Platform.t;
  segments : Placement.segment array;
  segment_of_task : int array;
  prob_dag : Prob_dag.t option;
  wpar : float;
  checkpoint_count : int;
  replicas : int;
}

(* Failure-free parallel time of the schedule with no checkpoint I/O:
   tasks cost weight + initial-input reads; edges are the raw
   dependencies plus the serialisation of each superchain. *)
let parallel_time ~raw ~schedule ~platform =
  let dag = schedule.Schedule.dag in
  let n = Dag.n_tasks dag in
  let pd = Prob_dag.create () in
  let chain_of = schedule.Schedule.chain_of_task in
  for t = 0 to n - 1 do
    let input_read =
      List.fold_left (fun acc s -> acc +. Platform.io_time platform s) 0. (Dag.inputs dag t)
    in
    (* heterogeneous speeds: each task computes at its superchain
       processor's speed (speed 1 divides exactly, staying bitwise) *)
    let proc = schedule.Schedule.superchains.(chain_of.(t)).Superchain.processor in
    let speed = if Platform.uniform_speed platform then 1. else Platform.speed_of platform proc in
    let d = (Dag.weight dag t /. speed) +. input_read in
    ignore (Prob_dag.add_node pd ~base:d ~degraded:d ~pfail:0.)
  done;
  for u = 0 to Dag.n_tasks raw - 1 do
    List.iter (fun v -> Prob_dag.add_edge pd u v) (Dag.succ_ids raw u)
  done;
  Array.iter
    (fun (sc : Superchain.t) ->
      let order = sc.Superchain.order in
      for k = 0 to Array.length order - 2 do
        Prob_dag.add_edge pd order.(k) order.(k + 1)
      done)
    schedule.Schedule.superchains;
  Prob_dag.deterministic_makespan pd

(* Coalesce checkpointed segments into a 2-state DAG. [dep_dag] yields
   the cross-superchain synchronisations: the completed graph for
   CKPTSOME, the raw one for the baselines. *)
let build_prob_dag ~dep_dag ~schedule ~platform ~segments ~segment_of_task =
  let pd = Prob_dag.create () in
  Array.iter
    (fun (seg : Placement.segment) ->
      let sc = schedule.Schedule.superchains.(seg.Placement.chain) in
      let lambda = Platform.rate_of platform sc.Superchain.processor in
      let s = seg.Placement.read +. seg.Placement.work +. seg.Placement.write in
      let pfail = Float.min 1. (lambda *. s) in
      ignore (Prob_dag.add_node pd ~base:s ~degraded:(1.5 *. s) ~pfail))
    segments;
  (* serialisation: consecutive segments of a superchain *)
  let by_chain = Hashtbl.create 16 in
  Array.iteri
    (fun idx (seg : Placement.segment) ->
      let l = Option.value ~default:[] (Hashtbl.find_opt by_chain seg.Placement.chain) in
      Hashtbl.replace by_chain seg.Placement.chain ((seg.Placement.first, idx) :: l))
    segments;
  Hashtbl.iter
    (fun _ l ->
      let sorted = List.sort compare l in
      let rec link = function
        | (_, a) :: ((_, b) :: _ as tl) ->
            Prob_dag.add_edge pd a b;
            link tl
        | [] | [ _ ] -> ()
      in
      link sorted)
    by_chain;
  (* data dependencies across superchains *)
  let chain_of = schedule.Schedule.chain_of_task in
  for u = 0 to Dag.n_tasks dep_dag - 1 do
    List.iter
      (fun v ->
        if chain_of.(u) <> chain_of.(v) then
          Prob_dag.add_edge pd segment_of_task.(u) segment_of_task.(v))
      (Dag.succ_ids dep_dag u)
  done;
  pd

let plan_of_positions ?(jobs = 1) ?(replicas = 1) ~kind ~raw ~schedule ~platform
    ~positions () =
  if replicas < 1 then invalid_arg "Strategy.plan: replicas < 1";
  let dag = schedule.Schedule.dag in
  if Dag.n_tasks raw <> Dag.n_tasks dag then
    invalid_arg "Strategy.plan: raw and scheduled DAGs disagree on tasks";
  let wpar = parallel_time ~raw ~schedule ~platform in
  (* independent per-superchain solves, reduced in superchain order:
     the result is the same for any [jobs]. Segments are priced over
     [raw]: the scheduled DAG only adds zero-size completion files, and
     adding or removing [0.] in a byte sum that starts at [+0.] leaves
     it bitwise unchanged, so the costs are the same for far fewer
     edges walked *)
  let chains = schedule.Schedule.superchains in
  let per_chain =
    Ckpt_parallel.Pool.map_shared ~jobs (Array.length chains) (fun c ->
        let sc = chains.(c) in
        Placement.segments_of_positions ~replicas platform raw sc ~positions:(positions sc))
  in
  let segments = Array.of_list (List.concat (Array.to_list per_chain)) in
  let segment_of_task = Array.make (Dag.n_tasks dag) (-1) in
  Array.iteri
    (fun idx (seg : Placement.segment) ->
      let sc = schedule.Schedule.superchains.(seg.Placement.chain) in
      for k = seg.Placement.first to seg.Placement.last do
        segment_of_task.(Superchain.task_at sc k) <- idx
      done)
    segments;
  let dep_dag =
    (* superchain-structured strategies rely on the completed graph's
       synchronisations; CKPTALL is a baseline on the raw workflow *)
    match kind with
    | Ckpt_some | Ckpt_every _ | Ckpt_budget _ | Ckpt_restart | Ckpt_hybrid _ -> dag
    | Ckpt_all | Ckpt_none -> raw
  in
  let pd = build_prob_dag ~dep_dag ~schedule ~platform ~segments ~segment_of_task in
  {
    kind;
    schedule;
    raw_dag = raw;
    platform;
    segments;
    segment_of_task;
    prob_dag = Some pd;
    wpar;
    checkpoint_count = Array.length segments;
    replicas;
  }

let plan ?(jobs = 1) ?(replicas = 1) kind ~raw ~schedule ~platform =
  if replicas < 1 then invalid_arg "Strategy.plan: replicas < 1";
  let dag = schedule.Schedule.dag in
  match kind with
  | Ckpt_none ->
      if Dag.n_tasks raw <> Dag.n_tasks dag then
        invalid_arg "Strategy.plan: raw and scheduled DAGs disagree on tasks";
      let wpar = parallel_time ~raw ~schedule ~platform in
      {
        kind;
        schedule;
        raw_dag = raw;
        platform;
        segments = [||];
        segment_of_task = Array.make (Dag.n_tasks dag) (-1);
        prob_dag = None;
        wpar;
        checkpoint_count = 0;
        replicas;
      }
  | Ckpt_all | Ckpt_some | Ckpt_every _ | Ckpt_budget _ | Ckpt_restart | Ckpt_hybrid _ ->
      (* Effective width: clamp to cores (jobs beyond the core count
         only oversubscribe), then fall back to the sequential
         shared-arena path when the fan-out cannot pay for itself —
         a single superchain, or too little DP work to amortise batch
         hand-off. Every per-chain solve is jobs-invariant, so the
         clamp never changes the plan. *)
      let jobs = Ckpt_parallel.Pool.effective_jobs jobs in
      let dp_cells =
        Array.fold_left
          (fun acc (sc : Superchain.t) -> acc + Toueg.tri_size (Superchain.n_tasks sc))
          0 schedule.Schedule.superchains
      in
      let jobs =
        if Array.length schedule.Schedule.superchains < 2 || dp_cells < 20_000 then 1
        else jobs
      in
      (* sequential runs reuse one arena across superchains; parallel
         workers each build their own (sharing would race). Like the
         segments, the Algorithm-2 tables read [raw]'s files *)
      let shared = if jobs = 1 then Some (Placement.arena raw) else None in
      let positions (sc : Superchain.t) =
        match kind with
        | Ckpt_all -> Placement.every_position sc
        | Ckpt_every period -> Placement.periodic_positions sc ~period
        | Ckpt_budget budget ->
            snd
              (Placement.optimal_positions_budget ?arena:shared ~replicas platform raw sc
                 ~budget)
        (* RESTART: no checkpoint inside the superchain — a failure
           re-executes from the last natural boundary (the previous
           superchain's forced final checkpoint), i.e. one segment
           spanning the whole chain *)
        | Ckpt_restart -> [ Superchain.n_tasks sc - 1 ]
        (* hybrid restart/checkpoint: short superchains (<= threshold
           tasks) restart, long ones get the Algorithm-2 placement —
           pay checkpoint I/O only where a restart would forfeit a lot
           of work *)
        | Ckpt_hybrid threshold ->
            if Superchain.n_tasks sc <= threshold then [ Superchain.n_tasks sc - 1 ]
            else snd (Placement.optimal_positions ?arena:shared ~replicas platform raw sc)
        | Ckpt_some | Ckpt_none ->
            snd (Placement.optimal_positions ?arena:shared ~replicas platform raw sc)
      in
      plan_of_positions ~jobs ~replicas ~kind ~raw ~schedule ~platform ~positions ()

let restart_rate plan =
  let used = Hashtbl.create 16 in
  Array.iter
    (fun (sc : Superchain.t) -> Hashtbl.replace used sc.Superchain.processor ())
    plan.schedule.Schedule.superchains;
  Hashtbl.fold (fun p () acc -> acc +. Platform.rate_of plan.platform p) used 0.

let expected_makespan ?(method_ = Evaluator.Pathapprox) plan =
  match plan.prob_dag with
  | Some pd -> Evaluator.estimate method_ pd
  | None -> Ckpt_eval.Ckptnone.expected_makespan_rate ~wpar:plan.wpar ~rate:(restart_rate plan)

let segment_dag plan =
  match plan.prob_dag with
  | None -> invalid_arg "Strategy.segment_dag: CKPTNONE has no segments"
  | Some pd ->
      let d = Dag.create ~name:(Dag.name plan.raw_dag ^ "/segments") () in
      Array.iteri
        (fun idx (seg : Placement.segment) ->
          let s = seg.Placement.read +. seg.Placement.work +. seg.Placement.write in
          let id =
            Dag.add_task d ~name:(Printf.sprintf "seg%d.%d" seg.Placement.chain idx) ~weight:s
          in
          assert (id = idx))
        plan.segments;
      for u = 0 to Prob_dag.n_nodes pd - 1 do
        List.iter (fun v -> Dag.add_edge d u v 0.) (Prob_dag.succs pd u)
      done;
      d

let makespan_distribution ?max_support plan =
  match plan.prob_dag with
  | None -> None
  | Some pd -> (
      let d = segment_dag plan in
      (* transitive edges (a mid-superchain exit plus the chain's own
         sequence) never lengthen a node-weighted longest path, so
         GSPG recognition is makespan-preserving here *)
      match Ckpt_mspg.Recognize.of_dag_gspg d with
      | Error _ -> None
      | Ok (m, _) ->
          let node_dist i = Prob_dag.dist_of_node pd i in
          Some (Ckpt_eval.Exact_sp.distribution ?max_support m.Ckpt_mspg.Mspg.tree ~node_dist))

let exact_expected_makespan ?max_support plan =
  Option.map Ckpt_prob.Dist.mean (makespan_distribution ?max_support plan)

let checkpoint_positions plan =
  let by_chain = Hashtbl.create 16 in
  Array.iter
    (fun (seg : Placement.segment) ->
      let l = Option.value ~default:[] (Hashtbl.find_opt by_chain seg.Placement.chain) in
      Hashtbl.replace by_chain seg.Placement.chain (seg.Placement.last :: l))
    plan.segments;
  Hashtbl.fold (fun chain l acc -> (chain, List.sort compare l) :: acc) by_chain []
  |> List.sort compare
