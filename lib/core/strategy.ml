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

(* The CCR-free part of a plan with one set of checkpoint positions,
   for one synchronisation class: each segment's checkpoint position
   (the key), superchain and first position, its R/W/C byte sums at
   [bytes.(3i)], [.(3i+1)] and [.(3i+2)], the task -> segment map, and
   the 2-state DAG's weight-free topology. Immutable *)
type skeleton = {
  last : int array;
  chain : int array;
  first : int array;
  bytes : float array;
  segment_of_task : int array;
  topology : Prob_dag.topology;
}

(* What planning reads that no knob changes: every superchain
   flattened once, and the last skeleton of each synchronisation
   class. A slot holds an immutable skeleton and is swapped whole, so
   domains planning through one frame at once at worst each build a
   skeleton the other also built *)
type frame = {
  raw : Dag.t;
  schedule : Schedule.t;
  flats : Placement.flat array;  (* indexed by superchain id *)
  completed : skeleton option Atomic.t;  (* superchain strategies: the completed graph *)
  baseline : skeleton option Atomic.t;  (* CKPTALL: the raw workflow *)
}

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
   the longest path over [raw]'s dependencies plus the serialisation
   of each superchain, a task lasting its weight over its processor's
   speed plus its initial-input reads. One Kahn sweep relaxes a task's
   out-edges when it is popped, once its distance is final; max is
   exact, so the bits do not depend on the pop order. *)
let parallel_time ~raw ~schedule ~platform =
  let dag = schedule.Schedule.dag in
  let n = Dag.n_tasks dag in
  let csr = if raw == dag then schedule.Schedule.csr else Ckpt_dag.Compiled.of_dag raw in
  let off = csr.Ckpt_dag.Compiled.succ_off and tgt = csr.Ckpt_dag.Compiled.succ_tgt in
  let pred_off = csr.Ckpt_dag.Compiled.pred_off in
  (* [next.(t)]: t's successor in its superchain, -1 at the chain's end *)
  let next = Array.make n (-1) and indeg = Array.make n 0 in
  Array.iter
    (fun (sc : Superchain.t) ->
      let order = sc.Superchain.order in
      for k = 0 to Array.length order - 2 do
        next.(order.(k)) <- order.(k + 1);
        indeg.(order.(k + 1)) <- 1
      done)
    schedule.Schedule.superchains;
  let chain_of = schedule.Schedule.chain_of_task in
  let dur = Array.make n 0. and ready = Array.make n 0 and top = ref 0 in
  for t = n - 1 downto 0 do
    let input_read =
      List.fold_left (fun acc s -> acc +. Platform.io_time platform s) 0. (Dag.inputs dag t)
    in
    (* heterogeneous speeds: each task computes at its superchain
       processor's speed (speed 1 divides exactly, staying bitwise) *)
    let proc = schedule.Schedule.superchains.(chain_of.(t)).Superchain.processor in
    let speed = if Platform.uniform_speed platform then 1. else Platform.speed_of platform proc in
    dur.(t) <- (Dag.weight dag t /. speed) +. input_read;
    indeg.(t) <- indeg.(t) + pred_off.(t + 1) - pred_off.(t);
    if indeg.(t) = 0 then begin
      ready.(!top) <- t;
      incr top
    end
  done;
  let dist = Array.make n 0. and best = ref 0. and popped = ref 0 in
  while !top > 0 do
    decr top;
    let u = ready.(!top) in
    incr popped;
    let d = dist.(u) +. dur.(u) in
    if d > !best then best := d;
    (* the superchain successor is one more out-edge, after [raw]'s *)
    let stop = if next.(u) >= 0 then off.(u + 1) else off.(u + 1) - 1 in
    for k = off.(u) to stop do
      let v = if k < off.(u + 1) then tgt.(k) else next.(u) in
      if d > dist.(v) then dist.(v) <- d;
      indeg.(v) <- indeg.(v) - 1;
      if indeg.(v) = 0 then begin
        ready.(!top) <- v;
        incr top
      end
    done
  done;
  if !popped < n then
    invalid_arg "Strategy.plan: a superchain order contradicts a dependency";
  !best

let check_tasks ~raw ~schedule =
  if Dag.n_tasks raw <> Dag.n_tasks schedule.Schedule.dag then
    invalid_arg "Strategy.plan: raw and scheduled DAGs disagree on tasks"

(* flattened with [arena]'s per-task stamps as scratch *)
let fresh_frame ~raw ~schedule arena =
  check_tasks ~raw ~schedule;
  (* like the Algorithm-2 tables, segments are priced over [raw]: the
     completion adds only zero-size synchronisations, which change no
     cost *)
  {
    raw;
    schedule;
    flats = Array.map (Placement.flatten arena raw) schedule.Schedule.superchains;
    completed = Atomic.make None;
    baseline = Atomic.make None;
  }

let frame ~raw ~schedule = fresh_frame ~raw ~schedule (Placement.arena raw)

(* Coalesce the segments into a 2-state DAG's topology. The
   cross-superchain synchronisations are [raw]'s edges plus the pairs
   of [cuts]: the schedule's completed cuts give the completed graph,
   which CKPTSOME synchronises on, where the baselines pass none and
   keep the raw one. A cut (X, Y) with |X|·|Y| > |X|+|Y| whose two
   sides share no superchain synchronises through one join node
   instead of |X|·|Y| edges; the expanded graph is the same either
   way. A cut inside a superchain never gets a join: its segment would
   reach itself through the join. *)
let build_topology ~raw ~cuts ~schedule ~chain ~segment_of_task =
  let pd = Prob_dag.create () in
  Array.iter (fun _ -> ignore (Prob_dag.add_node pd ~base:0. ~degraded:0. ~pfail:0.)) chain;
  (* serialisation: the segments come chain by chain in position
     order, so each follows the one before it on its chain *)
  for idx = 1 to Array.length chain - 1 do
    if chain.(idx) = chain.(idx - 1) then Prob_dag.add_edge pd (idx - 1) idx
  done;
  let chain_of = schedule.Schedule.chain_of_task in
  let seg u = segment_of_task.(u) in
  let cross u v = if chain_of.(u) <> chain_of.(v) then Prob_dag.add_edge pd (seg u) (seg v) in
  (* the completion: [sink_join.(u)] / [source_join.(v)] name the joined
     cut [u] is a sink / [v] a source of, so the raw edges it covers
     are skipped below *)
  let n = Dag.n_tasks raw in
  let sink_join = Array.make n (-1) and source_join = Array.make n (-1) in
  let stamp = Array.make (Array.length schedule.Schedule.superchains) (-1) in
  List.iteri
    (fun c (sinks, sources) ->
      let nx = List.length sinks and ny = List.length sources in
      List.iter (fun u -> stamp.(chain_of.(u)) <- c) sinks;
      if nx * ny > nx + ny && not (List.exists (fun v -> stamp.(chain_of.(v)) = c) sources)
      then begin
        List.iter (fun u -> sink_join.(u) <- c) sinks;
        List.iter (fun v -> source_join.(v) <- c) sources;
        Prob_dag.add_join pd (List.map seg sinks) (List.map seg sources)
      end
      else List.iter (fun u -> List.iter (cross u) sources) sinks)
    cuts;
  (* data dependencies across superchains *)
  for u = 0 to n - 1 do
    List.iter
      (fun v -> if not (sink_join.(u) >= 0 && sink_join.(u) = source_join.(v)) then cross u v)
      (Dag.succ_ids raw u)
  done;
  Prob_dag.topology pd

(* The skeleton of the segments ending at [last], chain by chain *)
let skeleton (frame : frame) scratch ~cuts last =
  let superchains = frame.schedule.Schedule.superchains in
  let nseg = Array.length last in
  let chain = Array.make nseg 0 and first = Array.make nseg 0 in
  let c = ref 0 and start = ref 0 in
  for idx = 0 to nseg - 1 do
    chain.(idx) <- !c;
    first.(idx) <- !start;
    if last.(idx) = Superchain.n_tasks superchains.(!c) - 1 then begin
      incr c;
      start := 0
    end
    else start := last.(idx) + 1
  done;
  let bytes = Array.make (3 * nseg) 0. in
  let segment_of_task = Array.make (Dag.n_tasks frame.raw) (-1) in
  for idx = 0 to nseg - 1 do
    Placement.segment_bytes scratch frame.flats.(chain.(idx)) ~first:first.(idx)
      ~last:last.(idx) bytes (3 * idx);
    for k = first.(idx) to last.(idx) do
      segment_of_task.(Superchain.task_at superchains.(chain.(idx)) k) <- idx
    done
  done;
  {
    last;
    chain;
    first;
    bytes;
    segment_of_task;
    topology =
      build_topology ~raw:frame.raw ~cuts ~schedule:frame.schedule ~chain ~segment_of_task;
  }

(* [positions scratch flat sc]: the checkpoint positions of superchain
   [sc], flattened as [flat], found with [scratch ()] if need be.
   [arena], when given, is scratch of [frame.raw] that this plan may
   use, which saves a throwaway frame's plan a second arena *)
let plan_in_frame ?arena ~replicas ~kind ~(frame : frame) ~platform ~positions () =
  let raw = frame.raw and schedule = frame.schedule in
  let wpar = parallel_time ~raw ~schedule ~platform in
  let superchains = schedule.Schedule.superchains in
  let scratch =
    let a = ref arena in
    fun () ->
      match !a with
      | Some a -> a
      | None ->
          let fresh = Placement.arena raw in
          a := Some fresh;
          fresh
  in
  (* independent per-superchain solves in superchain order, their
     positions concatenated: the skeleton's key *)
  let per_chain =
    Array.mapi
      (fun c sc ->
        let p = positions scratch frame.flats.(c) sc in
        Placement.check_positions sc p;
        p)
      superchains
  in
  let last = Array.make (Array.fold_left (fun k p -> k + List.length p) 0 per_chain) 0 in
  ignore
    (Array.fold_left
       (fun k p ->
         List.fold_left
           (fun k q ->
             last.(k) <- q;
             k + 1)
           k p)
       0 per_chain);
  let slot, cuts =
    (* superchain-structured strategies rely on the completed graph's
       synchronisations; CKPTALL is a baseline on the raw workflow *)
    match kind with
    | Ckpt_some | Ckpt_every _ | Ckpt_budget _ | Ckpt_restart | Ckpt_hybrid _ ->
        (frame.completed, schedule.Schedule.completion)
    | Ckpt_all | Ckpt_none -> (frame.baseline, [])
  in
  let sk =
    match Atomic.get slot with
    | Some sk when sk.last = last -> sk
    | _ ->
        let sk = skeleton frame (scratch ()) ~cuts last in
        Atomic.set slot (Some sk);
        sk
  in
  (* the platform's part: each segment priced from its byte sums, and
     Eq. 2's node weights at its processor's rate *)
  let segments =
    Array.mapi
      (fun idx c ->
        Placement.price ~replicas platform superchains.(c) ~first:sk.first.(idx)
          ~last:sk.last.(idx) sk.bytes (3 * idx))
      sk.chain
  in
  let nseg = Array.length segments in
  let base = Array.make nseg 0. and degraded = Array.make nseg 0. and pfail = Array.make nseg 0. in
  Array.iteri
    (fun idx (seg : Placement.segment) ->
      let sc = superchains.(seg.Placement.chain) in
      let lambda = Platform.rate_of platform sc.Superchain.processor in
      let s = seg.Placement.read +. seg.Placement.work +. seg.Placement.write in
      base.(idx) <- s;
      degraded.(idx) <- 1.5 *. s;
      pfail.(idx) <- Float.min 1. (lambda *. s))
    segments;
  {
    kind;
    schedule;
    raw_dag = raw;
    platform;
    segments;
    segment_of_task = sk.segment_of_task;
    prob_dag = Some (Prob_dag.reweight sk.topology ~base ~degraded ~pfail);
    wpar;
    checkpoint_count = nseg;
    replicas;
  }

let check_frame f ~raw ~schedule =
  if f.raw != raw || f.schedule != schedule then
    invalid_arg "Strategy.plan: frame built for another workflow or schedule"

(* [plan_in_frame] through the caller's frame, or through a throwaway
   one whose flattening scratch the plan then reuses *)
let plan_through ?frame ~raw ~schedule ~replicas ~kind ~platform ~positions () =
  if replicas < 1 then invalid_arg "Strategy.plan: replicas < 1";
  match frame with
  | Some frame ->
      check_frame frame ~raw ~schedule;
      plan_in_frame ~replicas ~kind ~frame ~platform ~positions ()
  | None ->
      let arena = Placement.arena raw in
      let frame = fresh_frame ~raw ~schedule arena in
      plan_in_frame ~arena ~replicas ~kind ~frame ~platform ~positions ()

let plan_of_positions ?(replicas = 1) ?frame ~kind ~raw ~schedule ~platform ~positions () =
  plan_through ?frame ~raw ~schedule ~replicas ~kind ~platform
    ~positions:(fun _ _ sc -> positions sc)
    ()

let plan ?(replicas = 1) ?frame kind ~raw ~schedule ~platform =
  if replicas < 1 then invalid_arg "Strategy.plan: replicas < 1";
  match kind with
  | Ckpt_none ->
      Option.iter (fun f -> check_frame f ~raw ~schedule) frame;
      check_tasks ~raw ~schedule;
      let wpar = parallel_time ~raw ~schedule ~platform in
      {
        kind;
        schedule;
        raw_dag = raw;
        platform;
        segments = [||];
        segment_of_task = Array.make (Dag.n_tasks schedule.Schedule.dag) (-1);
        prob_dag = None;
        wpar;
        checkpoint_count = 0;
        replicas;
      }
  | Ckpt_all | Ckpt_some | Ckpt_every _ | Ckpt_budget _ | Ckpt_restart | Ckpt_hybrid _ ->
      let positions scratch flat (sc : Superchain.t) =
        let optimal () =
          snd (Placement.optimal_positions_flat ~arena:(scratch ()) ~replicas platform flat)
        in
        match kind with
        | Ckpt_all -> Placement.every_position sc
        | Ckpt_every period -> Placement.periodic_positions sc ~period
        | Ckpt_budget budget ->
            snd
              (Placement.optimal_positions_budget_flat ~arena:(scratch ()) ~replicas platform
                 flat ~budget)
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
            if Superchain.n_tasks sc <= threshold then [ Superchain.n_tasks sc - 1 ] else optimal ()
        | Ckpt_some | Ckpt_none -> optimal ()
      in
      plan_through ?frame ~raw ~schedule ~replicas ~kind ~platform ~positions ()

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
