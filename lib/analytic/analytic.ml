module Strategy = Ckpt_core.Strategy
module Placement = Ckpt_core.Placement
module Schedule = Ckpt_core.Schedule
module Superchain = Ckpt_core.Superchain
module Platform = Ckpt_platform.Platform
module Prob_dag = Ckpt_eval.Prob_dag

type model = First_order | Exact

let segment_time model ~lambda s =
  if s < 0. then invalid_arg "Analytic.segment_time: negative duration";
  if lambda < 0. then invalid_arg "Analytic.segment_time: negative rate";
  if lambda <= 0. || s = 0. then s
  else
    match model with
    | First_order -> Placement.first_order ~lambda s
    | Exact -> Float.expm1 (lambda *. s) /. lambda

let restart_time model ~rate wpar =
  if wpar < 0. then invalid_arg "Analytic.restart_time: negative Wpar";
  if rate < 0. then invalid_arg "Analytic.restart_time: negative rate";
  match model with
  | First_order -> Ckpt_eval.Ckptnone.expected_makespan_rate ~wpar ~rate
  | Exact -> if rate <= 0. || wpar = 0. then wpar else Float.expm1 (rate *. wpar) /. rate

(* Expected duration of every 2-state node. Under First_order this is
   the mean of the node's own two-point distribution — the value the
   MC estimator's sample average converges to. Under Exact the segment
   is re-priced from its physical cost and its processor's rate; the
   node count equals the segment count by construction
   (Strategy.build_prob_dag adds exactly one node per segment). *)
let node_times model (plan : Strategy.plan) pd =
  let n = Prob_dag.n_nodes pd in
  match model with
  | First_order ->
      Array.init n (fun i ->
          let nd = Prob_dag.node pd i in
          ((1. -. nd.Prob_dag.pfail) *. nd.Prob_dag.base)
          +. (nd.Prob_dag.pfail *. nd.Prob_dag.degraded))
  | Exact ->
      if Array.length plan.Strategy.segments <> n then
        invalid_arg "Analytic.expected_makespan: plan segments and DAG nodes disagree";
      Array.init n (fun i ->
          let seg = plan.Strategy.segments.(i) in
          let sc = plan.Strategy.schedule.Schedule.superchains.(seg.Placement.chain) in
          let lambda = Platform.rate_of plan.Strategy.platform sc.Superchain.processor in
          let s = seg.Placement.read +. seg.Placement.work +. seg.Placement.write in
          segment_time Exact ~lambda s)

(* First_order is the PATHAPPROX functional: the first-order failure
   expansion E[M] = M(none) + Σᵢ pᵢ·(M(only i) − M(none)) of the 2-state
   DAG's expected longest path, i.e. the trials → ∞ limit of the MC
   estimator up to O((λs)²). Exact composes exact per-segment
   expectations over the longest path: exact on chains (the Sodre
   regimes), a lower first-order estimate across parallel joins. *)
let expected_makespan ?(model = First_order) (plan : Strategy.plan) =
  match (model, plan.Strategy.prob_dag) with
  | First_order, _ -> Strategy.expected_makespan plan
  | Exact, None -> restart_time Exact ~rate:(Strategy.restart_rate plan) plan.Strategy.wpar
  | Exact, Some pd ->
      let times = node_times Exact plan pd in
      Prob_dag.longest_path_with pd (fun i -> times.(i))

let schedule_makespan ?(model = First_order) (plan : Strategy.plan) =
  match plan.Strategy.prob_dag with
  | None -> restart_time model ~rate:(Strategy.restart_rate plan) plan.Strategy.wpar
  | Some pd ->
      (* the Engine recurrence with each attempt loop collapsed to its
         expectation: ready = max over DAG predecessors, start = max of
         ready and the processor's last completion, completion = start
         + E[T]. Segments are topologically index-ordered (Engine
         enforces this on the same arrays). *)
      let times = node_times model plan pd in
      let n = Prob_dag.n_nodes pd in
      let completion = Array.make n 0. in
      let proc_free = Hashtbl.create 16 in
      let finish = ref 0. in
      for i = 0 to n - 1 do
        let seg = plan.Strategy.segments.(i) in
        let proc =
          plan.Strategy.schedule.Schedule.superchains.(seg.Placement.chain)
            .Superchain.processor
        in
        let ready =
          List.fold_left
            (fun acc p ->
              if p >= i then
                invalid_arg "Analytic.schedule_makespan: segments not topologically ordered";
              Float.max acc completion.(p))
            0. (Prob_dag.preds pd i)
        in
        let free = Option.value ~default:0. (Hashtbl.find_opt proc_free proc) in
        let done_at = Float.max ready free +. times.(i) in
        completion.(i) <- done_at;
        Hashtbl.replace proc_free proc done_at;
        if done_at > !finish then finish := done_at
      done;
      !finish
