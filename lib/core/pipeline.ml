module Dag = Ckpt_dag.Dag
module Platform = Ckpt_platform.Platform
module Mspg = Ckpt_mspg.Mspg
module Recognize = Ckpt_mspg.Recognize

type setup = {
  raw : Dag.t;
  mspg : Mspg.t;
  dummy_edges : int;
  platform : Platform.t;
  schedule : Schedule.t;
  pfail : float;
  ccr : float;
}

(* The homogeneous platform realising the knobs on [dag]: λ from
   [pfail] at the mean task weight, the bandwidth from [ccr]. The only
   part of a setup that depends on them. *)
let derive_platform dag ~processors ~pfail ~ccr =
  let mean_weight = Dag.total_weight dag /. float_of_int (Dag.n_tasks dag) in
  let lambda = Platform.lambda_of_pfail ~pfail ~mean_weight in
  let bandwidth =
    (* a workflow that moves no data has an undefined CCR; any
       bandwidth realises it *)
    let total_data = Dag.total_data dag in
    if total_data <= 0. then 1.
    else Platform.bandwidth_for_ccr ~ccr ~total_data ~total_weight:(Dag.total_weight dag)
  in
  Platform.make ~processors ~lambda ~bandwidth

let prepare ?policy ?platform ~dag ~processors ~pfail ~ccr () =
  if Dag.n_tasks dag = 0 then invalid_arg "Pipeline.prepare: empty workflow";
  let platform =
    match platform with
    | Some p ->
        (* caller-built platform (heterogeneous / priced cloud): must
           agree with the processor count used for scheduling *)
        if p.Platform.processors <> processors then
          invalid_arg "Pipeline.prepare: platform processor count mismatch";
        p
    | None -> derive_platform dag ~processors ~pfail ~ccr
  in
  let mspg, dummy_edges =
    (* one completing pass covers both the plain-M-SPG and the
       completable cases; either way the M-SPG is [dag] plus its tree *)
    match Recognize.of_dag_completed dag with
    | Ok r -> r
    | Error _ -> (
        (* last resort: General SP graphs, whose transitive
           reduction is an M-SPG (future work, Section VIII) *)
        match Recognize.of_dag_gspg dag with
        | Ok (m, _) -> (m, 0)
        | Error msg -> invalid_arg ("Pipeline.prepare: not an M-SPG: " ^ msg))
  in
  let schedule = Allocate.run ?policy mspg ~processors in
  { raw = dag; mspg; dummy_edges; platform; schedule; pfail; ccr }

let reprice setup ~pfail ~ccr =
  let processors = setup.schedule.Schedule.processors in
  { setup with platform = derive_platform setup.raw ~processors ~pfail ~ccr; pfail; ccr }

let plan ?replicas ?frame setup kind =
  Strategy.plan ?replicas ?frame kind ~raw:setup.raw ~schedule:setup.schedule
    ~platform:setup.platform

type comparison = {
  em_some : float;
  em_all : float;
  em_none : float;
  rel_all : float;
  rel_none : float;
  ckpts_some : int;
  ckpts_all : int;
}

let compare_strategies ?method_ ?frame setup =
  let frame =
    match frame with
    | Some f -> f
    | None -> Strategy.frame ~raw:setup.raw ~schedule:setup.schedule
  in
  let some = plan ~frame setup Strategy.Ckpt_some in
  let all = plan ~frame setup Strategy.Ckpt_all in
  let none = plan ~frame setup Strategy.Ckpt_none in
  let em_some = Strategy.expected_makespan ?method_ some in
  let em_all = Strategy.expected_makespan ?method_ all in
  let em_none = Strategy.expected_makespan ?method_ none in
  {
    em_some;
    em_all;
    em_none;
    rel_all = em_all /. em_some;
    rel_none = em_none /. em_some;
    ckpts_some = some.Strategy.checkpoint_count;
    ckpts_all = all.Strategy.checkpoint_count;
  }
