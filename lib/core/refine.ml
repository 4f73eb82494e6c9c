module Superchain_map = Map.Make (Int)

type result = {
  plan : Strategy.plan;
  initial_em : float;
  final_em : float;
  moves : int;
  evaluations : int;
}

(* current positions per superchain id, as sorted int lists *)
let positions_of_plan (plan : Strategy.plan) =
  List.fold_left
    (fun acc (chain, l) -> Superchain_map.add chain l acc)
    Superchain_map.empty
    (Strategy.checkpoint_positions plan)

let rebuild ~frame (plan : Strategy.plan) positions =
  Strategy.plan_of_positions ~replicas:plan.Strategy.replicas ~frame ~kind:plan.Strategy.kind
    ~raw:plan.Strategy.raw_dag ~schedule:plan.Strategy.schedule
    ~platform:plan.Strategy.platform
    ~positions:(fun (sc : Superchain.t) -> Superchain_map.find sc.Superchain.id positions)
    ()

let toggle l p = if List.mem p l then List.filter (fun x -> x <> p) l else List.sort compare (p :: l)

let hill_climb ?(max_rounds = 10) (plan : Strategy.plan) =
  if plan.Strategy.prob_dag = None then
    invalid_arg "Refine.hill_climb: CKPTNONE has no positions to refine";
  let em p = Strategy.expected_makespan p in
  let evaluations = ref 0 and moves = ref 0 in
  let initial_em = em plan in
  let current = ref plan and current_em = ref initial_em in
  let current_positions = ref (positions_of_plan plan) in
  let schedule = plan.Strategy.schedule in
  (* every candidate differs from [plan] in its positions only: one
     frame flattens each superchain once for the whole climb *)
  let frame = Strategy.frame ~raw:plan.Strategy.raw_dag ~schedule in
  let rec round k =
    if k = 0 then ()
    else begin
      (* best-improvement: price every single-position toggle *)
      let best = ref None in
      Array.iter
        (fun (sc : Superchain.t) ->
          let id = sc.Superchain.id in
          let n = Superchain.n_tasks sc in
          (* the final position n-1 stays checkpointed (no crossover
             dependencies) *)
          for p = 0 to n - 2 do
            let candidate =
              Superchain_map.add id (toggle (Superchain_map.find id !current_positions) p)
                !current_positions
            in
            let candidate_plan = rebuild ~frame plan candidate in
            incr evaluations;
            let candidate_em = em candidate_plan in
            match !best with
            | Some (_, _, best_em) when best_em <= candidate_em -> ()
            | _ ->
                if candidate_em < !current_em -. 1e-9 then
                  best := Some (candidate, candidate_plan, candidate_em)
          done)
        schedule.Schedule.superchains;
      match !best with
      | None -> ()
      | Some (positions, better_plan, better_em) ->
          current := better_plan;
          current_em := better_em;
          current_positions := positions;
          incr moves;
          round (k - 1)
    end
  in
  round max_rounds;
  {
    plan = !current;
    initial_em;
    final_em = !current_em;
    moves = !moves;
    evaluations = !evaluations;
  }
