(* Equivalence suite for the compiled/array planner: the packed-DP and
   arena paths must return exactly — bitwise — what the pinned
   list/Hashtbl references of [Dp_oracle] return, on random superchains,
   random M-SPGs and long superchains of the generated families, and
   plans must be identical at any [jobs]. An oracle that re-derives
   segment costs from the DAG alone checks the cost model itself. *)

module Dag = Ckpt_dag.Dag
module Mspg = Ckpt_mspg.Mspg
module Random_wf = Ckpt_workflows.Random_wf
module Platform = Ckpt_platform.Platform
module Toueg = Ckpt_core.Toueg
module Superchain = Ckpt_core.Superchain
module Placement = Ckpt_core.Placement
module Pipeline = Ckpt_core.Pipeline
module Strategy = Ckpt_core.Strategy
module Schedule = Ckpt_core.Schedule
module Prob_dag = Ckpt_eval.Prob_dag
module Rng = Ckpt_prob.Rng
module Spec = Ckpt_workflows.Spec

(* --- random superchains: packed DP vs reference ----------------- *)

let random_cost_table rng n =
  (* an arbitrary positive cost surface with mild superadditivity so
     optima land at interesting split counts *)
  Array.init n (fun j ->
      Array.init (j + 1) (fun _ -> 0.1 +. Rng.float rng 10.))

let prop_solve_packed_matches_reference =
  QCheck.Test.make ~count:200 ~name:"solve_packed = reference_solve (bitwise)"
    QCheck.small_nat (fun seed ->
      let rng = Rng.create (seed + 1) in
      let n = 1 + Rng.int rng 40 in
      let table = random_cost_table rng n in
      let cost i j = table.(j).(i) in
      let ref_v, ref_p = Dp_oracle.reference_solve ~n ~cost in
      let tri = Dp_oracle.pack ~n cost in
      let etime = Array.make n 0. and last_ckpt = Array.make n 0 in
      let v, p = Toueg.solve_packed ~n ~tri ~etime ~last_ckpt in
      v = ref_v && p = ref_p)

let prop_solve_budget_packed_matches_reference =
  QCheck.Test.make ~count:200
    ~name:"solve_budget_packed = reference_solve_budget (bitwise)" QCheck.small_nat
    (fun seed ->
      let rng = Rng.create (seed + 101) in
      let n = 1 + Rng.int rng 30 in
      let budget = 1 + Rng.int rng n in
      let table = random_cost_table rng n in
      let cost i j = table.(j).(i) in
      let ref_v, ref_p = Dp_oracle.reference_solve_budget ~n ~cost ~budget in
      let tri = Dp_oracle.pack ~n cost in
      let v, p = Toueg.solve_budget_packed ~n ~tri ~budget in
      v = ref_v && p = ref_p)

(* --- random M-SPGs: arena placement vs reference ---------------- *)

let random_setup seed =
  let m = Random_wf.generate ~seed ~max_tasks:35 () in
  Pipeline.prepare ~dag:m.Mspg.dag ~processors:(1 + (seed mod 7)) ~pfail:0.01 ~ccr:0.5 ()

let prop_optimal_positions_match =
  QCheck.Test.make ~count:100
    ~name:"optimal_positions = reference_optimal_positions (bitwise)" QCheck.small_nat
    (fun seed ->
      let setup = random_setup seed in
      let dag = setup.Pipeline.schedule.Schedule.dag in
      let platform = setup.Pipeline.platform in
      let shared = Placement.arena dag in
      Array.for_all
        (fun sc ->
          let ref_v, ref_p = Dp_oracle.reference_optimal_positions platform dag sc in
          (* both with a shared arena (the sequential planner) and with
             the per-call default (parallel workers) *)
          Placement.optimal_positions ~arena:shared platform dag sc = (ref_v, ref_p)
          && Placement.optimal_positions platform dag sc = (ref_v, ref_p))
        setup.Pipeline.schedule.Schedule.superchains)

let prop_optimal_positions_budget_match =
  QCheck.Test.make ~count:100
    ~name:"optimal_positions_budget = reference (bitwise)" QCheck.small_nat (fun seed ->
      let setup = random_setup (seed + 500) in
      let dag = setup.Pipeline.schedule.Schedule.dag in
      let platform = setup.Pipeline.platform in
      let shared = Placement.arena dag in
      let budget = 1 + (seed mod 4) in
      Array.for_all
        (fun sc ->
          let reference = Dp_oracle.reference_optimal_positions_budget platform dag sc ~budget in
          Placement.optimal_positions_budget ~arena:shared platform dag sc ~budget = reference)
        setup.Pipeline.schedule.Schedule.superchains)

(* --- an independent Figure-4 oracle -------------------------------- *)

(* Segment costs re-derived from the DAG alone, by executing the
   superchain forward from a checkpoint right before position [first]:
   a task reads each file it consumes from stable storage, once per
   segment, unless an earlier task of the segment produced it (the file
   is then still in memory), plus its initial inputs; the checkpoint
   after position [last] saves every executed-but-unsaved file that
   still has an unfinished consumer — one later in this superchain, or
   one on another superchain. [costs.(first).(last)] is (R, W, C) in
   seconds *)
let oracle_costs ~replicas platform dag (sc : Superchain.t) =
  let n = Superchain.n_tasks sc in
  let position = Hashtbl.create n in
  Array.iteri (fun k t -> Hashtbl.replace position t k) sc.Superchain.order;
  let finished ~last m =
    match Hashtbl.find_opt position m with Some k -> k <= last | None -> false
  in
  let speed = Platform.speed_of platform sc.Superchain.processor in
  let costs = Array.make_matrix n n (0., 0., 0.) in
  for first = 0 to n - 1 do
    (* file id -> (size, consumers) of the files executed since [first] *)
    let unsaved = Hashtbl.create 16 and read = Hashtbl.create 16 in
    let read_bytes = ref 0. and work = ref 0. in
    for last = first to n - 1 do
      let t = sc.Superchain.order.(last) in
      List.iter
        (fun (_, (f : Dag.file)) ->
          if not (Hashtbl.mem unsaved f.Dag.file_id || Hashtbl.mem read f.Dag.file_id) then begin
            Hashtbl.replace read f.Dag.file_id ();
            read_bytes := !read_bytes +. f.Dag.size
          end)
        (Dag.preds dag t);
      List.iter (fun size -> read_bytes := !read_bytes +. size) (Dag.inputs dag t);
      work := !work +. Dag.weight dag t;
      List.iter
        (fun (m, (f : Dag.file)) ->
          let size, consumers =
            Option.value (Hashtbl.find_opt unsaved f.Dag.file_id) ~default:(f.Dag.size, [])
          in
          Hashtbl.replace unsaved f.Dag.file_id (size, m :: consumers))
        (Dag.succs dag t);
      let write_bytes =
        Hashtbl.fold
          (fun _ (size, consumers) acc ->
            if List.exists (fun m -> not (finished ~last m)) consumers then acc +. size else acc)
          unsaved 0.
      in
      costs.(first).(last) <-
        ( Platform.io_time platform !read_bytes,
          !work /. speed,
          Platform.io_time platform (float_of_int replicas *. write_bytes) )
    done
  done;
  costs

(* Eq. 2, written out again: (1 - p) s + p (3/2) s with p = min(1, λs) *)
let eq2 ~lambda s =
  let p = Float.min 1. (lambda *. s) in
  ((1. -. p) *. s) +. (p *. 1.5 *. s)

(* The oracle against [Placement.segment_of] and [cost_matrix] on every
   segment, within 1e-9 of the segment's R+W+C (the oracle sums in
   another order), and Algorithm 2 against brute force over the
   oracle's costs on superchains of at most 9 tasks. Planned like
   [Strategy.plan], over the raw workflow *)
let check_figure4_oracle label (setup : Pipeline.setup) =
  let dag = setup.Pipeline.raw and platform = setup.Pipeline.platform in
  List.iter
    (fun replicas ->
      Array.iter
        (fun (sc : Superchain.t) ->
          let n = Superchain.n_tasks sc in
          let name =
            Printf.sprintf "%s replicas=%d chain %d" label replicas sc.Superchain.id
          in
          let lambda = Platform.rate_of platform sc.Superchain.processor in
          let oracle = oracle_costs ~replicas platform dag sc in
          let cost i j =
            let r, w, c = oracle.(i).(j) in
            eq2 ~lambda (r +. w +. c)
          in
          let matrix = Placement.cost_matrix ~replicas platform dag sc in
          for j = 0 to n - 1 do
            for i = 0 to j do
              let r, w, c = oracle.(i).(j) in
              let seg = Placement.segment_of ~replicas platform dag sc ~first:i ~last:j in
              let near what ~tol expected actual =
                if abs_float (expected -. actual) > tol then
                  Alcotest.failf "%s [%d..%d] %s: oracle %.17g, Placement %.17g" name i j what
                    expected actual
              in
              let tol = 1e-9 *. (r +. w +. c) in
              near "R" ~tol r seg.Placement.read;
              near "W" ~tol w seg.Placement.work;
              near "C" ~tol c seg.Placement.write;
              (* Eq. 2 at most doubles an error in R+W+C *)
              near "cost_matrix" ~tol:(2. *. tol) (cost i j) matrix.(j).(i)
            done
          done;
          if n <= 9 then begin
            let bf_v, _ = Dp_oracle.brute_force ~n ~cost in
            let v, positions = Placement.optimal_positions ~replicas platform dag sc in
            let realised =
              let rec total start = function
                | [] -> 0.
                | q :: rest -> cost start q +. total (q + 1) rest
              in
              total 0 positions
            in
            let close a b = abs_float (a -. b) <= 1e-9 *. abs_float a in
            if not (close bf_v v && close v realised) then
              Alcotest.failf "%s: brute force %.17g, Algorithm 2 %.17g, its positions %.17g"
                name bf_v v realised
          end)
        setup.Pipeline.schedule.Schedule.superchains)
    [ 1; 2 ]

let test_figure4_oracle () =
  for seed = 0 to 39 do
    check_figure4_oracle (Printf.sprintf "random M-SPG seed %d" seed) (random_setup (seed + 1300))
  done;
  (* MONTAGE needs completion at n=50; LIGO is strict there and first
     completes a cut at n=100 *)
  List.iter
    (fun (wf, tasks, seed, processors) ->
      let dag = Spec.generate wf ~seed ~tasks () in
      let setup = Pipeline.prepare ~dag ~processors ~pfail:0.01 ~ccr:0.5 () in
      let label = Printf.sprintf "%s n=%d seed=%d p=%d" (Spec.name wf) tasks seed processors in
      if (wf = Spec.Montage || tasks > 50) && setup.Pipeline.dummy_edges = 0 then
        Alcotest.failf "%s: no completion edges" label;
      check_figure4_oracle label setup)
    [
      (Spec.Montage, 50, 1, 4); (Spec.Montage, 50, 2, 1); (Spec.Montage, 50, 3, 7);
      (Spec.Ligo, 50, 1, 4); (Spec.Ligo, 50, 2, 1); (Spec.Ligo, 100, 1, 4);
    ]

(* --- whole plans: jobs-invariance ------------------------------- *)

let plans_equal (a : Strategy.plan) (b : Strategy.plan) =
  a.Strategy.segments = b.Strategy.segments
  && a.Strategy.segment_of_task = b.Strategy.segment_of_task
  && a.Strategy.wpar = b.Strategy.wpar
  && a.Strategy.checkpoint_count = b.Strategy.checkpoint_count

let prop_plan_jobs_invariant =
  QCheck.Test.make ~count:50 ~name:"Strategy.plan identical at jobs=1 and jobs=4"
    QCheck.small_nat (fun seed ->
      let setup = random_setup (seed + 900) in
      List.for_all
        (fun kind ->
          plans_equal
            (Pipeline.plan ~jobs:1 setup kind)
            (Pipeline.plan ~jobs:4 setup kind))
        [ Strategy.Ckpt_some; Strategy.Ckpt_all; Strategy.Ckpt_budget 2 ])

(* --- completed workflows: plans against the scheduled DAG ---------- *)

(* MONTAGE needs bipartite completion, so the completed graph the
   schedule orders has zero-size synchronisation pairs the raw workflow
   lacks; every plan must still place and price checkpoints exactly as
   the reference paths do over that graph, materialised as edges *)
let completed_kinds =
  Strategy.
    [
      Ckpt_some; Ckpt_all; Ckpt_every 2; Ckpt_budget 2; Ckpt_restart; Ckpt_hybrid 3;
    ]

let expected_positions ~replicas platform dag kind (sc : Ckpt_core.Superchain.t) =
  let n = Ckpt_core.Superchain.n_tasks sc in
  let optimal () = snd (Dp_oracle.reference_optimal_positions ~replicas platform dag sc) in
  match kind with
  | Strategy.Ckpt_some -> optimal ()
  | Strategy.Ckpt_all -> Placement.every_position sc
  | Strategy.Ckpt_every period -> Placement.periodic_positions sc ~period
  | Strategy.Ckpt_budget budget ->
      snd (Dp_oracle.reference_optimal_positions_budget ~replicas platform dag sc ~budget)
  | Strategy.Ckpt_restart -> [ n - 1 ]
  | Strategy.Ckpt_hybrid t -> if n <= t then [ n - 1 ] else optimal ()
  | Strategy.Ckpt_none -> []

let bits = Int64.bits_of_float

let check_completed_plans label (setup : Pipeline.setup) =
  let dag = Completion_fixture.materialise setup.Pipeline.mspg in
  let platform = setup.Pipeline.platform in
  let chains = setup.Pipeline.schedule.Schedule.superchains in
  List.iter
    (fun replicas ->
      List.iter
        (fun kind ->
          let name =
            Printf.sprintf "%s %s replicas=%d" label (Strategy.kind_name kind) replicas
          in
          let plan = Pipeline.plan ~replicas setup kind in
          Alcotest.(check (list (pair int (list int))))
            (name ^ ": positions")
            (Array.to_list
               (Array.map
                  (fun (sc : Ckpt_core.Superchain.t) ->
                    (sc.Ckpt_core.Superchain.id, expected_positions ~replicas platform dag kind sc))
                  chains))
            (Strategy.checkpoint_positions plan);
          Array.iter
            (fun (seg : Placement.segment) ->
              let sc = chains.(seg.Placement.chain) in
              let r =
                Placement.segment_of ~replicas platform dag sc ~first:seg.Placement.first
                  ~last:seg.Placement.last
              in
              Alcotest.(check (list int64))
                (Printf.sprintf "%s: segment %d.%d-%d costs" name seg.Placement.chain
                   seg.Placement.first seg.Placement.last)
                [ bits r.Placement.read; bits r.Placement.work; bits r.Placement.write ]
                [ bits seg.Placement.read; bits seg.Placement.work; bits seg.Placement.write ])
            plan.Strategy.segments)
        completed_kinds)
    [ 1; 2 ]

let test_completed_plans () =
  List.iter
    (fun (wf, tasks) ->
      List.iter
        (fun seed ->
          let dag = Spec.generate wf ~seed ~tasks () in
          let setup = Pipeline.prepare ~dag ~processors:5 ~pfail:0.01 ~ccr:0.5 () in
          if wf = Spec.Montage && setup.Pipeline.dummy_edges = 0 then
            Alcotest.failf "MONTAGE n=%d seed %d: no completion edges" tasks seed;
          check_completed_plans
            (Printf.sprintf "%s n=%d seed=%d" (Spec.name wf) tasks seed)
            setup)
        [ 1; 2; 3 ])
    [ (Spec.Montage, 50); (Spec.Montage, 300); (Spec.Ligo, 50); (Spec.Ligo, 300) ]

let test_completed_plans_heterogeneous () =
  (* per-processor speeds and rates: segment work divides by the
     superchain processor's speed, Algorithm 2 runs at its own rate *)
  let dag = Spec.generate Spec.Montage ~seed:2 ~tasks:50 () in
  let processors = 4 in
  let platform =
    Platform.make_heterogeneous
      ~speeds:[| 1.; 0.5; 2.; 1.25 |]
      ~rates:[| 1e-4; 4e-4; 2e-4; 8e-5 |]
      ~bandwidth:(Dag.total_data dag /. (0.5 *. Dag.total_weight dag))
      ()
  in
  let setup = Pipeline.prepare ~platform ~dag ~processors ~pfail:0.01 ~ccr:0.5 () in
  Alcotest.(check bool) "completion edges" true (setup.Pipeline.dummy_edges > 0);
  check_completed_plans "MONTAGE n=50 heterogeneous" setup

(* --- Pipeline.reprice: recognise and schedule once per sweep ------- *)

(* the MONTAGE/LIGO sweep grid: ten log-spaced CCRs over [1e-3, 1] *)
let sweep_ccrs =
  List.init 10 (fun i ->
      let t = float_of_int i /. 9. in
      10. ** (log10 1e-3 +. (t *. (log10 1. -. log10 1e-3))))

let comparison_bits (c : Pipeline.comparison) =
  ( List.map bits
      Pipeline.[ c.em_some; c.em_all; c.em_none; c.rel_all; c.rel_none ],
    Pipeline.[ c.ckpts_some; c.ckpts_all ] )

let test_reprice_matches_prepare () =
  let dag = Spec.generate Spec.Montage ~seed:1 ~tasks:300 () in
  let processors = 18 in
  let base = Pipeline.prepare ~dag ~processors ~pfail:0.01 ~ccr:1e-3 () in
  List.iter
    (fun pfail ->
      List.iter
        (fun ccr ->
          let name = Printf.sprintf "pfail=%g ccr=%g" pfail ccr in
          let r = Pipeline.reprice base ~pfail ~ccr in
          let fresh = Pipeline.prepare ~dag ~processors ~pfail ~ccr () in
          Alcotest.(check bool)
            (name ^ ": structure shared") true
            (r.Pipeline.raw == base.Pipeline.raw
            && r.Pipeline.mspg == base.Pipeline.mspg
            && r.Pipeline.schedule == base.Pipeline.schedule
            && r.Pipeline.dummy_edges = base.Pipeline.dummy_edges);
          Alcotest.(check (pair (list int64) (list int)))
            (name ^ ": comparison") (comparison_bits (Pipeline.compare_strategies fresh))
            (comparison_bits (Pipeline.compare_strategies r)))
        sweep_ccrs)
    [ 1e-2; 1e-3; 1e-4 ]

(* --- implicit completion against the materialised one -------------- *)

(* The 2-state DAG of a superchain strategy as it was built over the
   materialised completion [full]: each superchain's serialisation plus
   one edge per cross-superchain edge of [full], as sorted, deduplicated
   successor and predecessor lists per segment *)
let reference_adjacency (plan : Strategy.plan) full =
  let segments = plan.Strategy.segments in
  let nseg = Array.length segments in
  let chain_of = plan.Strategy.schedule.Schedule.chain_of_task in
  let seg = plan.Strategy.segment_of_task in
  let edges = ref [] in
  let by_chain =
    List.sort compare
      (List.init nseg (fun i -> (segments.(i).Placement.chain, segments.(i).Placement.first, i)))
  in
  let rec link = function
    | (c, _, a) :: ((c', _, b) :: _ as tl) ->
        if c = c' then edges := (a, b) :: !edges;
        link tl
    | [] | [ _ ] -> ()
  in
  link by_chain;
  for u = 0 to Dag.n_tasks full - 1 do
    List.iter
      (fun v -> if chain_of.(u) <> chain_of.(v) then edges := (seg.(u), seg.(v)) :: !edges)
      (Dag.succ_ids full u)
  done;
  let edges = List.sort_uniq compare !edges in
  ( Array.init nseg (fun i -> List.filter_map (fun (a, b) -> if a = i then Some b else None) edges),
    Array.init nseg (fun i -> List.filter_map (fun (a, b) -> if b = i then Some a else None) edges)
  )

let test_completed_prob_dags () =
  let joined = ref 0 in
  List.iter
    (fun (wf, tasks, processors) ->
      let dag = Spec.generate wf ~seed:1 ~tasks () in
      let setup = Pipeline.prepare ~dag ~processors ~pfail:0.01 ~ccr:0.5 () in
      let full = Completion_fixture.materialise setup.Pipeline.mspg in
      List.iter
        (fun replicas ->
          List.iter
            (fun kind ->
              let name =
                Printf.sprintf "%s n=%d p=%d %s replicas=%d" (Spec.name wf) tasks processors
                  (Strategy.kind_name kind) replicas
              in
              let plan = Pipeline.plan ~replicas setup kind in
              let pd = Option.get plan.Strategy.prob_dag in
              joined := !joined + Prob_dag.n_joins pd;
              let succs, preds = reference_adjacency plan full in
              Alcotest.(check int) (name ^ ": nodes") (Array.length succs) (Prob_dag.n_nodes pd);
              Array.iteri
                (fun i expected ->
                  Alcotest.(check (list int))
                    (Printf.sprintf "%s: succs of %d" name i)
                    expected (Prob_dag.succs pd i);
                  Alcotest.(check (list int))
                    (Printf.sprintf "%s: preds of %d" name i)
                    preds.(i) (Prob_dag.preds pd i))
                succs)
            (List.filter (fun k -> k <> Strategy.Ckpt_all) completed_kinds))
        [ 1; 2 ])
    [
      (Spec.Montage, 50, 4);
      (Spec.Montage, 300, 18);
      (Spec.Montage, 300, 2);
      (Spec.Ligo, 300, 18);
      (Spec.Ligo, 300, 5);
      (* two completed cuts inside one superchain: direct edges only *)
      (Spec.Ligo, 1000, 1);
    ];
  (* the join path is the one under test: MONTAGE's large cut takes it *)
  Alcotest.(check bool) "some plan synchronises through a join" true (!joined > 0)

(* Two incomplete bipartite blocks in one superchain (p = 1): the
   linearisation follows the completed cuts, Schedule.check catches an
   order that breaks one, and no plan joins a cut inside a superchain
   (that would route a segment through a join back into its own
   chain) *)
let test_in_superchain_cuts () =
  let dag = Completion_fixture.side_by_side () in
  let setup = Pipeline.prepare ~dag ~processors:1 ~pfail:0.01 ~ccr:0.5 () in
  let schedule = setup.Pipeline.schedule in
  Alcotest.(check int) "dummies" 6 setup.Pipeline.dummy_edges;
  Alcotest.(check (list (list int)))
    "one superchain in completed order"
    [ [ 1; 2; 4; 0; 3; 5; 7; 8; 10; 6; 9; 11 ] ]
    (Array.to_list
       (Array.map
          (fun (sc : Ckpt_core.Superchain.t) -> Array.to_list sc.Ckpt_core.Superchain.order)
          schedule.Schedule.superchains));
  (match Schedule.check schedule with Ok () -> () | Error e -> Alcotest.fail e);
  (* the order over the raw edges alone runs 0 before 4 *)
  let raw_order =
    Schedule.make ~dag ~tree:schedule.Schedule.tree ~processors:1
      ~superchains:
        [
          Ckpt_core.Superchain.make ~id:0 ~processor:0
            ~order:[| 1; 2; 0; 4; 3; 5; 7; 8; 6; 10; 9; 11 |];
        ]
  in
  Alcotest.(check bool) "check rejects the raw-edge order" true
    (Result.is_error (Schedule.check raw_order));
  List.iter
    (fun kind ->
      let plan = Pipeline.plan setup kind in
      let pd = Option.get plan.Strategy.prob_dag in
      let name = Strategy.kind_name kind in
      Alcotest.(check int) (name ^ ": no join") 0 (Prob_dag.n_joins pd);
      Alcotest.(check int)
        (name ^ ": acyclic") (Prob_dag.n_nodes pd)
        (Array.length (Prob_dag.topological_order pd));
      ignore (Prob_dag.deterministic_makespan pd))
    completed_kinds

let test_macro_edges_materialised () =
  List.iter
    (fun (tasks, processors) ->
      let dag = Spec.generate Spec.Montage ~seed:1 ~tasks () in
      let setup = Pipeline.prepare ~dag ~processors ~pfail:0.01 ~ccr:0.5 () in
      let schedule = setup.Pipeline.schedule in
      let full = Completion_fixture.materialise setup.Pipeline.mspg in
      let chain_of = schedule.Schedule.chain_of_task in
      let expected = ref [] in
      for u = 0 to Dag.n_tasks full - 1 do
        List.iter
          (fun v ->
            if chain_of.(u) <> chain_of.(v) then expected := (chain_of.(u), chain_of.(v)) :: !expected)
          (Dag.succ_ids full u)
      done;
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "MONTAGE n=%d p=%d" tasks processors)
        (List.sort_uniq compare !expected)
        (List.sort compare (Schedule.macro_edges schedule)))
    [ (50, 1); (50, 4); (300, 18); (300, 2) ]

(* --- long chains whose cost tables pass the Monge guard ------------- *)

(* Seed-1 cells where some superchain of at least
   [Toueg.monotone_cutoff] tasks has a Monge cost table: small p, where
   superchains grow long. On every superchain the planner's Algorithm 2
   must return the reference DP's bits and positions, with and without
   a checkpoint budget *)
let long_chain_cells =
  [
    (Spec.Genome, 300, 1e-4, 1e-4);
    (Spec.Montage, 1000, 1e-3, 1e-3);
    (Spec.Montage, 1000, 1e-3, 1.);
  ]

let test_long_monge_chains () =
  List.iter
    (fun (wf, tasks, pfail, ccr) ->
      let dag = Spec.generate wf ~seed:1 ~tasks () in
      List.iter
        (fun processors ->
          let setup = Pipeline.prepare ~dag ~processors ~pfail ~ccr () in
          let raw = setup.Pipeline.raw and platform = setup.Pipeline.platform in
          let cell =
            Printf.sprintf "%s n=%d p=%d pfail=%g ccr=%g" (Spec.name wf) tasks processors pfail
              ccr
          in
          let monge = ref 0 in
          Array.iter
            (fun (sc : Superchain.t) ->
              let n = Superchain.n_tasks sc in
              if n >= Toueg.monotone_cutoff then begin
                let matrix = Placement.cost_matrix platform raw sc in
                let tri = Dp_oracle.pack ~n (fun i j -> matrix.(j).(i)) in
                if Toueg.tri_is_monge ~n ~tri then incr monge
              end;
              let check label (ref_v, ref_p) (v, p) =
                let name = Printf.sprintf "%s chain %d %s" cell sc.Superchain.id label in
                Alcotest.(check int64) (name ^ ": value bits") (bits ref_v) (bits v);
                Alcotest.(check (list int)) (name ^ ": positions") ref_p p
              in
              check "unbudgeted"
                (Dp_oracle.reference_optimal_positions platform raw sc)
                (Placement.optimal_positions platform raw sc);
              List.iter
                (fun budget ->
                  check
                    (Printf.sprintf "budget %d" budget)
                    (Dp_oracle.reference_optimal_positions_budget platform raw sc ~budget)
                    (Placement.optimal_positions_budget platform raw sc ~budget))
                [ 2; 5; 10 ])
            setup.Pipeline.schedule.Schedule.superchains;
          if !monge = 0 then
            Alcotest.failf "%s: no Monge cost table on a chain of >= %d tasks" cell
              Toueg.monotone_cutoff)
        [ 1; 2 ])
    long_chain_cells

let suite =
  [
    QCheck_alcotest.to_alcotest prop_solve_packed_matches_reference;
    QCheck_alcotest.to_alcotest prop_solve_budget_packed_matches_reference;
    Alcotest.test_case "Figure-4 oracle = Placement costs; optimum = brute force" `Quick
      test_figure4_oracle;
    QCheck_alcotest.to_alcotest prop_optimal_positions_match;
    QCheck_alcotest.to_alcotest prop_optimal_positions_budget_match;
    QCheck_alcotest.to_alcotest prop_plan_jobs_invariant;
    Alcotest.test_case "completed MONTAGE/LIGO plans = references over the scheduled DAG"
      `Quick test_completed_plans;
    Alcotest.test_case "completed plans on a heterogeneous-speed platform" `Quick
      test_completed_plans_heterogeneous;
    Alcotest.test_case "reprice = prepare across a MONTAGE sweep grid" `Quick
      test_reprice_matches_prepare;
    Alcotest.test_case "completed 2-state DAGs = the materialised completion's" `Quick
      test_completed_prob_dags;
    Alcotest.test_case "in-superchain cuts: ordered, checked, never joined" `Quick
      test_in_superchain_cuts;
    Alcotest.test_case "macro edges = the materialised completion's" `Quick
      test_macro_edges_materialised;
    Alcotest.test_case "long Monge-table chains = reference DPs (bitwise)" `Quick
      test_long_monge_chains;
  ]
