(* ckptwf — command-line driver for the checkpointing-workflows
   reproduction: generate Pegasus-like workflows, schedule them with
   Algorithm 1, place checkpoints with Algorithm 2, evaluate and
   simulate the three strategies, and run the paper's CCR sweeps. *)

open Cmdliner
module Dag = Ckpt_dag.Dag
module Mspg = Ckpt_mspg.Mspg
module Recognize = Ckpt_mspg.Recognize
module Spec = Ckpt_workflows.Spec
module Pipeline = Ckpt_core.Pipeline
module Strategy = Ckpt_core.Strategy
module Schedule = Ckpt_core.Schedule
module Superchain = Ckpt_core.Superchain
module Evaluator = Ckpt_eval.Evaluator
module Runner = Ckpt_sim.Runner
module Stats = Ckpt_prob.Stats
module Rerror = Ckpt_resilience.Error
module Journal = Ckpt_resilience.Journal
module Retry = Ckpt_resilience.Retry
module Deadline = Ckpt_resilience.Deadline
module Faulty = Ckpt_resilience.Faulty
module Pool = Ckpt_parallel.Pool
module Memo = Ckpt_parallel.Memo
module Storage = Ckpt_storage.Storage
module Store = Ckpt_storage.Store

(* --- error boundary ---

   Every command body runs under [protect]: recoverable failures
   (malformed DAX, invalid DAG, journal corruption, I/O trouble) exit
   with a one-line diagnostic and code 2 — never an OCaml backtrace.
   The libraries' [Invalid_argument] checks on out-of-range numbers
   (zero processors, zero trials, pfail >= 1) are bad input too.
   Exhausted budgets/retries exit 3; an injected fail-stop error (the
   testing aid) exits 1, mimicking a killed process. *)

let die e =
  Printf.eprintf "ckptwf: %s\n%!" (Rerror.to_string e);
  exit (Rerror.exit_code e)

let invalid_input message = Rerror.Parse { source = "invalid input"; message }

let protect f =
  try f () with
  | Rerror.E e -> die e
  | Invalid_argument message -> die (invalid_input message)
  | Ckpt_dax.Dax.Error message -> die (Rerror.Parse { source = "dax"; message })
  | Faulty.Injected label ->
      Printf.eprintf "ckptwf: injected fail-stop error during %s\n%!" label;
      exit 1
  | Sys_error message -> die (Rerror.Io { path = "<fs>"; message })

(* --- shared arguments --- *)

let workflow_conv =
  let parse s =
    match Spec.of_name s with
    | Some k -> Ok k
    | None -> Error (`Msg (Printf.sprintf "unknown workflow %S (genome|montage|ligo)" s))
  in
  Arg.conv (parse, fun fmt k -> Format.pp_print_string fmt (Spec.name k))

let method_conv =
  let parse s =
    match Evaluator.of_name s with
    | Some m -> Ok m
    | None ->
        Error (`Msg (Printf.sprintf "unknown method %S (montecarlo|dodin|normal|pathapprox)" s))
  in
  Arg.conv (parse, fun fmt m -> Format.pp_print_string fmt (Evaluator.name m))

let workflow_arg =
  Arg.(
    value
    & opt workflow_conv Spec.Genome
    & info [ "w"; "workflow" ] ~docv:"WORKFLOW" ~doc:"Workflow family: genome, montage or ligo.")

let tasks_arg =
  Arg.(value & opt int 300 & info [ "n"; "tasks" ] ~docv:"N" ~doc:"Approximate task count.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")

let processors_arg =
  Arg.(value & opt int 35 & info [ "p"; "processors" ] ~docv:"P" ~doc:"Processor count.")

let pfail_arg =
  Arg.(
    value
    & opt float 0.001
    & info [ "pfail" ] ~docv:"PFAIL" ~doc:"Per-task failure probability (sets lambda).")

let ccr_arg =
  Arg.(
    value
    & opt float 0.01
    & info [ "ccr" ] ~docv:"CCR" ~doc:"Communication-to-computation ratio (sets bandwidth).")

let method_arg =
  Arg.(
    value
    & opt method_conv Evaluator.Pathapprox
    & info [ "m"; "method" ] ~docv:"METHOD"
        ~doc:"Expected-makespan estimator: montecarlo, dodin, normal or pathapprox.")

let trials_arg =
  Arg.(value & opt int 1000 & info [ "trials" ] ~docv:"T" ~doc:"Simulation trials.")

let dax_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "dax" ] ~docv:"FILE"
        ~doc:"Load the workflow from a Pegasus DAX file instead of generating one.")

let positive_float_conv =
  let parse s =
    match float_of_string_opt s with
    | Some v when v > 0. -> Ok v
    | Some _ -> Error (`Msg "expected a positive number of seconds")
    | None -> Error (`Msg (Printf.sprintf "invalid number %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let deadline_arg =
  Arg.(
    value
    & opt (some positive_float_conv) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget: Monte-Carlo sampling is cut off at the samples completed \
           when the budget expires instead of running to the full trial count.")

let jobs_arg =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= 1 -> Ok v
    | Some 0 -> Ok (Ckpt_parallel.Pool.available_jobs ())
    | Some _ -> Error (`Msg "expected a non-negative worker count")
    | None -> Error (`Msg (Printf.sprintf "invalid worker count %S" s))
  in
  Arg.(
    value
    & opt (conv (parse, Format.pp_print_int)) 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for Monte-Carlo sampling, simulation trials and sweep cells. \
           Results are bitwise independent of $(docv); 0 means one worker per available \
           core. Default 1 (fully sequential).")

(* --- storage fault-model flags (shared by simulate / degrade / storm) --- *)

let nonneg_float_conv what =
  let parse s =
    match float_of_string_opt s with
    | Some v when v >= 0. -> Ok v
    | Some _ -> Error (`Msg (Printf.sprintf "expected a non-negative %s" what))
    | None -> Error (`Msg (Printf.sprintf "invalid number %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let replicas_arg =
  Arg.(
    value
    & opt int 1
    & info [ "replicas" ] ~docv:"K"
        ~doc:
          "Checkpoint replication factor: every commit writes $(docv) independent copies \
           (the planner prices it at K*C in the placement DP) and a recovery read \
           succeeds while any copy is still valid.")

let storage_lambda_arg =
  Arg.(
    value
    & opt (nonneg_float_conv "rate") 0.
    & info [ "storage-lambda" ] ~docv:"RATE"
        ~doc:
          "Latent-corruption rate of each stored replica per second on disk (0 = stable \
           storage never rots).")

let corrupt_prob_arg =
  Arg.(
    value
    & opt (nonneg_float_conv "probability") 0.
    & info [ "corrupt-prob" ] ~docv:"P"
        ~doc:
          "Probability that a replica is latently corrupt from the moment it is \
           committed, revealed only by a recovery read.")

let commit_fail_prob_arg =
  Arg.(
    value
    & opt (nonneg_float_conv "probability") 0.
    & info [ "commit-fail-prob" ] ~docv:"P"
        ~doc:
          "Probability that a checkpoint commit fails detectably; failed commits are \
           retried under the default backoff policy and an exhausted cycle re-executes \
           the producing segment.")

let outage_rate_arg =
  Arg.(
    value
    & opt (nonneg_float_conv "rate") 0.
    & info [ "outage-rate" ] ~docv:"RATE"
        ~doc:"Storage outage starts per second (0 = always reachable).")

let outage_mean_arg =
  Arg.(
    value
    & opt (nonneg_float_conv "duration") 0.
    & info [ "outage-mean" ] ~docv:"SECONDS" ~doc:"Mean duration of one storage outage.")

(* One shared spec for the storage fault model: [storage_base_term]
   carries the channels every storage-aware command exposes the same
   way; [storage_term] adds the per-commit corruption probability and
   replication factor for the commands that take them as single values
   (storm sweeps those two itself, with repeatable flags). *)
let storage_base_term =
  let make commit_fail_prob storage_lambda outage_rate outage_mean =
    {
      Storage.default with
      Storage.commit_fail_prob;
      storage_lambda;
      outage_rate;
      outage_mean;
    }
  in
  Term.(
    const make $ commit_fail_prob_arg $ storage_lambda_arg $ outage_rate_arg
    $ outage_mean_arg)

let storage_term =
  let make base corrupt_prob replicas = { base with Storage.corrupt_prob; replicas } in
  Term.(const make $ storage_base_term $ corrupt_prob_arg $ replicas_arg)

let check_storage cfg =
  try Storage.validate cfg
  with Invalid_argument message -> die (Rerror.Io { path = "--storage flags"; message })

(* --- checkpoint-store flags (the Ckpt_storage.Store layer; shared by
   simulate / degrade / storm / cloud) --- *)

type store_flags = {
  sf_backend : [ `Memory | `Disk | `Replicated | `Remote ];
  sf_path : string option;
  sf_policy : Store.policy;
  sf_commit_latency : float;
  sf_read_latency : float;
  sf_fail_after : int option;
}

let store_backend_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "memory" -> Ok `Memory
    | "disk" -> Ok `Disk
    | "replicated" -> Ok `Replicated
    | "remote" -> Ok `Remote
    | _ ->
        Error
          (`Msg (Printf.sprintf "unknown store backend %S (memory|disk|replicated|remote)" s))
  in
  let print fmt b =
    Format.pp_print_string fmt
      (match b with
      | `Memory -> "memory"
      | `Disk -> "disk"
      | `Replicated -> "replicated"
      | `Remote -> "remote")
  in
  Arg.conv (parse, print)

let store_backend_arg =
  Arg.(
    value
    & opt store_backend_conv `Memory
    & info [ "store" ] ~docv:"BACKEND"
        ~doc:
          "Checkpoint-store backend: $(b,memory) (in-process, the bitwise-identical \
           default), $(b,disk) (crash-consistent journal of committed recovery lines at \
           $(b,--store-path), fingerprint-validated on resume), $(b,replicated) (the \
           store owns the replica count from $(b,--replicas), priced k*C by the \
           planner), or $(b,remote) (fixed $(b,--store-latency)/$(b,--store-read-latency) \
           charged per durable commit / recovery read).")

let store_path_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store-path" ] ~docv:"FILE"
        ~doc:
          "Store file of the $(b,disk) backend: every durable commit is appended with an \
           atomic rename, so a fail-stop error mid-commit never leaves a readable \
           partial, and a rerun resumes only records whose (schema, DAG hash, segment, \
           CRC) fingerprint validates.")

let store_policy_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Store.parse_policy s) in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (Store.policy_name p))

let store_policy_arg =
  Arg.(
    value
    & opt store_policy_conv Store.Every_segment
    & info [ "store-policy" ] ~docv:"POLICY"
        ~doc:
          "Durability policy: $(b,every-segment) (every commit durable — the paper's \
           model, default), $(b,every-K) (only each K-th commit per trial durable, e.g. \
           every-3), or $(b,on-interrupt) (only grace-window rescue commits durable). \
           Policies never change simulated timing, only what survives a recovery line.")

let store_commit_latency_arg =
  Arg.(
    value
    & opt (nonneg_float_conv "latency") 0.
    & info [ "store-latency" ] ~docv:"SECONDS"
        ~doc:"Simulated latency added to every durable commit by the remote backend.")

let store_read_latency_arg =
  Arg.(
    value
    & opt (nonneg_float_conv "latency") 0.
    & info [ "store-read-latency" ] ~docv:"SECONDS"
        ~doc:"Simulated latency added to every recovery read by the remote backend.")

let store_fail_after_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "store-fail-after" ] ~docv:"N"
        ~doc:
          "Store-level fault injection (testing aid): crash with a simulated fail-stop \
           error at the ($(docv)+1)-th store operation (commit, read, invalidate or \
           physical store write).")

let store_flags_term =
  let make sf_backend sf_path sf_policy sf_commit_latency sf_read_latency sf_fail_after =
    { sf_backend; sf_path; sf_policy; sf_commit_latency; sf_read_latency; sf_fail_after }
  in
  Term.(
    const make $ store_backend_arg $ store_path_arg $ store_policy_arg
    $ store_commit_latency_arg $ store_read_latency_arg $ store_fail_after_arg)

(* resolve the flags against a command's capabilities: the disk file is
   a single-domain plan-fingerprinted journal, so only the commands
   that run one plan set per invocation (simulate, storm) accept it;
   storm sweeps --replicas itself so a replicated store would fight
   the sweep *)
let store_config ~cmd ?(allow_disk = false) ?(allow_replicated = true) flags
    (faults : Storage.config) =
  let bad message = die (Rerror.Io { path = "--store"; message }) in
  let backend =
    match flags.sf_backend with
    | `Memory -> Store.Memory
    | `Disk ->
        if not allow_disk then
          bad
            (Printf.sprintf
               "the disk backend is not supported by %s (use memory, replicated or remote)"
               cmd)
        else (
          match flags.sf_path with
          | Some path -> Store.Disk { path }
          | None ->
              die
                (Rerror.Io
                   { path = "--store-path"; message = "the disk backend needs --store-path FILE" }))
    | `Replicated ->
        if not allow_replicated then
          bad (Printf.sprintf "%s sweeps --replicas itself; use memory, disk or remote" cmd)
        else Store.Replicated { k = faults.Storage.replicas }
    | `Remote ->
        Store.Remote
          {
            commit_latency = flags.sf_commit_latency;
            read_latency = flags.sf_read_latency;
          }
  in
  let cfg = { Store.backend; policy = flags.sf_policy; faults } in
  (try Store.validate cfg
   with Invalid_argument message -> die (Rerror.Io { path = "--store flags"; message }));
  cfg

let store_faulty flags =
  match flags.sf_fail_after with None -> Faulty.never () | Some k -> Faulty.after k

(* degrade and cloud replan from in-memory state; only simulate and
   storm drive the store's own fault injector *)
let refuse_store_fail_after flags =
  if flags.sf_fail_after <> None then
    die
      (Rerror.Io
         {
           path = "--store-fail-after";
           message = "store fault injection is supported by simulate and storm";
         })

(* the disk store file is single-domain (simulate, storm) *)
let check_disk_jobs (cfg : Store.config) jobs =
  match cfg.Store.backend with
  | Store.Disk _ when jobs <> 1 ->
      die
        (Rerror.Io
           { path = "--store-path"; message = "the disk store file is single-domain; use --jobs 1" })
  | _ -> ()

(* degrade, storm and cloud study what checkpoints save; [lacks] says
   what a CKPTNONE plan would leave them without *)
let refuse_ckpt_none strategy lacks =
  if strategy = Strategy.Ckpt_none then
    die
      (Rerror.Io
         {
           path = "--strategy";
           message = Printf.sprintf "CKPTNONE %s; pick a checkpointing strategy" lacks;
         })

(* open the disk store file, validating its header fingerprint against
   the plans this run will execute; load-time notices mirror the cell
   journal's recovered-tail note and add the fingerprint-rejected
   record count *)
let open_store_persist ~faulty cfg plans =
  match cfg.Store.backend with
  | Store.Disk { path } -> (
      let fingerprint = Store.fingerprint (List.map Runner.plan_signature (plans ())) in
      match
        Store.open_persist
          ~inject:(fun () -> Faulty.inject faulty "store persist write")
          ~path ~fingerprint ()
      with
      | Ok p ->
          if Store.persist_torn p then
            Printf.eprintf
              "ckptwf: store %s: dropped a truncated trailing record (recovered)\n%!" path;
          if Store.persist_rejected p > 0 then
            Printf.eprintf
              "ckptwf: store %s: %d record(s) rejected by fingerprint validation (their \
               segments will re-commit)\n\
               %!"
              path (Store.persist_rejected p);
          if Store.persist_loaded p > 0 then
            Printf.eprintf "ckptwf: store %s: %d committed record(s) loaded\n%!" path
              (Store.persist_loaded p);
          Some p
      | Error e -> Rerror.raise_ e)
  | _ -> None

(* end-of-run disk-store accounting on stderr: how much of the run was
   resumed from disk versus freshly committed, and how many records
   were rejected by fingerprint validation along the way *)
let store_persist_summary p =
  Printf.eprintf
    "ckptwf: store %s: %d commit(s) resumed from disk, %d appended, %d rejected by \
     fingerprint\n\
     %!"
    (Store.persist_path p) (Store.persist_resumed p) (Store.persist_appended p)
    (Store.persist_rejected p)

(* aggregated per-trial store counters on stderr (degrade / storm /
   simulate when the store is live) *)
let store_totals_notice (s : Store.stats) =
  Printf.eprintf
    "ckptwf: store: %d commit(s) (%d skipped, %d resumed), %d retr%s, %d rejected \
     read(s), %d corrupt read(s), %d eviction(s)\n\
     %!"
    s.Store.commits s.Store.skipped s.Store.resumed s.Store.commit_retries
    (if s.Store.commit_retries = 1 then "y" else "ies")
    s.Store.rejected_reads s.Store.corrupt_reads s.Store.evictions

(* whether this store config leaves the historic output byte-identical:
   the gate for printing any store-specific extras *)
let store_is_default (c : Store.config) =
  c.Store.backend = Store.Memory && c.Store.policy = Store.Every_segment

(* journal-cell key suffix for the store knobs; empty for the default
   backend/policy so pre-existing journals keep resuming *)
let store_part (c : Store.config) =
  if store_is_default c then ""
  else
    Printf.sprintf "|sb=%s|sp=%s"
      (match c.Store.backend with
      | Store.Memory -> "memory"
      | Store.Disk { path } -> "disk:" ^ path
      | Store.Replicated { k } -> Printf.sprintf "replicated:%d" k
      | Store.Remote { commit_latency; read_latency } ->
          Printf.sprintf "remote:%.17g:%.17g" commit_latency read_latency)
      (Store.policy_name c.Store.policy)

(* a float knob in a journal key: [%g] when it reads back as the same
   double, so keys written by earlier versions keep resuming; the exact
   [%.17g] otherwise, so two values that agree to six digits never
   share a key (and replay each other's rows) *)
let key_float x =
  let short = Printf.sprintf "%g" x in
  if float_of_string short = x then short else Printf.sprintf "%.17g" x

(* --- journal / resume / fault-injection flags (shared by the sweeping
   commands: sweep, degrade, storm, cloud) --- *)

let journal_path_arg noun =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          (Printf.sprintf
             "Journal completed cells to $(docv) (CRC-guarded, atomically updated) so a \
              crashed %s can be resumed with $(b,--resume)."
             noun))

let resume_arg =
  Arg.(
    value
    & flag
    & info [ "resume" ]
        ~doc:
          "Resume from the journal: cells already recorded are replayed verbatim instead \
           of recomputed, so the output matches an uninterrupted run exactly.")

let fail_after_arg what =
  Arg.(
    value
    & opt (some int) None
    & info [ "fail-after" ] ~docv:"K"
        ~doc:
          (Printf.sprintf
             "Fault injection (testing aid): simulate a fail-stop error by crashing before \
              computing the ($(docv)+1)-th non-journaled %s."
             what))

(* validate the --resume/--journal combination, open the journal
   (fresh unless resuming) and report a recovered torn tail *)
let open_journal ~resume journal =
  if resume && journal = None then
    die
      (Rerror.Io
         { path = "--resume"; message = "resuming requires --journal FILE to resume from" });
  Option.map
    (fun path ->
      match Journal.open_ ~fresh:(not resume) path with
      | Ok j ->
          if Journal.recovered_tail j then
            Printf.eprintf
              "ckptwf: journal %s: dropped a truncated trailing entry (recovered)\n%!" path;
          j
      | Error e -> Rerror.raise_ e)
    journal

(* journal appends are retried under the default backoff policy: a
   transient filesystem hiccup must not lose a computed cell *)
let journal_append j ~key ~value =
  match Retry.with_retries (fun ~attempt:_ -> Journal.append j ~key ~value) with
  | Ok () -> ()
  | Error e -> Rerror.raise_ e

(* The journaled-cell runner of sweep, degrade, storm and cloud. Each
   cell is looked up in the journal right before it would be computed:
   a journaled row is replayed verbatim; otherwise the --fail-after
   injector may crash the run ([label] names the cell), then the row is
   computed and journaled. Rows print in cell order, [report] sees them
   (stderr summaries), and the journal's reuse count comes last.
   [jobs] > 1 fans the cells over the resident pool with lookup,
   injection and append serialised, so stdout does not depend on it. *)
let run_cells ?(jobs = 1) ?(report = ignore) ~journal ~fail_after ~label ~key ~compute
    cells =
  let faulty = match fail_after with None -> Faulty.never () | Some k -> Faulty.after k in
  let mutex = Mutex.create () in
  let reused = ref 0 in
  let rows =
    Pool.map_shared ~jobs (Array.length cells) (fun i ->
        let key = key cells.(i) in
        let stored =
          Mutex.protect mutex (fun () ->
              match Option.bind journal (fun j -> Journal.find j key) with
              | Some _ as row ->
                  incr reused;
                  row
              | None ->
                  Faulty.inject faulty label;
                  None)
        in
        match stored with
        | Some row -> row
        | None ->
            let row = compute cells.(i) in
            Option.iter
              (fun j -> Mutex.protect mutex (fun () -> journal_append j ~key ~value:row))
              journal;
            row)
  in
  Array.iter print_endline rows;
  report rows;
  Option.iter
    (fun j ->
      Printf.eprintf "ckptwf: journal %s: %d cell(s) reused, %d computed\n%!"
        (Journal.path j) !reused
        (Array.length rows - !reused))
    journal

(* stderr hit rate of the structural replan caches (degrade, cloud) *)
let replan_cache_notice (hits, misses) =
  if hits + misses > 0 then
    Printf.eprintf "ckptwf: replan cache: %d hit(s), %d miss(es) (%.0f%% hit rate)\n%!" hits
      misses
      (100. *. float_of_int hits /. float_of_int (hits + misses))

(* the workflow under study: a DAX file when given, else synthetic;
   always validated before any scheduling touches it *)
let source dax workflow tasks seed =
  let dag =
    match dax with
    | Some path -> (
        match Ckpt_dax.Dax.of_file path with Ok d -> d | Error e -> Rerror.raise_ e)
    | None -> Spec.generate workflow ~seed ~tasks ()
  in
  (match Dag.validate dag with
  | Ok () -> ()
  | Error vs ->
      Rerror.raise_
        (Rerror.Invalid_dag
           { name = Dag.name dag; violations = List.map Dag.violation_to_string vs }));
  dag

(* --- generate --- *)

let generate_run dax workflow tasks seed dot =
  protect @@ fun () ->
  let dag = source dax workflow tasks seed in
  if dot then print_string (Dag.to_dot dag)
  else begin
    Format.printf "%a@." Dag.pp_stats dag;
    (match Recognize.of_dag dag with
    | Ok _ -> Format.printf "strict M-SPG: yes@."
    | Error _ -> (
        match Recognize.of_dag_completed dag with
        | Ok (_, dummies) ->
            Format.printf "strict M-SPG: no (completable with %d dummy edges)@." dummies
        | Error msg -> Format.printf "strict M-SPG: no (%s)@." msg));
    Format.printf "%a@." Ckpt_dag.Analysis.pp_profile (Ckpt_dag.Analysis.profile dag);
    Format.printf "task types:@.";
    List.iter
      (fun (name, count, weight) ->
        Format.printf "  %-20s x%-5d total %10.1f s@." name count weight)
      (Ckpt_dag.Analysis.by_task_type dag)
  end

let generate_cmd =
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Print the workflow in Graphviz dot format.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic Pegasus-like workflow and describe it.")
    Term.(const generate_run $ dax_arg $ workflow_arg $ tasks_arg $ seed_arg $ dot)

(* --- schedule --- *)

let schedule_run dax workflow tasks seed processors pfail ccr verbose =
  protect @@ fun () ->
  let dag = source dax workflow tasks seed in
  let setup = Pipeline.prepare ~dag ~processors ~pfail ~ccr () in
  let schedule = setup.Pipeline.schedule in
  Format.printf "%d superchains on %d processors (%d dummy edges added)@."
    (Array.length schedule.Schedule.superchains)
    processors setup.Pipeline.dummy_edges;
  let plan = Pipeline.plan setup Strategy.Ckpt_some in
  let positions = Strategy.checkpoint_positions plan in
  Array.iter
    (fun (sc : Superchain.t) ->
      let ckpts =
        match List.assoc_opt sc.Superchain.id positions with Some l -> l | None -> []
      in
      Format.printf "superchain %d on p%d: %d tasks, %d checkpoints@." sc.Superchain.id
        sc.Superchain.processor (Superchain.n_tasks sc) (List.length ckpts);
      if verbose then begin
        Format.printf "  order:";
        Array.iteri
          (fun k t ->
            let name = (Dag.task schedule.Schedule.dag t).Ckpt_dag.Task.name in
            let mark = if List.mem k ckpts then "*" else "" in
            Format.printf " %s#%d%s" name t mark)
          sc.Superchain.order;
        Format.printf "@."
      end)
    schedule.Schedule.superchains;
  Format.printf "total checkpoints: CKPTSOME %d vs CKPTALL %d@."
    plan.Strategy.checkpoint_count (Dag.n_tasks dag)

let schedule_cmd =
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print task orders.") in
  Cmd.v
    (Cmd.info "schedule"
       ~doc:"Schedule a workflow (Algorithm 1) and place checkpoints (Algorithm 2).")
    Term.(
      const schedule_run $ dax_arg $ workflow_arg $ tasks_arg $ seed_arg $ processors_arg
      $ pfail_arg $ ccr_arg $ verbose)

(* --- evaluate --- *)

let evaluate_run dax workflow tasks seed processors pfail ccr method_ =
  protect @@ fun () ->
  let dag = source dax workflow tasks seed in
  let setup = Pipeline.prepare ~dag ~processors ~pfail ~ccr () in
  let cmp = Pipeline.compare_strategies ~method_ setup in
  Format.printf "workflow=%s n=%d p=%d pfail=%g ccr=%g method=%s@." (Dag.name dag)
    (Dag.n_tasks dag) processors pfail ccr (Evaluator.name method_);
  Format.printf "  EM(CKPTSOME) = %.2f s  (%d checkpoints)@." cmp.Pipeline.em_some
    cmp.Pipeline.ckpts_some;
  Format.printf "  EM(CKPTALL)  = %.2f s  (%d checkpoints, relative %.4f)@."
    cmp.Pipeline.em_all cmp.Pipeline.ckpts_all cmp.Pipeline.rel_all;
  Format.printf "  EM(CKPTNONE) = %.2f s  (relative %.4f)@." cmp.Pipeline.em_none
    cmp.Pipeline.rel_none

let evaluate_cmd =
  Cmd.v
    (Cmd.info "evaluate" ~doc:"Expected makespans of CKPTSOME / CKPTALL / CKPTNONE.")
    Term.(
      const evaluate_run $ dax_arg $ workflow_arg $ tasks_arg $ seed_arg $ processors_arg
      $ pfail_arg $ ccr_arg $ method_arg)

(* --- simulate --- *)

let simulate_run dax workflow tasks seed processors pfail ccr trials deadline jobs storage
    sflags =
  protect @@ fun () ->
  check_storage storage;
  let store_cfg = store_config ~cmd:"simulate" ~allow_disk:true sflags storage in
  let sfaulty = store_faulty sflags in
  let dag = source dax workflow tasks seed in
  let setup = Pipeline.prepare ~dag ~processors ~pfail ~ccr () in
  let deadline = Deadline.of_seconds deadline in
  (* the store path is exercised whenever the store could behave
     differently from perfectly-reliable memory, or when the fault
     harness wants to crash inside it *)
  let store_on = (not (Store.passthrough store_cfg)) || sflags.sf_fail_after <> None in
  check_disk_jobs store_cfg jobs;
  Format.printf "workflow=%s n=%d p=%d pfail=%g ccr=%g trials=%d@." (Dag.name dag)
    (Dag.n_tasks dag) processors pfail ccr trials;
  let plans =
    List.map
      (fun kind -> (kind, Pipeline.plan ~replicas:(Store.plan_replicas store_cfg) setup kind))
      [ Strategy.Ckpt_some; Strategy.Ckpt_all; Strategy.Ckpt_none ]
  in
  (* the disk store's header fingerprints every plan this run commits
     under — a store written for a different workflow or build refuses
     to resume (exit 3) instead of replaying foreign checkpoints *)
  let persist =
    open_store_persist ~faulty:sfaulty store_cfg (fun () ->
        List.filter_map
          (fun (kind, plan) -> if kind = Strategy.Ckpt_none then None else Some plan)
          plans)
  in
  List.iter
    (fun (kind, plan) ->
      let est = Strategy.expected_makespan plan in
      let stats = Runner.simulate ~trials ~deadline ~jobs plan in
      Format.printf "  %-10s estimate %10.2f | simulated %10.2f +- %.2f (min %.2f max %.2f)@."
        (Strategy.kind_name kind) est (Stats.mean stats) (Stats.ci95_halfwidth stats)
        (Stats.min stats) (Stats.max stats);
      if Stats.count stats < trials then
        Format.printf "  %-10s deadline hit: %d/%d trials completed@."
          (Strategy.kind_name kind) (Stats.count stats) trials;
      if store_on && kind <> Strategy.Ckpt_none then begin
        let sample =
          Runner.sample_storage ~trials ~jobs ~inject:(Faulty.inject sfaulty) ?persist
            ~scope:(Strategy.kind_name kind) ~store:store_cfg plan
        in
        let n = float_of_int (Array.length sample) in
        let mean f = Array.fold_left (fun acc t -> acc +. f t) 0. sample /. n in
        Format.printf
          "  %-10s unreliable storage: EM %10.2f | commit retries %.2f | corrupt reads \
           %.2f | rollbacks %.2f per trial@."
          (Strategy.kind_name kind)
          (mean (fun t -> t.Runner.makespan))
          (mean (fun t -> float_of_int t.Runner.commit_retries))
          (mean (fun t -> float_of_int t.Runner.corrupt_reads))
          (mean (fun t -> float_of_int t.Runner.rollbacks));
        (* store-level counters only appear for a non-default
           backend/policy, so the historic flag space stays
           byte-identical *)
        if not (store_is_default store_cfg) then begin
          let tot =
            Array.fold_left (fun acc t -> Store.add acc t.Runner.store) Store.zero sample
          in
          (* [resumed] is deliberately left to the stderr summary: it
             depends on what an earlier run left in the store file, and
             stdout must be byte-identical across crash/resume *)
          Format.printf
            "  %-10s store [%s/%s]: %d commits (%d skipped) | %d rejected reads | %d \
             evictions@."
            (Strategy.kind_name kind)
            (Store.backend_name store_cfg.Store.backend)
            (Store.policy_name store_cfg.Store.policy)
            tot.Store.commits tot.Store.skipped tot.Store.rejected_reads
            tot.Store.evictions
        end
      end)
    plans;
  Option.iter store_persist_summary persist

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate" ~doc:"Failure-injected simulation versus the analytical estimate.")
    Term.(
      const simulate_run $ dax_arg $ workflow_arg $ tasks_arg $ seed_arg $ processors_arg
      $ pfail_arg $ ccr_arg $ trials_arg $ deadline_arg $ jobs_arg $ storage_term
      $ store_flags_term)

(* --- sweep (the figure series) --- *)

let default_ccrs workflow =
  let logspace lo hi n =
    List.init n (fun i ->
        let t = float_of_int i /. float_of_int (n - 1) in
        10. ** (log10 lo +. (t *. (log10 hi -. log10 lo))))
  in
  match workflow with
  | Spec.Genome -> logspace 1e-4 1e-2 9
  | Spec.Montage | Spec.Ligo -> logspace 1e-3 1. 10
  | Spec.Cybershake | Spec.Sipht -> logspace 1e-3 1. 10

(* One sweep cell, rendered to the exact output line. The line is what
   gets journaled, so a resumed sweep replays it verbatim. [structure]
   yields the sweep's one recognised and scheduled setup and its
   planning frame: the cells differ only in CCR, so each reprices the
   setup and plans through the frame. *)
let sweep_row ~csv ~dag ~processors ~pfail ~method_ ~structure ccr =
  let base, frame = structure () in
  let setup = Pipeline.reprice base ~pfail ~ccr in
  let cmp = Pipeline.compare_strategies ~method_ ~frame setup in
  if csv then
    Printf.sprintf "%s,%d,%d,%g,%g,%.4f,%.4f,%.4f,%.4f,%.4f,%d" (Dag.name dag)
      (Dag.n_tasks dag) processors pfail ccr cmp.Pipeline.em_some cmp.Pipeline.em_all
      cmp.Pipeline.em_none cmp.Pipeline.rel_all cmp.Pipeline.rel_none
      cmp.Pipeline.ckpts_some
  else
    Printf.sprintf "%-8s %6.4f %10.2f %10.2f %10.2f %8.4f %8.4f %6d" (Dag.name dag) ccr
      cmp.Pipeline.em_some cmp.Pipeline.em_all cmp.Pipeline.em_none cmp.Pipeline.rel_all
      cmp.Pipeline.rel_none cmp.Pipeline.ckpts_some

let sweep_cell_key ~csv ~dag ~seed ~processors ~pfail ~method_ ccr =
  Printf.sprintf "sweep|wf=%s|n=%d|seed=%d|p=%d|pfail=%s|m=%s|csv=%b|ccr=%.17g"
    (Dag.name dag) (Dag.n_tasks dag) seed processors (key_float pfail)
    (Evaluator.name method_) csv ccr

let sweep_run dax workflow tasks seed processors pfail method_ csv journal resume
    fail_after jobs =
  protect @@ fun () ->
  let dag = source dax workflow tasks seed in
  let journal = open_journal ~resume journal in
  if csv then print_endline "workflow,tasks,processors,pfail,ccr,em_some,em_all,em_none,rel_all,rel_none,ckpts_some"
  else
    Format.printf "%-8s %6s %10s %10s %10s %8s %8s %6s@." "wf" "ccr" "EM(some)" "EM(all)"
      "EM(none)" "relALL" "relNONE" "ckpts";
  let ccrs = Array.of_list (default_ccrs workflow) in
  (* recognition, completion, ALLOCATE and the superchains'
     flattening depend on neither pfail nor CCR: run them once, on the
     first cell that is computed (a fully journaled resume never does),
     while the other cell domains wait *)
  let structure =
    let memo = Memo.create () in
    fun () ->
      Memo.get memo () (fun () ->
          let setup = Pipeline.prepare ~dag ~processors ~pfail ~ccr:ccrs.(0) () in
          (setup, Strategy.frame ~raw:setup.Pipeline.raw ~schedule:setup.Pipeline.schedule))
  in
  (* the cells themselves fan out over --jobs here; degrade, storm and
     cloud spend theirs inside each cell's trial sampler instead *)
  run_cells ~jobs ~journal ~fail_after ~label:"sweep cell"
    ~key:(sweep_cell_key ~csv ~dag ~seed ~processors ~pfail ~method_)
    ~compute:(sweep_row ~csv ~dag ~processors ~pfail ~method_ ~structure)
    ccrs

let sweep_cmd =
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV rows.") in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "CCR sweep of the relative expected makespans (the series behind Figures 5, 6 and \
          7).")
    Term.(
      const sweep_run $ dax_arg $ workflow_arg $ tasks_arg $ seed_arg $ processors_arg
      $ pfail_arg $ method_arg $ csv $ journal_path_arg "sweep" $ resume_arg
      $ fail_after_arg "cell" $ jobs_arg)

(* --- accuracy (Section VI-B) --- *)

let accuracy_run dax workflow tasks seed processors pfail ccr trials deadline jobs =
  protect @@ fun () ->
  let dag = source dax workflow tasks seed in
  let setup = Pipeline.prepare ~dag ~processors ~pfail ~ccr () in
  let plan = Pipeline.plan setup Strategy.Ckpt_some in
  let deadline = Deadline.of_seconds deadline in
  let ground_truth, mc_count =
    match plan.Strategy.prob_dag with
    | Some pd ->
        let stats =
          Ckpt_eval.Montecarlo.estimate_with_stats ~trials ~seed:1 ~deadline ~jobs pd
        in
        (Stats.mean stats, Stats.count stats)
    | None ->
        ( Strategy.expected_makespan ~method_:(Evaluator.Montecarlo { trials; seed = 1 })
            plan,
          trials )
  in
  if mc_count < trials then
    Format.printf "ground truth (MC, deadline hit at %d/%d trials): %.2f@." mc_count trials
      ground_truth
  else Format.printf "ground truth (MC, %d trials): %.2f@." trials ground_truth;
  List.iter
    (fun m ->
      let t0 = Unix.gettimeofday () in
      let v = Strategy.expected_makespan ~method_:m plan in
      let dt = Unix.gettimeofday () -. t0 in
      Format.printf "  %-10s %10.2f  (error %+.3f%%, %.1f ms)@." (Evaluator.name m) v
        ((v -. ground_truth) /. ground_truth *. 100.)
        (dt *. 1000.))
    Evaluator.all_fast;
  (match Strategy.exact_expected_makespan plan with
  | Some v ->
      Format.printf "  %-10s %10.2f  (error %+.3f%%)@." "exact-sp" v
        ((v -. ground_truth) /. ground_truth *. 100.)
  | None -> ());
  (match plan.Strategy.prob_dag with
  | Some pd ->
      let lo, hi = Ckpt_eval.Bounds.bracket pd in
      Format.printf "  guaranteed bounds: [%.2f, %.2f] (Fulkerson / Kleindorfer)@." lo hi
  | None -> ())

let accuracy_cmd =
  let trials =
    Arg.(value & opt int 300_000 & info [ "trials" ] ~docv:"T" ~doc:"Monte Carlo trials.")
  in
  Cmd.v
    (Cmd.info "accuracy"
       ~doc:"Estimator accuracy versus a large-trial Monte Carlo ground truth (Section VI-B).")
    Term.(
      const accuracy_run $ dax_arg $ workflow_arg $ tasks_arg $ seed_arg $ processors_arg
      $ pfail_arg $ ccr_arg $ trials $ deadline_arg $ jobs_arg)

(* --- gantt --- *)

let strategy_of_string str =
  match String.lowercase_ascii str with
    | "all" | "ckpt-all" -> Ok Strategy.Ckpt_all
    | "some" | "ckpt-some" -> Ok Strategy.Ckpt_some
    | "none" | "ckpt-none" -> Ok Strategy.Ckpt_none
    | "restart" | "ckpt-restart" -> Ok Strategy.Ckpt_restart
    | s -> (
        let prefixed p = String.length s > String.length p && String.sub s 0 (String.length p) = p in
        let suffix p = String.sub s (String.length p) (String.length s - String.length p) in
        if prefixed "every-" then
          match int_of_string_opt (suffix "every-") with
          | Some k when k >= 1 -> Ok (Strategy.Ckpt_every k)
          | _ -> Error (`Msg "bad period")
        else if prefixed "budget-" then
          match int_of_string_opt (suffix "budget-") with
          | Some k when k >= 1 -> Ok (Strategy.Ckpt_budget k)
          | _ -> Error (`Msg "bad budget")
        else if prefixed "hybrid-" then
          match int_of_string_opt (suffix "hybrid-") with
          | Some t when t >= 0 -> Ok (Strategy.Ckpt_hybrid t)
          | _ -> Error (`Msg "bad hybrid threshold")
        else
          Error
            (`Msg
              (Printf.sprintf
                 "unknown strategy %S (all|some|none|restart|every-K|budget-K|hybrid-T)" s)))

let strategy_conv =
  Arg.conv (strategy_of_string, fun fmt k -> Format.pp_print_string fmt (Strategy.kind_name k))

let strategy_arg =
  Arg.(
    value
    & opt strategy_conv Strategy.Ckpt_some
    & info [ "s"; "strategy" ] ~docv:"STRATEGY"
        ~doc:
          "Checkpointing strategy: all, some, none, restart (no intra-superchain \
           checkpoints — re-execute from the last natural boundary), every-K, budget-K \
           or hybrid-T (superchains of at most T tasks restart, longer ones get \
           Algorithm-2 placement).")

let gantt_run dax workflow tasks seed processors pfail ccr strategy output sim_seed =
  protect @@ fun () ->
  let dag = source dax workflow tasks seed in
  let setup = Pipeline.prepare ~dag ~processors ~pfail ~ccr () in
  let plan = Pipeline.plan setup strategy in
  let svg = Ckpt_viz.Gantt.render_plan ~seed:sim_seed plan in
  Ckpt_viz.Gantt.save output svg;
  Format.printf "wrote %s@." output

let gantt_cmd =
  let output =
    Arg.(value & opt string "gantt.svg" & info [ "o"; "output" ] ~docv:"FILE" ~doc:"SVG path.")
  in
  let sim_seed =
    Arg.(value & opt int 11 & info [ "sim-seed" ] ~docv:"SEED" ~doc:"Failure-trace seed.")
  in
  Cmd.v
    (Cmd.info "gantt" ~doc:"Simulate one execution and render it as an SVG Gantt chart.")
    Term.(
      const gantt_run $ dax_arg $ workflow_arg $ tasks_arg $ seed_arg $ processors_arg
      $ pfail_arg $ ccr_arg $ strategy_arg $ output $ sim_seed)

(* --- contention --- *)

let contention_run dax workflow tasks seed processors pfail ccr trials =
  protect @@ fun () ->
  let dag = source dax workflow tasks seed in
  let setup = Pipeline.prepare ~dag ~processors ~pfail ~ccr () in
  Format.printf "workflow=%s n=%d p=%d pfail=%g ccr=%g trials=%d@." (Dag.name dag)
    (Dag.n_tasks dag) processors pfail ccr trials;
  List.iter
    (fun kind ->
      let plan = Pipeline.plan setup kind in
      let nominal = Stats.mean (Runner.simulate ~trials plan) in
      let contended = Stats.mean (Ckpt_sim.Contention.simulate ~trials plan) in
      Format.printf "  %-14s nominal %10.2f | contended %10.2f | penalty %.3fx@."
        (Strategy.kind_name kind) nominal contended (contended /. nominal))
    [ Strategy.Ckpt_some; Strategy.Ckpt_all ]

let contention_cmd =
  Cmd.v
    (Cmd.info "contention"
       ~doc:
         "Simulated makespans with and without stable-storage bandwidth contention \
          (extension).")
    Term.(
      const contention_run $ dax_arg $ workflow_arg $ tasks_arg $ seed_arg $ processors_arg
      $ pfail_arg $ ccr_arg $ trials_arg)

(* --- quantiles --- *)

let quantiles_run dax workflow tasks seed processors pfail ccr strategy trials deadline
    jobs =
  protect @@ fun () ->
  let dag = source dax workflow tasks seed in
  let setup = Pipeline.prepare ~dag ~processors ~pfail ~ccr () in
  let plan = Pipeline.plan setup strategy in
  let qs = [ 0.5; 0.9; 0.99 ] in
  let deadline = Deadline.of_seconds deadline in
  let sample = Runner.sample_makespans ~trials ~deadline ~jobs plan in
  Format.printf "workflow=%s strategy=%s trials=%d@." (Dag.name dag)
    (Strategy.kind_name strategy) trials;
  if Array.length sample < trials then
    Format.printf "  deadline hit: %d/%d trials completed@." (Array.length sample) trials;
  Format.printf "  simulated: mean %.2f" (Ckpt_prob.Stats.mean_of_array sample);
  List.iter
    (fun q ->
      Format.printf "  p%g %.2f" (q *. 100.) (Ckpt_prob.Stats.quantile_of_array sample q))
    qs;
  Format.printf "@.";
  (match Strategy.makespan_distribution plan with
  | None -> Format.printf "  analytic distribution unavailable for this plan@."
  | Some dist ->
      Format.printf "  analytic:  mean %.2f" (Ckpt_prob.Dist.mean dist);
      List.iter
        (fun q -> Format.printf "  p%g %.2f" (q *. 100.) (Ckpt_prob.Dist.quantile dist q))
        qs;
      Format.printf "@.";
      let ks = Ckpt_prob.Stats.ks_distance sample ~cdf:(Ckpt_prob.Dist.cdf dist) in
      Format.printf "  Kolmogorov-Smirnov distance (simulated vs analytic): %.4f@." ks)

let quantiles_cmd =
  Cmd.v
    (Cmd.info "quantiles"
       ~doc:
         "Makespan distribution: simulated quantiles vs the exact first-order analytic \
          distribution (extension).")
    Term.(
      const quantiles_run $ dax_arg $ workflow_arg $ tasks_arg $ seed_arg $ processors_arg
      $ pfail_arg $ ccr_arg $ strategy_arg $ trials_arg $ deadline_arg $ jobs_arg)

(* --- degrade (permanent processor loss) --- *)

module Degrade = Ckpt_sim.Degrade
module Platform = Ckpt_platform.Platform

let default_pdeaths = [ 0.01; 0.05; 0.1; 0.2; 0.5 ]

(* The paired repair and restart summaries at one death probability,
   priced against the plan's failure-free parallel time — the cell of
   both `degrade` and the serve degrade op. *)
let degrade_pair ~kind ~max_losses ~trials ~seed ~jobs ~store (plan : Strategy.plan)
    prepared pdeath =
  let lambda_death =
    Platform.lambda_of_pfail ~pfail:pdeath ~mean_weight:plan.Strategy.wpar
  in
  let config = { Degrade.lambda_death; max_losses; kind; store } in
  let summary mode =
    Degrade.summarize (Degrade.sample_prepared ~trials ~seed ~jobs ~mode config prepared)
  in
  let repair = summary Degrade.Repair in
  (repair, summary Degrade.Restart)

(* One degraded-mode cell, rendered. The line is what gets journaled,
   so a resumed sweep replays it verbatim. [prepared] carries the run's
   one replan cache: a replan does not depend on pdeath, and results
   are identical with or without the cache. *)
let degrade_row ~csv ~dag ~processors ~kind ~max_losses ~trials ~seed ~jobs ~store_totals
    ~store_cfg (plan, prepared) pdeath =
  let repair, restart =
    degrade_pair ~kind ~max_losses ~trials ~seed ~jobs ~store:store_cfg plan prepared pdeath
  in
  store_totals :=
    Store.add !store_totals
      (Store.add repair.Degrade.store_totals restart.Degrade.store_totals);
  let gain = restart.Degrade.mean_makespan /. repair.Degrade.mean_makespan in
  (* the storage columns appear only when the store is live, so the
     default configuration's rows are bitwise the pre-storage ones *)
  let storage_cols =
    if Store.passthrough store_cfg then ""
    else
      Printf.sprintf ",%.4f,%.4f" repair.Degrade.mean_rollbacks
        repair.Degrade.mean_invalidated
  in
  if csv then
    Printf.sprintf "%s,%d,%d,%s,%d,%d,%g,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%d,%d%s"
      (Dag.name dag) (Dag.n_tasks dag) processors (Strategy.kind_name kind) max_losses
      trials pdeath repair.Degrade.mean_makespan restart.Degrade.mean_makespan gain
      repair.Degrade.mean_losses repair.Degrade.mean_replans repair.Degrade.mean_restarts
      repair.Degrade.stranded restart.Degrade.stranded storage_cols
  else
    Printf.sprintf "%-8s %6.3f %11.2f %11.2f %7.3fx %7.2f %8.2f %9.2f %5d%s" (Dag.name dag)
      pdeath repair.Degrade.mean_makespan restart.Degrade.mean_makespan gain
      repair.Degrade.mean_losses repair.Degrade.mean_replans repair.Degrade.mean_restarts
      repair.Degrade.stranded
      (if storage_cols = "" then ""
       else
         Printf.sprintf " rb %.2f inval %.2f" repair.Degrade.mean_rollbacks
           repair.Degrade.mean_invalidated)

let storage_key (c : Storage.config) =
  if Storage.reliable c && c.Storage.replicas = 1 then ""
  else
    Printf.sprintf "|cf=%.17g|cp=%.17g|sl=%.17g|or=%.17g|om=%.17g|k=%d"
      c.Storage.commit_fail_prob c.Storage.corrupt_prob c.Storage.storage_lambda
      c.Storage.outage_rate c.Storage.outage_mean c.Storage.replicas

(* a store config's journal-key fragment: the fault fields exactly as
   before (pre-existing journals keep resuming) plus the backend and
   policy only when they leave the default *)
let store_key (c : Store.config) = storage_key c.Store.faults ^ store_part c

let degrade_cell_key ~csv ~dag ~seed ~processors ~pfail ~ccr ~kind ~max_losses ~trials
    ~store_cfg pdeath =
  Printf.sprintf
    "degrade|wf=%s|n=%d|seed=%d|p=%d|pfail=%s|ccr=%s|s=%s|losses=%d|trials=%d|csv=%b%s|pdeath=%.17g"
    (Dag.name dag) (Dag.n_tasks dag) seed processors (key_float pfail) (key_float ccr)
    (Strategy.kind_name kind) max_losses trials csv (store_key store_cfg) pdeath

let degrade_run dax workflow tasks seed processors pfail ccr strategy pdeaths max_losses
    trials csv journal resume fail_after jobs storage sflags =
  protect @@ fun () ->
  check_storage storage;
  let store_cfg = store_config ~cmd:"degrade" sflags storage in
  refuse_store_fail_after sflags;
  refuse_ckpt_none strategy "saves nothing a survivor could reuse";
  let dag = source dax workflow tasks seed in
  let journal = open_journal ~resume journal in
  if csv then
    print_endline
      ("workflow,tasks,processors,strategy,losses,trials,pdeath,em_repair,em_restart,gain,mean_losses,mean_replans,mean_restarts,stranded_repair,stranded_restart"
      ^ if Store.passthrough store_cfg then "" else ",mean_rollbacks,mean_invalidated")
  else
    Format.printf "%-8s %6s %11s %11s %8s %7s %8s %9s %5s@." "wf" "pdeath" "EM(repair)"
      "EM(restart)" "gain" "losses" "replans" "restarts" "strnd";
  (* the schedule, checkpoint plan and replan cache do not depend on
     pdeath: build them once, and only if some cell is not journaled *)
  let prepared =
    lazy
      (let plan =
         Pipeline.plan ~replicas:(Store.plan_replicas store_cfg)
           (Pipeline.prepare ~dag ~processors ~pfail ~ccr ())
           strategy
       in
       (plan, Degrade.prepare plan))
  in
  let store_totals = ref Store.zero in
  run_cells ~journal ~fail_after ~label:"degrade cell"
    ~key:
      (degrade_cell_key ~csv ~dag ~seed ~processors ~pfail ~ccr ~kind:strategy ~max_losses
         ~trials ~store_cfg)
    ~compute:(fun pdeath ->
      degrade_row ~csv ~dag ~processors ~kind:strategy ~max_losses ~trials ~seed ~jobs
        ~store_totals ~store_cfg (Lazy.force prepared) pdeath)
    ~report:(fun _ ->
      if not (Store.passthrough store_cfg) then store_totals_notice !store_totals;
      if Lazy.is_val prepared then
        replan_cache_notice (Degrade.cache_stats (snd (Lazy.force prepared))))
    (Array.of_list (match pdeaths with [] -> default_pdeaths | ps -> ps))

let degrade_cmd =
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV rows.") in
  let pdeaths =
    Arg.(
      value
      & opt_all float []
      & info [ "pdeath" ] ~docv:"P"
          ~doc:
            "Probability that a processor is permanently lost within the failure-free \
             parallel time (sets the death rate; repeatable). Default sweep: 0.01 0.05 \
             0.1 0.2 0.5.")
  in
  let max_losses =
    Arg.(
      value
      & opt int 1
      & info [ "losses" ] ~docv:"K"
          ~doc:"Permanent losses that can actually strike one execution (the rest censored).")
  in
  let trials =
    Arg.(value & opt int 200 & info [ "trials" ] ~docv:"T" ~doc:"Degraded-mode trials per cell.")
  in
  Cmd.v
    (Cmd.info "degrade"
       ~doc:
         "Survive permanent processor loss: expected makespans of online schedule repair \
          versus restart-from-scratch over a sweep of death probabilities (extension).")
    Term.(
      const degrade_run $ dax_arg $ workflow_arg $ tasks_arg $ seed_arg $ processors_arg
      $ pfail_arg $ ccr_arg $ strategy_arg $ pdeaths $ max_losses $ trials $ csv
      $ journal_path_arg "degrade sweep" $ resume_arg $ fail_after_arg "cell" $ jobs_arg
      $ storage_term $ store_flags_term)

(* --- storm (unreliable stable storage: replication crossover) --- *)

let storm_cell_key ~dag ~seed ~processors ~pfail ~ccr ~kind ~trials ~(base : Storage.config)
    (replicas, corrupt_prob) =
  Printf.sprintf
    "storm|wf=%s|n=%d|seed=%d|p=%d|pfail=%s|ccr=%s|s=%s|trials=%d|sl=%.17g|cf=%.17g|or=%.17g|om=%.17g|k=%d|cp=%.17g"
    (Dag.name dag) (Dag.n_tasks dag) seed processors (key_float pfail) (key_float ccr)
    (Strategy.kind_name kind) trials base.Storage.storage_lambda
    base.Storage.commit_fail_prob base.Storage.outage_rate base.Storage.outage_mean replicas
    corrupt_prob

let storm_header =
  "workflow,tasks,processors,strategy,replicas,storage_lambda,corrupt_prob,commit_fail_prob,trials,em,mean_commit_retries,mean_corrupt_reads,mean_rollbacks,ckpts"

(* expected makespan of a rendered storm row (column 10) — works on
   journaled rows too, so the crossover report survives resumes *)
let storm_row_em row =
  match String.split_on_char ',' row with
  | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: em :: _ -> float_of_string em
  | _ -> invalid_arg ("storm: unparsable row: " ^ row)

let storm_run dax workflow tasks seed processors pfail ccr strategy trials corrupt_probs
    replicas_list base journal resume fail_after jobs sflags =
  protect @@ fun () ->
  refuse_ckpt_none strategy "commits nothing";
  check_storage base;
  let store_base = store_config ~cmd:"storm" ~allow_disk:true ~allow_replicated:false sflags base in
  let sfaulty = store_faulty sflags in
  check_disk_jobs store_base jobs;
  let corrupt_probs =
    match corrupt_probs with [] -> [ 0.; 0.02; 0.05; 0.1; 0.2 ] | ps -> ps
  in
  let replicas_list = match replicas_list with [] -> [ 1; 2; 3 ] | ks -> ks in
  List.iter (fun k -> check_storage { base with Storage.replicas = k }) replicas_list;
  List.iter
    (fun cp -> check_storage { base with Storage.corrupt_prob = cp })
    corrupt_probs;
  let dag = source dax workflow tasks seed in
  let journal = open_journal ~resume journal in
  print_endline storm_header;
  let setup = Pipeline.prepare ~dag ~processors ~pfail ~ccr () in
  (* one plan per replication factor: k enters the placement DP as a
     k*C commit cost, so the checkpoint positions themselves shift *)
  let plans = Memo.create () in
  let plan_for k = Memo.get plans k (fun () -> Pipeline.plan ~replicas:k setup strategy) in
  let cells =
    Array.of_list
      (List.concat_map (fun k -> List.map (fun cp -> (k, cp)) corrupt_probs) replicas_list)
  in
  (* the disk store's header fingerprints every swept plan (one per
     replication factor, in sweep order); a mismatched store refuses
     to resume instead of replaying foreign checkpoints *)
  let persist =
    open_store_persist ~faulty:sfaulty store_base (fun () ->
        List.map plan_for replicas_list)
  in
  (* cells run in sequence — the parallelism lives inside
     Runner.sample_storage, whose result is bitwise independent of
     --jobs, so the bytes on stdout are too *)
  let store_totals = ref Store.zero in
  let storm_row (k, cp) =
    let plan = plan_for k in
    let cfg =
      { store_base with Store.faults = { base with Storage.corrupt_prob = cp; replicas = k } }
    in
    let sample =
      Runner.sample_storage ~trials ~seed ~jobs ~inject:(Faulty.inject sfaulty) ?persist
        ~scope:(Printf.sprintf "k%d,cp%.17g" k cp)
        ~store:cfg plan
    in
    store_totals :=
      Array.fold_left (fun acc t -> Store.add acc t.Runner.store) !store_totals sample;
    let n = float_of_int (Array.length sample) in
    let mean f = Array.fold_left (fun acc t -> acc +. f t) 0. sample /. n in
    Printf.sprintf "%s,%d,%d,%s,%d,%g,%g,%g,%d,%.4f,%.4f,%.4f,%.4f,%d" (Dag.name dag)
      (Dag.n_tasks dag) processors (Strategy.kind_name strategy) k
      base.Storage.storage_lambda cp base.Storage.commit_fail_prob trials
      (mean (fun t -> t.Runner.makespan))
      (mean (fun t -> float_of_int t.Runner.commit_retries))
      (mean (fun t -> float_of_int t.Runner.corrupt_reads))
      (mean (fun t -> float_of_int t.Runner.rollbacks))
      plan.Strategy.checkpoint_count
  in
  (* crossover report: the smallest corruption probability at which a
     k-replicated commit beats the unreplicated baseline in expected
     makespan — replication pays k*C on every commit but saves whole
     rollback cascades on recovery *)
  let crossover rows =
    let em cell =
      Array.find_map
        (fun (c, row) -> if c = cell then Some (storm_row_em row) else None)
        (Array.combine cells rows)
    in
    if List.mem 1 replicas_list then
      List.iter
        (fun k ->
          if k <> 1 then
            match
              List.find_opt
                (fun cp ->
                  match (em (k, cp), em (1, cp)) with
                  | Some a, Some b -> a < b
                  | _ -> false)
                corrupt_probs
            with
            | Some cp ->
                Printf.eprintf
                  "ckptwf: storm: replicas=%d first beats replicas=1 at corrupt-prob %g\n%!"
                  k cp
            | None ->
                Printf.eprintf
                  "ckptwf: storm: replicas=%d never beats replicas=1 in this sweep\n%!" k)
        replicas_list;
    if not (store_is_default store_base) then store_totals_notice !store_totals;
    Option.iter store_persist_summary persist
  in
  run_cells ~journal ~fail_after ~label:"storm cell"
    ~key:(fun cell ->
      storm_cell_key ~dag ~seed ~processors ~pfail ~ccr ~kind:strategy ~trials ~base cell
      ^ store_part store_base)
    ~compute:storm_row ~report:crossover cells

let storm_cmd =
  let corrupt_probs =
    Arg.(
      value
      & opt_all float []
      & info [ "corrupt-prob" ] ~docv:"P"
          ~doc:
            "Per-replica latent-corruption probability (repeatable; default sweep: 0 0.02 \
             0.05 0.1 0.2).")
  in
  let replicas_list =
    Arg.(
      value
      & opt_all int []
      & info [ "replicas" ] ~docv:"K"
          ~doc:"Replication factor to sweep (repeatable; default: 1 2 3).")
  in
  let trials =
    Arg.(
      value & opt int 300 & info [ "trials" ] ~docv:"T" ~doc:"Monte-Carlo trials per cell.")
  in
  Cmd.v
    (Cmd.info "storm"
       ~doc:
         "Unreliable stable storage: sweep checkpoint replication factor against latent \
          corruption and report the expected-makespan crossover where k-replicated \
          commits start beating unreplicated ones (extension).")
    Term.(
      const storm_run $ dax_arg $ workflow_arg $ tasks_arg $ seed_arg $ processors_arg
      $ pfail_arg $ ccr_arg $ strategy_arg $ trials $ corrupt_probs $ replicas_list
      $ storage_base_term $ journal_path_arg "storm" $ resume_arg $ fail_after_arg "cell"
      $ jobs_arg $ store_flags_term)

(* --- cloud (spot-instance revocation on priced platforms) --- *)

module Cloud = Ckpt_sim.Cloud

let cloud_header =
  "workflow,tasks,processors,strategy,trials,prevoke,grace,spot_fraction,spot_discount,spot_speed,em_ckpt,em_repl,cost_ckpt,cost_repl,lost_ckpt,lost_repl,rescues,rescued_tasks,revocations,replans,stranded_ckpt,stranded_repl"

(* expected work lost by the checkpointing mode (column 15 of a
   rendered cloud row) — parsed for the grace-benefit report, so it
   works on journaled rows too *)
let cloud_row_lost row =
  match String.split_on_char ',' row with
  | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: lost :: _ ->
      float_of_string lost
  | _ -> invalid_arg ("cloud: unparsable row: " ^ row)

let cloud_cell_key ~dag ~seed ~processors ~pfail ~ccr ~kind ~trials ~revocations ~price
    ~spot_discount ~spot_speed ~store_cfg ~prevoke ~grace spot_fraction =
  Printf.sprintf
    "cloud|wf=%s|n=%d|seed=%d|p=%d|pfail=%s|ccr=%s|s=%s|trials=%d|rev=%d|price=%.17g|disc=%.17g|speed=%.17g%s|prevoke=%.17g|grace=%.17g|sf=%.17g"
    (Dag.name dag) (Dag.n_tasks dag) seed processors (key_float pfail) (key_float ccr)
    (Strategy.kind_name kind) trials revocations price spot_discount spot_speed
    (store_key store_cfg) prevoke grace spot_fraction

let cloud_run dax workflow tasks seed processors pfail ccr strategy trials prevokes graces
    spot_fractions spot_discount spot_speed price revocations storage sflags journal
    resume fail_after jobs =
  protect @@ fun () ->
  check_storage storage;
  let store_cfg = store_config ~cmd:"cloud" sflags storage in
  refuse_store_fail_after sflags;
  refuse_ckpt_none strategy "saves nothing a rescue could commit";
  let bad path message = die (Rerror.Io { path; message }) in
  if spot_discount <= 0. || spot_discount > 1. then
    bad "--spot-discount" "must lie in (0, 1]";
  if price <= 0. then bad "--price" "must be positive";
  if spot_speed <= 0. then bad "--spot-speed" "must be positive";
  if revocations < 0 then bad "--revocations" "must be non-negative";
  let prevokes = match prevokes with [] -> [ 0.05; 0.2 ] | ps -> ps in
  let graces = match graces with [] -> [ 0.; 10. ] | gs -> gs in
  let spot_fractions = match spot_fractions with [] -> [ 0.; 0.5 ] | fs -> fs in
  List.iter
    (fun p -> if p < 0. || p >= 1. then bad "--prevoke" "must lie in [0, 1)")
    prevokes;
  List.iter (fun g -> if g < 0. then bad "--grace" "must be non-negative") graces;
  List.iter
    (fun f -> if f < 0. || f > 1. then bad "--spot-fraction" "must lie in [0, 1]")
    spot_fractions;
  let dag = source dax workflow tasks seed in
  let journal = open_journal ~resume journal in
  print_endline cloud_header;
  (* the priced platform: failure rate and bandwidth derived exactly as
     the homogeneous pipeline derives them, so a fully on-demand
     platform (spot-fraction 0) plans and executes bitwise like the
     unpriced one — prices are uniform (risk factor 1 everywhere) but
     the dollar meter still runs *)
  let mean_weight = Dag.total_weight dag /. float_of_int (Dag.n_tasks dag) in
  let lambda = Platform.lambda_of_pfail ~pfail ~mean_weight in
  let bandwidth =
    let total_data = Dag.total_data dag in
    if total_data <= 0. then 1.
    else
      Platform.bandwidth_for_ccr ~ccr ~total_data ~total_weight:(Dag.total_weight dag)
  in
  let platform_for sf =
    let nspot = int_of_float (Float.round (sf *. float_of_int processors)) in
    let spot p = p >= processors - nspot in
    let rates = Array.make processors lambda in
    let prices =
      Array.init processors (fun p -> if spot p then price *. spot_discount else price)
    in
    let speeds =
      if nspot = 0 || spot_speed = 1. then None
      else Some (Array.init processors (fun p -> if spot p then spot_speed else 1.))
    in
    Platform.make_heterogeneous ?speeds ~prices ~rates ~bandwidth ()
  in
  (* one plan + engine preparation per price mix (spot speeds shift the
     placement DP's costs); cells sharing a mix share the replan cache *)
  let prepared_for = Memo.create () in
  let prepared sf =
    Memo.get prepared_for sf (fun () ->
        let setup =
          Pipeline.prepare ~platform:(platform_for sf) ~dag ~processors ~pfail ~ccr ()
        in
        let plan = Pipeline.plan ~replicas:(Store.plan_replicas store_cfg) setup strategy in
        (plan, Cloud.prepare plan))
  in
  let cells =
    Array.of_list
      (List.concat_map
         (fun prevoke ->
           List.concat_map
             (fun grace -> List.map (fun sf -> (prevoke, grace, sf)) spot_fractions)
             graces)
         prevokes)
  in
  (* cells run in sequence — the parallelism lives inside
     Cloud.sample_prepared, whose result is bitwise independent of
     --jobs, so the bytes on stdout are too *)
  let cloud_row (prevoke, grace, sf) =
    let plan, prep = prepared sf in
    let lambda_revoke =
      if prevoke = 0. then 0.
      else Platform.lambda_of_pfail ~pfail:prevoke ~mean_weight:plan.Strategy.wpar
    in
    let config =
      {
        Cloud.lambda_revoke;
        grace;
        max_revocations = revocations;
        kind = strategy;
        store = store_cfg;
      }
    in
    let summary mode =
      Cloud.summarize (Cloud.sample_prepared ~trials ~seed ~jobs ~mode config prep)
    in
    let ck = summary Cloud.Checkpoint in
    let repl = summary Cloud.Replicate in
    Printf.sprintf
      "%s,%d,%d,%s,%d,%g,%g,%g,%g,%g,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%d,%d"
      (Dag.name dag) (Dag.n_tasks dag) processors (Strategy.kind_name strategy) trials
      prevoke grace sf spot_discount spot_speed ck.Cloud.mean_makespan
      repl.Cloud.mean_makespan ck.Cloud.mean_dollar_cost repl.Cloud.mean_dollar_cost
      ck.Cloud.mean_work_lost repl.Cloud.mean_work_lost ck.Cloud.mean_rescues
      ck.Cloud.mean_rescued_tasks ck.Cloud.mean_revocations ck.Cloud.mean_replans
      ck.Cloud.stranded repl.Cloud.stranded
  in
  (* grace-benefit report: wherever the sweep holds both a zero- and a
     nonzero-grace cell of the same revocation rate and price mix,
     compare the checkpointing mode's expected work lost — the
     warning's whole value is the shrinkage *)
  let grace_benefit rows =
    let lost_of prevoke grace sf =
      Array.find_map
        (fun ((p, g, s), row) ->
          if p = prevoke && g = grace && s = sf then Some (cloud_row_lost row) else None)
        (Array.combine cells rows)
    in
    if List.mem 0. graces then
      List.iter
        (fun prevoke ->
          if prevoke > 0. then
            List.iter
              (fun sf ->
                match lost_of prevoke 0. sf with
                | None -> ()
                | Some unwarned ->
                    List.iter
                      (fun g ->
                        if g > 0. then
                          match lost_of prevoke g sf with
                          | Some l when l < unwarned ->
                              Printf.eprintf
                                "ckptwf: cloud: grace %g cuts expected work lost %.4f -> \
                                 %.4f (prevoke %g, spot-fraction %g)\n\
                                 %!"
                                g unwarned l prevoke sf
                          | _ -> ())
                      graces)
              spot_fractions)
        prevokes;
    replan_cache_notice
      (Memo.fold
         (fun (_, prep) (h, m) ->
           let hits, misses = Cloud.cache_stats prep in
           (h + hits, m + misses))
         prepared_for (0, 0))
  in
  run_cells ~journal ~fail_after ~label:"cloud cell"
    ~key:(fun (prevoke, grace, sf) ->
      cloud_cell_key ~dag ~seed ~processors ~pfail ~ccr ~kind:strategy ~trials ~revocations
        ~price ~spot_discount ~spot_speed ~store_cfg ~prevoke ~grace sf)
    ~compute:cloud_row ~report:grace_benefit cells

let cloud_cmd =
  let prevokes =
    Arg.(
      value
      & opt_all float []
      & info [ "prevoke" ] ~docv:"P"
          ~doc:
            "Probability that an on-demand-priced processor is revoked within the \
             failure-free parallel time (sets the base revocation rate; each spot \
             processor multiplies it by its price-driven risk factor; repeatable). \
             Default sweep: 0.05 0.2.")
  in
  let graces =
    Arg.(
      value
      & opt_all float []
      & info [ "grace" ] ~docv:"G"
          ~doc:
            "Warning-to-kill grace window, seconds (repeatable; 0 = unannounced \
             revocation). Default sweep: 0 10.")
  in
  let spot_fractions =
    Arg.(
      value
      & opt_all float []
      & info [ "spot-fraction" ] ~docv:"F"
          ~doc:
            "Fraction of the platform bought as discounted spot instances (repeatable). \
             Default sweep: 0 0.5.")
  in
  let spot_discount =
    Arg.(
      value
      & opt float 0.3
      & info [ "spot-discount" ] ~docv:"D"
          ~doc:
            "Spot price as a fraction of the on-demand price; the discount buys risk \
             (the revocation rate is divided by it).")
  in
  let spot_speed =
    Arg.(
      value
      & opt float 1.0
      & info [ "spot-speed" ] ~docv:"S"
          ~doc:"Relative speed of a spot processor (1 = on-demand speed).")
  in
  let price =
    Arg.(
      value
      & opt float 1.0
      & info [ "price" ] ~docv:"DOLLARS" ~doc:"On-demand price, dollars per hour.")
  in
  let revocations =
    Arg.(
      value
      & opt int 1
      & info [ "revocations" ] ~docv:"K"
          ~doc:"Revocations that can actually strike one execution (the rest censored).")
  in
  let trials =
    Arg.(value & opt int 200 & info [ "trials" ] ~docv:"T" ~doc:"Cloud trials per cell.")
  in
  Cmd.v
    (Cmd.info "cloud"
       ~doc:
         "Spot-instance revocation on a priced platform: expected makespan, work lost \
          and dollar cost of warning-driven proactive checkpointing versus a \
          replicate-the-workflow baseline, over a revocation-rate x grace x price-mix \
          sweep (extension).")
    Term.(
      const cloud_run $ dax_arg $ workflow_arg $ tasks_arg $ seed_arg $ processors_arg
      $ pfail_arg $ ccr_arg $ strategy_arg $ trials $ prevokes $ graces $ spot_fractions
      $ spot_discount $ spot_speed $ price $ revocations $ storage_term $ store_flags_term
      $ journal_path_arg "cloud sweep" $ resume_arg $ fail_after_arg "cell" $ jobs_arg)

(* --- serve (planning as a service) --- *)

module Service = Ckpt_core.Service

(* Malformed requests take the same exit-2 path as malformed DAX:
   [protect] renders one diagnostic line and exits. *)
let malformed message = Rerror.raise_ (Rerror.Parse { source = "request"; message })

let req_str req key ~default =
  match Json.member key req with
  | Some (Json.Str s) -> s
  | None -> default
  | Some _ -> malformed (Printf.sprintf "field %S must be a string" key)

let req_float req key ~default =
  match Json.member key req with
  | Some (Json.Num f) -> f
  | None -> default
  | Some _ -> malformed (Printf.sprintf "field %S must be a number" key)

let req_int req key ~default =
  let f = req_float req key ~default:(float_of_int default) in
  if Float.is_integer f then int_of_float f
  else malformed (Printf.sprintf "field %S must be an integer" key)

let req_strategy req ~default =
  match strategy_of_string (req_str req "strategy" ~default) with
  | Ok k -> k
  | Error (`Msg m) -> malformed m

type serve_state = {
  service : Service.t;
  (* one degraded-mode replan cache per plan, shared across requests:
     repeated degrade traffic against the same plan hits the
     structural replan cache instead of replanning. Outside
     --cache-cap: the stats op sums every handle's replan counters *)
  degraded : (string, Degrade.prepared) Memo.t;
  (* daemon-lifetime checkpoint-store counters, accumulated from every
     degrade request's summary under [slock] — concurrent handler
     domains land their totals here, and the stats op reports them.
     [store_ops] counts the requests that ran a live (non-passthrough)
     store; while it is 0 the stats answer omits the store fields, so
     store-free traffic keeps the historic bytes. *)
  slock : Mutex.t;
  mutable store_totals : Store.stats;
  mutable store_ops : int;
}

type plan_request = {
  preq_key : string;
  preq_setup : Pipeline.setup;
  preq_kind : Strategy.kind;
  preq_replicas : int;
}

let workflow_of_req req =
  let name = req_str req "workflow" ~default:"genome" in
  match Spec.of_name name with
  | Some k -> k
  | None -> malformed (Printf.sprintf "unknown workflow %S (genome|montage|ligo)" name)

let setup_key ~workflow ~tasks ~seed ~processors ~pfail ~ccr =
  Printf.sprintf "setup|wf=%s|n=%d|seed=%d|p=%d|pfail=%.17g|ccr=%.17g" (Spec.name workflow)
    tasks seed processors pfail ccr

(* the shared setup for a request: generated + validated + recognised +
   scheduled once per distinct configuration, then reused (the
   schedule's CSR view of the DAG rides along inside) *)
let serve_setup state req =
  let workflow = workflow_of_req req in
  let tasks = req_int req "tasks" ~default:300 in
  let seed = req_int req "seed" ~default:1 in
  let processors = req_int req "processors" ~default:35 in
  let pfail = req_float req "pfail" ~default:0.001 in
  let ccr = req_float req "ccr" ~default:0.01 in
  let key = setup_key ~workflow ~tasks ~seed ~processors ~pfail ~ccr in
  let setup =
    Service.setup state.service ~key (fun () ->
        let dag = source None workflow tasks seed in
        Pipeline.prepare ~dag ~processors ~pfail ~ccr ())
  in
  (key, setup)

let plan_request state req =
  let skey, setup = serve_setup state req in
  let kind = req_strategy req ~default:"some" in
  let replicas = req_int req "replicas" ~default:1 in
  if replicas < 1 then malformed "field \"replicas\" must be >= 1";
  {
    preq_key = Printf.sprintf "%s|s=%s|k=%d" skey (Strategy.kind_name kind) replicas;
    preq_setup = setup;
    preq_kind = kind;
    preq_replicas = replicas;
  }

(* the optional checkpoint-store fields of a degrade request: backend
   ("store": memory|replicated|remote — the disk journal is a one-shot
   CLI affair), policy ("store_policy"), and the PR-5 fault channels;
   everything defaults to the passthrough store, keeping store-free
   requests byte-identical *)
let store_of_req req =
  let faults =
    {
      Storage.commit_fail_prob = req_float req "commit_fail_prob" ~default:0.;
      corrupt_prob = req_float req "corrupt_prob" ~default:0.;
      storage_lambda = req_float req "storage_lambda" ~default:0.;
      outage_rate = req_float req "outage_rate" ~default:0.;
      outage_mean = req_float req "outage_mean" ~default:0.;
      replicas = req_int req "replicas" ~default:1;
    }
  in
  let backend =
    match req_str req "store" ~default:"memory" with
    | "memory" -> Store.Memory
    | "replicated" -> Store.Replicated { k = faults.Storage.replicas }
    | "remote" ->
        Store.Remote
          {
            commit_latency = req_float req "store_latency" ~default:0.;
            read_latency = req_float req "store_read_latency" ~default:0.;
          }
    | "disk" -> malformed "store: the disk backend is one-shot CLI only (simulate, storm)"
    | other -> malformed (Printf.sprintf "unknown store %S (memory|replicated|remote)" other)
  in
  let policy =
    match Store.parse_policy (req_str req "store_policy" ~default:"every-segment") with
    | Ok p -> p
    | Error m -> malformed m
  in
  let cfg = { Store.backend; policy; faults } in
  (try Store.validate cfg with Invalid_argument m -> malformed m);
  cfg

let note_store_totals state ~live totals =
  Mutex.protect state.slock (fun () ->
      state.store_totals <- Store.add state.store_totals totals;
      if live then state.store_ops <- state.store_ops + 1)

let store_stats_fields (s : Store.stats) =
  [ ("store_commits", Json.Num (float_of_int s.Store.commits));
    ("store_commit_retries", Json.Num (float_of_int s.Store.commit_retries));
    ("store_rejected_reads", Json.Num (float_of_int s.Store.rejected_reads));
    ("store_corrupt_reads", Json.Num (float_of_int s.Store.corrupt_reads));
    ("store_evictions", Json.Num (float_of_int s.Store.evictions)) ]

let replan_cache_totals state =
  Memo.fold
    (fun prepared (h, m) ->
      let hits, misses = Degrade.cache_stats prepared in
      (h + hits, m + misses))
    state.degraded (0, 0)

(* [planned] is what its run's pre-pass resolved for a plan or
   degrade request: the decoded request, its plan and its cache
   marker, or the error its decoding raised. Each answer is timed from
   [t0], the start of its batch *)
let handle_request state ~jobs ~t0 ~planned req =
  let planned () =
    match planned with Some (Ok p) -> p | Some (Error e) -> raise e | None -> assert false
  in
  let op =
    match Json.member "op" req with
    | Some (Json.Str s) -> s
    | Some _ -> malformed "field \"op\" must be a string"
    | None -> malformed "missing field \"op\""
  in
  let id = match Json.member "id" req with Some v -> [ ("id", v) ] | None -> [] in
  let finish fields =
    let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
    Json.Obj
      (id
      @ [ ("op", Json.Str op); ("ok", Json.Bool true) ]
      @ fields
      @ [ ("elapsed_ms", Json.Num (Float.round (elapsed_ms *. 1000.) /. 1000.)) ])
  in
  match op with
  | "plan" ->
      let pr, plan, cache = planned () in
      let em = Strategy.expected_makespan plan in
      finish
        [ ("strategy", Json.Str (Strategy.kind_name pr.preq_kind));
          ("checkpoints", Json.Num (float_of_int plan.Strategy.checkpoint_count));
          ("expected_makespan", Json.Str (Printf.sprintf "%.2f" em));
          ("wpar", Json.Str (Printf.sprintf "%.2f" plan.Strategy.wpar));
          ("cache", Json.Str cache) ]
  | "evaluate" ->
      let _, setup = serve_setup state req in
      let method_ =
        let name = req_str req "method" ~default:"pathapprox" in
        match Evaluator.of_name name with
        | Some m -> m
        | None -> malformed (Printf.sprintf "unknown method %S" name)
      in
      (* refused rather than ignored: a client sending "eval" expects an
         estimator other than the one "method" names *)
      if Json.member "eval" req <> None then
        malformed "field \"eval\" is not supported: name the estimator in \"method\"";
      (* field formatting matches the one-shot `ckptwf evaluate` output
         (%.2f makespans, %.4f relatives) so scripted round-trips can
         compare the two verbatim *)
      let cmp = Pipeline.compare_strategies ~method_ setup in
      finish
        [ ("method", Json.Str (Evaluator.name method_));
          ("em_some", Json.Str (Printf.sprintf "%.2f" cmp.Pipeline.em_some));
          ("ckpts_some", Json.Num (float_of_int cmp.Pipeline.ckpts_some));
          ("em_all", Json.Str (Printf.sprintf "%.2f" cmp.Pipeline.em_all));
          ("ckpts_all", Json.Num (float_of_int cmp.Pipeline.ckpts_all));
          ("rel_all", Json.Str (Printf.sprintf "%.4f" cmp.Pipeline.rel_all));
          ("em_none", Json.Str (Printf.sprintf "%.2f" cmp.Pipeline.em_none));
          ("rel_none", Json.Str (Printf.sprintf "%.4f" cmp.Pipeline.rel_none)) ]
  | "degrade" ->
      let pr, plan, cache = planned () in
      if pr.preq_kind = Strategy.Ckpt_none then
        malformed "degrade: CKPTNONE saves nothing a survivor could reuse";
      let pdeath =
        match Json.member "pdeath" req with
        | Some (Json.Num f) -> f
        | Some _ -> malformed "field \"pdeath\" must be a number"
        | None -> malformed "degrade: missing field \"pdeath\""
      in
      let max_losses = req_int req "losses" ~default:1 in
      let trials = req_int req "trials" ~default:200 in
      let seed = req_int req "seed" ~default:1 in
      let prepared = Memo.get state.degraded pr.preq_key (fun () -> Degrade.prepare plan) in
      let store_cfg = store_of_req req in
      let repair, restart =
        degrade_pair ~kind:pr.preq_kind ~max_losses ~trials ~seed ~jobs ~store:store_cfg plan
          prepared pdeath
      in
      let live = not (Store.passthrough store_cfg) in
      let totals =
        Store.add repair.Degrade.store_totals restart.Degrade.store_totals
      in
      note_store_totals state ~live totals;
      let hits, misses = replan_cache_totals state in
      finish
        ([ ("pdeath", Json.Num pdeath);
           ("em_repair", Json.Str (Printf.sprintf "%.4f" repair.Degrade.mean_makespan));
           ("em_restart", Json.Str (Printf.sprintf "%.4f" restart.Degrade.mean_makespan));
           ( "gain",
             Json.Str
               (Printf.sprintf "%.4f"
                  (restart.Degrade.mean_makespan /. repair.Degrade.mean_makespan)) );
           ("cache", Json.Str cache);
           ("replan_cache_hits", Json.Num (float_of_int hits));
           ("replan_cache_misses", Json.Num (float_of_int misses)) ]
        @
        (* store fields only when the request ran a live store, so
           store-free degrade answers keep the historic bytes *)
        if live then
          ("store", Json.Str (Store.backend_name store_cfg.Store.backend))
          :: ("store_policy", Json.Str (Store.policy_name store_cfg.Store.policy))
          :: store_stats_fields totals
        else [])
  | "stats" ->
      let s = Service.stats state.service in
      let hits, misses = replan_cache_totals state in
      let store_totals, store_ops =
        Mutex.protect state.slock (fun () -> (state.store_totals, state.store_ops))
      in
      finish
        ([ ("setup_hits", Json.Num (float_of_int s.Service.setup_hits));
           ("setup_misses", Json.Num (float_of_int s.Service.setup_misses));
           ("setup_evictions", Json.Num (float_of_int s.Service.setup_evictions));
           ("plan_hits", Json.Num (float_of_int s.Service.plan_hits));
           ("plan_misses", Json.Num (float_of_int s.Service.plan_misses));
           ("plan_evictions", Json.Num (float_of_int s.Service.plan_evictions));
           ("plan_races", Json.Num (float_of_int s.Service.plan_races));
           ("replan_cache_hits", Json.Num (float_of_int hits));
           ("replan_cache_misses", Json.Num (float_of_int misses));
           ("effective_jobs", Json.Num (float_of_int jobs));
           ("cores", Json.Num (float_of_int (Pool.available_jobs ()))) ]
        @
        (* the store block appears once any request has run a live
           store; store-free daemons keep the historic stats bytes *)
        if store_ops > 0 then
          ("store_ops", Json.Num (float_of_int store_ops)) :: store_stats_fields store_totals
        else [])
  | other -> malformed (Printf.sprintf "unknown op %S (plan|evaluate|degrade|stats)" other)

let parse_request line =
  match Json.parse line with
  | Json.Obj _ as req -> req
  | _ -> malformed "request must be a JSON object"
  | exception Json.Malformed m -> malformed m

(* Daemon-mode error discipline: over stdin a malformed request is a
   usage error (exit 2, the one-shot CLI contract), but a long-lived
   daemon must answer {"ok":false,...} and keep serving — one hostile
   or confused client must not take the process down. *)
type answer_mode = Fatal | Structured

let error_kind = function
  | Rerror.Parse _ -> "parse"
  | Rerror.Deadline_exceeded _ -> "deadline"
  | Rerror.Invalid_dag _ -> "invalid"
  | _ -> "error"

let error_answer ?req e =
  let copied key =
    match req with
    | Some r -> (
        match Json.member key r with Some v -> [ (key, v) ] | None -> [])
    | None -> []
  in
  Json.Obj
    (copied "id" @ copied "op"
    @ [ ("ok", Json.Bool false);
        ("error", Json.Str (error_kind e));
        ("message", Json.Str (Rerror.to_string e)) ])

(* answer one batch of already-read request lines: parse them all, then
   answer runs that each end at a stats request, so a stats answer
   counts no later request's lookups. A run decodes each plan and
   degrade request once, plans its keys as one fan-out over the
   resident pool (Service.plans) — the amortisation the daemon exists
   for — and answers in order. Answers are timed from the start of the
   batch. Each line carries the Deadline started when it was received;
   a request still unanswered when it lapses gets a structured
   "deadline" answer instead of a stale result. *)
let answer_batch state ~jobs ~mode ~output lines =
  let t0 = Unix.gettimeofday () in
  let parsed =
    Array.map
      (fun (line, deadline) ->
        match parse_request line with
        | req -> Ok (req, deadline)
        | exception Rerror.E e when mode = Structured -> Error e)
      lines
  in
  let planned = Array.make (Array.length parsed) None in
  let answer_run lo hi =
    let decoded = ref [] in
    for i = lo to hi - 1 do
      match parsed.(i) with
      | Error _ -> ()
      | Ok (req, _) -> (
          match req_str req "op" ~default:"" with
          | "plan" | "degrade" -> (
              (* a malformed request keeps its error for its answer *)
              match plan_request state req with
              | pr -> decoded := (i, pr) :: !decoded
              | exception (Rerror.E _ | Invalid_argument _ as e) when mode = Structured ->
                  planned.(i) <- Some (Error e))
          | _ -> ()
          (* an "op" that is not a string: the answer pass answers it *)
          | exception Rerror.E _ when mode = Structured -> ())
    done;
    let decoded = Array.of_list (List.rev !decoded) in
    let plans =
      Service.plans state.service ~jobs
        (Array.map (fun (_, pr) -> pr.preq_key) decoded)
        (fun j ->
          let pr = snd decoded.(j) in
          Pipeline.plan ~replicas:pr.preq_replicas pr.preq_setup pr.preq_kind)
    in
    Array.iteri
      (fun j (i, pr) ->
        let plan, hit = plans.(j) in
        planned.(i) <- Some (Ok (pr, plan, if hit then "hit" else "miss")))
      decoded;
    for i = lo to hi - 1 do
      match parsed.(i) with
      | Error e -> output (Json.to_string (error_answer e))
      | Ok (req, deadline) -> (
          match
            Deadline.check deadline ~completed:0;
            handle_request state ~jobs ~t0 ~planned:planned.(i) req
          with
          | answer -> output (Json.to_string answer)
          | exception Rerror.E e when mode = Structured ->
              output (Json.to_string (error_answer ~req e))
          | exception Invalid_argument m when mode = Structured ->
              output (Json.to_string (error_answer ~req (invalid_input m))))
    done
  in
  let n = Array.length parsed in
  let rec runs lo i =
    if i = n then (if lo < n then answer_run lo n)
    else
      match parsed.(i) with
      | Ok (req, _) when Json.member "op" req = Some (Json.Str "stats") ->
          answer_run lo (i + 1);
          runs (i + 1) (i + 1)
      | _ -> runs lo (i + 1)
  in
  runs 0 0

(* stdin requests: with --once the whole input is one batch; otherwise
   each line is answered as a batch of one before the next is read *)
let serve_stdin state ~jobs ~once output =
  let lines = ref [] in
  (try
     while true do
       let line = input_line stdin in
       if String.trim line <> "" then
         if once then lines := (line, Deadline.never) :: !lines
         else answer_batch state ~jobs ~mode:Fatal ~output [| (line, Deadline.never) |]
     done
   with End_of_file -> ());
  if once then answer_batch state ~jobs ~mode:Fatal ~output (Array.of_list (List.rev !lines))

(* --- the hardened daemon: concurrent connections, deadlines,
       shedding, graceful lifecycle ---------------------------------- *)

type server = {
  state : serve_state;
  jobs : int;
  request_timeout : float option;
      (* per-request budget, started when the request line is awaited:
         covers the read (slowloris guard) and the queueing until the
         answer; a plan already computing is not preempted *)
  max_clients : int;
  active : int Atomic.t;  (* connection handlers in flight *)
  stop : bool Atomic.t;  (* a signal asked us to drain and exit *)
}

let request_deadline server =
  match server.request_timeout with
  | None -> Deadline.never
  | Some seconds -> Deadline.make ~seconds ()

exception Read_timeout

(* block until [fd] is readable or [deadline] lapses *)
let rec wait_readable fd deadline =
  match Unix.select [ fd ] [] [] (Deadline.select_timeout deadline) with
  | [], _, _ -> raise Read_timeout
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      if Deadline.expired deadline then raise Read_timeout
      else wait_readable fd deadline

type conn = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  mutable pending : string;  (* bytes received but not yet consumed *)
  mutable conn_eof : bool;
}

let make_conn fd = { fd; chunk = Bytes.create 8192; pending = ""; conn_eof = false }

(* next newline-terminated line ([None] at EOF, where a non-empty
   unterminated tail still counts as a final line); raises
   [Read_timeout] when [deadline] lapses first *)
let rec conn_line conn deadline =
  match String.index_opt conn.pending '\n' with
  | Some i ->
      let line = String.sub conn.pending 0 i in
      conn.pending <-
        String.sub conn.pending (i + 1) (String.length conn.pending - i - 1);
      Some line
  | None ->
      if conn.conn_eof then
        if conn.pending = "" then None
        else begin
          let line = conn.pending in
          conn.pending <- "";
          Some line
        end
      else begin
        wait_readable conn.fd deadline;
        let n =
          let rec read () =
            try Unix.read conn.fd conn.chunk 0 (Bytes.length conn.chunk)
            with Unix.Unix_error (Unix.EINTR, _, _) -> read ()
          in
          read ()
        in
        if n = 0 then conn.conn_eof <- true
        else conn.pending <- conn.pending ^ Bytes.sub_string conn.chunk 0 n;
        conn_line conn deadline
      end

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

let output_line fd line =
  let line = line ^ "\n" in
  write_all fd line 0 (String.length line)

let deadline_line budget =
  Json.to_string
    (Json.Obj
       [ ("ok", Json.Bool false);
         ("error", Json.Str "deadline");
         ( "message",
           Json.Str
             (Printf.sprintf
                "request not received within the %gs request timeout" budget) ) ])

let busy_line max_clients =
  Json.to_string
    (Json.Obj
       [ ("ok", Json.Bool false);
         ("error", Json.Str "busy");
         ("max_clients", Json.Num (float_of_int max_clients));
         ("message", Json.Str "daemon at max-clients; retry later") ])

(* one connection = one batch: requests to EOF, then answers; caches
   persist across connections. A hung client (no newline within the
   request timeout) still gets answers for the complete requests it
   sent, then a structured deadline line, then the close. *)
let handle_connection server fd =
  let conn = make_conn fd in
  let timed_out = ref None in
  let lines = ref [] in
  (try
     let rec read_loop () =
       let deadline = request_deadline server in
       match conn_line conn deadline with
       | Some line ->
           if String.trim line <> "" then lines := (line, deadline) :: !lines;
           read_loop ()
       | None -> ()
     in
     read_loop ()
   with Read_timeout ->
     timed_out := Some (Option.value server.request_timeout ~default:0.));
  answer_batch server.state ~jobs:server.jobs ~mode:Structured
    ~output:(output_line fd)
    (Array.of_list (List.rev !lines));
  Option.iter (fun budget -> output_line fd (deadline_line budget)) !timed_out

(* catch-everything wrapper: a vanished client (EPIPE/ECONNRESET) or a
   handler bug must cost one connection, never the daemon. The
   connection stops counting against --max-clients once its batch is
   answered; [hang_up] then closes it *)
let run_connection server fd =
  (try handle_connection server fd with
  | Unix.Unix_error _ | Sys_error _ | Read_timeout -> ()
  | e ->
      let what = match e with Rerror.E e -> Rerror.to_string e | e -> Printexc.to_string e in
      Printf.eprintf "ckptwf: connection handler failed: %s\n%!" what);
  Atomic.decr server.active

let hang_up fd =
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* --- resident connection handlers ---------------------------------

   A handler domain serves one connection at a time, then parks on its
   own condition variable until the accept loop hands it the next one,
   so sequential traffic reuses one domain instead of paying a
   Domain.spawn + join per connection. The accept loop spawns a new
   handler only when every existing one is busy: concurrent
   connections still compute in parallel, and a heavy batch on one
   delays no other. At most [Pool.available_jobs ()] handlers stay
   parked; a handler that finishes while that many are idle exits,
   since every parked domain still takes part in each minor
   collection. *)

type handler = {
  mutable next : Unix.file_descr option;  (* a connection handed over, not yet served *)
  wake : Condition.t;  (* [next] was set, or the drain began *)
}

type handlers = {
  lock : Mutex.t;  (* guards every field below and every handler's [next] *)
  mutable idle : handler list;  (* parked, most recently used first *)
  mutable live : int;  (* handler domains that have not returned *)
  gone : Condition.t;  (* [live] reached 0 *)
  mutable draining : bool;
}

(* a handler domain returns; the last one wakes the drain *)
let retire hs =
  Mutex.protect hs.lock (fun () ->
      hs.live <- hs.live - 1;
      if hs.live = 0 then Condition.broadcast hs.gone)

let rec handler_loop server hs h =
  Mutex.lock hs.lock;
  while h.next = None && not hs.draining do
    Condition.wait h.wake hs.lock
  done;
  let next = h.next in
  h.next <- None;
  Mutex.unlock hs.lock;
  match next with
  | Some fd ->
      run_connection server fd;
      (* rejoin the idle set before the hang-up, so a client that
         reconnects as soon as it reads EOF finds this handler idle *)
      let stays =
        Mutex.protect hs.lock (fun () ->
            let stays =
              (not hs.draining) && List.length hs.idle < Pool.available_jobs ()
            in
            if stays then hs.idle <- h :: hs.idle;
            stays)
      in
      hang_up fd;
      if stays then handler_loop server hs h else retire hs
  | None -> retire hs

(* hand [fd] to an idle handler, or spawn one; [false] when no domain
   can be spawned *)
let dispatch server hs fd =
  Mutex.lock hs.lock;
  match hs.idle with
  | h :: rest ->
      hs.idle <- rest;
      h.next <- Some fd;
      Condition.signal h.wake;
      Mutex.unlock hs.lock;
      true
  | [] -> (
      hs.live <- hs.live + 1;
      Mutex.unlock hs.lock;
      let h = { next = Some fd; wake = Condition.create () } in
      match Domain.spawn (fun () -> handler_loop server hs h) with
      | _ -> true
      | exception _ ->
          retire hs;
          false)

(* wake the parked handlers, let the busy ones finish their batches,
   and wait until every handler has returned *)
let drain hs =
  Mutex.lock hs.lock;
  hs.draining <- true;
  List.iter (fun h -> Condition.signal h.wake) hs.idle;
  while hs.live > 0 do
    Condition.wait hs.gone hs.lock
  done;
  Mutex.unlock hs.lock

(* a Unix-socket path may be left behind by a daemon that was killed
   mid-request; claim it only after probing that nobody answers it *)
let claim_socket_path path =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let alive =
      try
        Unix.connect probe (Unix.ADDR_UNIX path);
        true
      with Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if alive then
      Rerror.raise_
        (Rerror.Io { path; message = "a live daemon is already serving on this socket" });
    Printf.eprintf "ckptwf: removing stale socket %s\n%!" path;
    try Unix.unlink path with Unix.Unix_error _ -> ()
  end

let listen_unix path =
  claim_socket_path path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 64;
  sock

let listen_tcp port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock 64;
  sock

(* accept loop: EINTR-safe, sheds over-cap connections with one busy
   line, hands each accepted client to a resident handler, drains on
   SIGINT/SIGTERM (stop accepting, finish in-flight batches, remove
   the socket file, exit 0). The listen sockets are polled with a
   short select timeout so a signal is noticed within a quarter second
   even when no connection ever arrives. *)
let daemon_loop server listeners ~once =
  let hs =
    { lock = Mutex.create (); idle = []; live = 0; gone = Condition.create (); draining = false }
  in
  let served_once = ref false in
  let accept_ready listen_fd =
    match Unix.accept listen_fd with
    | exception
        Unix.Unix_error
          ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _)
      ->
        ()
    | client, _ ->
        if Atomic.get server.active >= server.max_clients then begin
          (* shed: one busy line, then hang up — never block the
             accept loop behind a full house *)
          (try output_line client (busy_line server.max_clients)
           with Unix.Unix_error _ -> ());
          try Unix.close client with Unix.Unix_error _ -> ()
        end
        else begin
          Atomic.incr server.active;
          served_once := true;
          if once then begin
            run_connection server client;
            hang_up client
          end
          else if not (dispatch server hs client) then begin
            (* out of domains: shed exactly like over-cap *)
            Atomic.decr server.active;
            (try output_line client (busy_line server.max_clients)
             with Unix.Unix_error _ -> ());
            try Unix.close client with Unix.Unix_error _ -> ()
          end
        end
  in
  let rec loop () =
    if Atomic.get server.stop || (once && !served_once) then ()
    else begin
      (match Unix.select listeners [] [] 0.25 with
      | ready, _, _ -> List.iter accept_ready ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  (* drain: stop accepting, let in-flight batches finish *)
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listeners;
  drain hs

let serve_daemon state ~jobs ~request_timeout ~max_clients socket tcp ~once =
  let server =
    {
      state;
      jobs;
      request_timeout;
      max_clients;
      active = Atomic.make 0;
      stop = Atomic.make false;
    }
  in
  (* a client that dies mid-answer must surface as EPIPE on the write,
     not as a process-killing SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun signal ->
      Sys.set_signal signal
        (Sys.Signal_handle (fun _ -> Atomic.set server.stop true)))
    [ Sys.sigint; Sys.sigterm ];
  let unix_listener = Option.map listen_unix socket in
  let tcp_listener = Option.map listen_tcp tcp in
  let listeners = List.filter_map Fun.id [ unix_listener; tcp_listener ] in
  let cleanup () =
    Option.iter
      (fun path -> try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
      socket
  in
  Printf.eprintf "ckptwf: serving on %s%s\n%!"
    (String.concat " + "
       (List.filter_map Fun.id
          [ socket; Option.map (Printf.sprintf "tcp:%d") tcp ]))
    (if once then " (once)" else "");
  Fun.protect ~finally:cleanup (fun () ->
      daemon_loop server listeners ~once;
      if Atomic.get server.stop then
        Printf.eprintf "ckptwf: drained %s, exiting\n%!"
          (Option.value socket ~default:"tcp"))

let serve_run socket tcp once jobs request_timeout max_clients cache_cap =
  protect @@ fun () ->
  let state =
    {
      service = Service.create ?cap:cache_cap ();
      degraded = Memo.create ();
      slock = Mutex.create ();
      store_totals = Store.zero;
      store_ops = 0;
    }
  in
  let jobs = Pool.effective_jobs jobs in
  match (socket, tcp) with
  | None, None ->
      let output line =
        print_string line;
        print_newline ();
        flush stdout
      in
      serve_stdin state ~jobs ~once output
  | _ ->
      serve_daemon state ~jobs ~request_timeout ~max_clients socket tcp ~once

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Serve over a Unix domain socket at $(docv) instead of stdin/stdout; each \
             connection is one request batch, connections are handled concurrently. A \
             stale socket file left by a killed daemon is removed at startup when no \
             live daemon answers it.")
  in
  let tcp =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT"
          ~doc:
            "Also (or only) listen on 127.0.0.1:$(docv) with the same one-batch-per-\
             connection NDJSON protocol — for actual remote traffic.")
  in
  let once =
    Arg.(
      value
      & flag
      & info [ "once" ]
          ~doc:
            "Handle one batch (stdin to EOF, or a single connection), answer every \
             request in order, and exit — for scripting.")
  in
  let request_timeout =
    Arg.(
      value
      & opt (some positive_float_conv) None
      & info [ "request-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-request budget, started when the daemon begins waiting for the request \
             line: a client that hangs mid-request (slowloris) or a request still queued \
             when the budget lapses gets a structured {\"error\":\"deadline\"} answer \
             instead of blocking its connection forever. Unset means wait forever.")
  in
  let max_clients =
    let parse s =
      match int_of_string_opt s with
      | Some v when v >= 1 -> Ok v
      | _ -> Error (`Msg "expected a positive client count")
    in
    Arg.(
      value
      & opt (conv (parse, Format.pp_print_int)) 32
      & info [ "max-clients" ] ~docv:"N"
          ~doc:
            "Concurrent-connection bound: excess connections are shed immediately with a \
             one-line {\"error\":\"busy\"} answer instead of queueing behind a full \
             house.")
  in
  let cache_cap =
    let parse s =
      match int_of_string_opt s with
      | Some v when v >= 1 -> Ok v
      | _ -> Error (`Msg "expected a positive cache capacity")
    in
    Arg.(
      value
      & opt (some (conv (parse, Format.pp_print_int))) None
      & info [ "cache-cap" ] ~docv:"N"
          ~doc:
            "Bound the setup and plan caches to $(docv) entries each with LRU eviction \
             (eviction counters appear in the stats op). Unset means unbounded — the \
             pre-daemon behaviour.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Batched planning daemon: newline-delimited JSON plan/evaluate/degrade/stats \
          requests over stdin, a Unix socket or TCP, with compiled DAG views, placement \
          arenas and the structural replan cache shared across requests; concurrent \
          connections, per-request deadlines, bounded caches and SIGTERM draining \
          (extension).")
    Term.(
      const serve_run $ socket $ tcp $ once $ jobs_arg $ request_timeout $ max_clients
      $ cache_cap)

(* --- export --- *)

let export_run workflow tasks seed output =
  protect @@ fun () ->
  let dag = Spec.generate workflow ~seed ~tasks () in
  (match output with
  | Some path ->
      Ckpt_dax.Dax.save path dag;
      Format.printf "wrote %s (%d tasks)@." path (Dag.n_tasks dag)
  | None -> print_string (Ckpt_dax.Dax.to_string dag))

let export_cmd =
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path (stdout when omitted).")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Write a generated workflow as a Pegasus DAX file.")
    Term.(const export_run $ workflow_arg $ tasks_arg $ seed_arg $ output)

let main_cmd =
  Cmd.group
    (Cmd.info "ckptwf" ~version:"1.0.0"
       ~doc:
         "Checkpointing workflows for fail-stop errors (Han, Canon, Casanova, Robert, \
          Vivien — IEEE Cluster 2017): scheduling, checkpoint placement, expected-makespan \
          evaluation and simulation. Exit codes: 0 success, 1 simulated fail-stop crash \
          (--fail-after), 2 malformed or invalid input, 3 exhausted retry/deadline budget, \
          124 command-line misuse.")
    [ generate_cmd; schedule_cmd; evaluate_cmd; simulate_cmd; sweep_cmd; accuracy_cmd;
      export_cmd; gantt_cmd; contention_cmd; quantiles_cmd; degrade_cmd; storm_cmd;
      cloud_cmd; serve_cmd ]

let () = exit (Cmd.eval main_cmd)
