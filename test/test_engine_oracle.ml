(* Conservation and metamorphic oracle for the execution engine: random
   segment DAGs x random failure traces x {no interrupt, deaths,
   revocations with grace} x {no store, faulty in-memory store}. Every
   case checks that

   - attempts on one processor never overlap;
   - every first attempt starts no earlier than its predecessors'
     commits;
   - [summarize]'s useful + wasted time is the sum of the attempt spans;
   - a cut's [lost] is the pre-cut span of the uncommitted segments;
   - renaming processors (traces and interrupts permuted to match)
     leaves the makespan, or the cut instant, bitwise unchanged;
   - without a store, [Engine.makespan] is the interrupt-free run's
     finish, bit for bit. *)

module Engine = Ckpt_sim.Engine
module Failure = Ckpt_platform.Failure
module Rng = Ckpt_prob.Rng
module Store = Ckpt_storage.Store
module Storage = Ckpt_storage.Storage

type interrupts =
  | No_interrupt
  | Deaths of float array
  | Revocations of { warn : float array; kill : float array }

type case = {
  segs : Engine.seg array;
  write : float array;
  rescue : Engine.rescue_info array;
  nprocs : int;
  lambda : float;
  trace_seeds : int array;  (* per processor *)
  store_seed : int option;  (* [None]: no store *)
  interrupts : interrupts;
}

(* the engine's view of one run: [records]/[finish] describe the
   uninterrupted execution, [cut] the first disruptive interrupt
   (processor, instant, committed frontier, gross loss) *)
type view = {
  records : Engine.record array;
  finish : float;
  cut : (int * float * bool array * float) option;
}

let faulty_store =
  {
    Store.default with
    Store.faults =
      { Storage.default with Storage.corrupt_prob = 0.1; commit_fail_prob = 0.1 };
  }

let gen_case ~interrupt ~with_store seed =
  let rng = Rng.create seed in
  let nprocs = 1 + Rng.int rng 4 in
  let n = 1 + Rng.int rng 12 in
  let segs =
    Array.init n (fun i ->
        let preds = List.filter (fun _ -> Rng.int rng 3 = 0) (List.init i Fun.id) in
        let duration = if Rng.int rng 10 = 0 then 0. else 0.5 +. Rng.float rng 10. in
        { Engine.processor = Rng.int rng nprocs; duration; preds })
  in
  let write = Array.map (fun (s : Engine.seg) -> 0.1 *. s.Engine.duration) segs in
  let rescue =
    Array.map
      (fun (s : Engine.seg) ->
        let d = s.Engine.duration in
        let k = 1 + Rng.int rng 4 in
        {
          Engine.rread = 0.1 *. d;
          task_durs = Array.make k (0.8 *. d /. float_of_int k);
          partial_writes =
            Array.init k (fun j -> 0.1 *. d *. float_of_int (j + 1) /. float_of_int k);
        })
      segs
  in
  let instant () = if Rng.bool rng then infinity else 1. +. Rng.float rng 40. in
  let interrupts =
    match interrupt with
    | `None -> No_interrupt
    | `Deaths -> Deaths (Array.init nprocs (fun _ -> instant ()))
    | `Revocations ->
        let warn = Array.init nprocs (fun _ -> instant ()) in
        let kill = Array.map (fun w -> w +. Rng.float rng 5.) warn in
        Revocations { warn; kill }
  in
  {
    segs;
    write;
    rescue;
    nprocs;
    lambda = Rng.float rng 0.1;
    trace_seeds = Array.init nprocs (fun _ -> Rng.int rng 1_000_000);
    store_seed = (if with_store then Some (Rng.int rng 1_000_000) else None);
    interrupts;
  }

(* fresh per-processor traces for every run: a trace is consumed as the
   engine walks it *)
let traces c () p = Failure.create (Rng.create c.trace_seeds.(p)) ~lambda:c.lambda

let store_of c () =
  Option.map (fun s -> Store.create faulty_store (Rng.create s)) c.store_seed

let run ?(interrupted = true) c =
  let interrupts =
    match c.interrupts with
    | _ when not interrupted -> None
    | No_interrupt -> None
    | Deaths d -> Some (Engine.deaths (fun p -> d.(p)))
    | Revocations { warn; kill } ->
        Some
          {
            Engine.warn = (fun p -> warn.(p));
            kill = (fun p -> kill.(p));
            rescue = Some c.rescue;
          }
  in
  let o =
    Engine.run ?store:(store_of c ()) ~write:c.write ?interrupts c.segs (traces c ())
  in
  {
    records = o.Engine.records;
    finish = o.Engine.finish;
    cut =
      Option.map
        (fun (k : Engine.cut) ->
          (k.Engine.proc, k.Engine.at, k.Engine.completed, k.Engine.lost))
        o.Engine.cut;
  }

let close a b = Float.abs (a -. b) <= 1e-9 *. (1. +. Float.abs a)

let no_overlap (v : view) =
  let per_proc = Hashtbl.create 8 in
  Array.iter
    (fun (r : Engine.record) ->
      List.iter
        (fun (a : Engine.attempt) ->
          let p = r.Engine.seg_processor in
          Hashtbl.replace per_proc p
            (a :: Option.value ~default:[] (Hashtbl.find_opt per_proc p)))
        r.Engine.attempts)
    v.records;
  Hashtbl.fold
    (fun _ attempts ok ->
      let sorted =
        List.sort
          (fun (a : Engine.attempt) b ->
            compare (a.Engine.attempt_start, a.Engine.attempt_end)
              (b.Engine.attempt_start, b.Engine.attempt_end))
          attempts
      in
      let rec check = function
        | (a : Engine.attempt) :: (b :: _ as rest) ->
            a.Engine.attempt_end <= b.Engine.attempt_start && check rest
        | [ _ ] | [] -> true
      in
      ok && check sorted)
    per_proc true

(* a predecessor's first commit is no earlier than the end of its first
   successful attempt; without a store the commit is that end, and it
   is also the predecessor's last attempt *)
let first_commit_bound (r : Engine.record) =
  match
    List.find_opt (fun (a : Engine.attempt) -> not a.Engine.failed) r.Engine.attempts
  with
  | Some a -> a.Engine.attempt_end
  | None -> infinity

let respects_preds c (v : view) =
  Array.for_all
    (fun (r : Engine.record) ->
      match r.Engine.attempts with
      | [] -> false
      | first :: _ ->
          List.for_all
            (fun p -> first.Engine.attempt_start >= first_commit_bound v.records.(p))
            c.segs.(r.Engine.seg_index).Engine.preds)
    v.records

let summary_conserves (v : view) =
  let s = Engine.summarize v.records in
  let total = ref 0. and failed = ref 0 in
  Array.iter
    (fun (r : Engine.record) ->
      List.iter
        (fun (a : Engine.attempt) ->
          total := !total +. (a.Engine.attempt_end -. a.Engine.attempt_start);
          if a.Engine.failed then incr failed)
        r.Engine.attempts)
    v.records;
  close (s.Engine.useful_time +. s.Engine.wasted_time) !total
  && s.Engine.failures = !failed

(* gross loss at a cut: time sunk before the cut into segments whose
   checkpoint had not committed by then *)
let lost_matches (v : view) =
  match v.cut with
  | None -> true
  | Some (_, at, completed, lost) ->
      let expect = ref 0. in
      Array.iteri
        (fun i (r : Engine.record) ->
          if not completed.(i) then
            List.iter
              (fun (a : Engine.attempt) ->
                if a.Engine.attempt_start < at then
                  expect :=
                    !expect +. (Float.min at a.Engine.attempt_end -. a.Engine.attempt_start))
              r.Engine.attempts)
        v.records;
      close !expect lost

let rename_invariant c seed =
  let perm = Array.init c.nprocs Fun.id in
  Rng.shuffle (Rng.create seed) perm;
  let inv = Array.make c.nprocs 0 in
  Array.iteri (fun p q -> inv.(q) <- p) perm;
  let permute a = Array.init c.nprocs (fun q -> a.(inv.(q))) in
  let c' =
    {
      c with
      segs =
        Array.map
          (fun (s : Engine.seg) -> { s with Engine.processor = perm.(s.Engine.processor) })
          c.segs;
      trace_seeds = permute c.trace_seeds;
      interrupts =
        (match c.interrupts with
        | No_interrupt -> No_interrupt
        | Deaths d -> Deaths (permute d)
        | Revocations { warn; kill } ->
            Revocations { warn = permute warn; kill = permute kill });
    }
  in
  let v = run c and v' = run c' in
  v.finish = v'.finish
  &&
  match (v.cut, v'.cut) with
  | None, None -> true
  | Some (p, at, _, _), Some (p', at', _, _) -> perm.(p) = p' && at = at'
  | _ -> false

let property ~interrupt ~with_store seed =
  let c = gen_case ~interrupt ~with_store seed in
  let v = run c in
  if not (no_overlap v) then QCheck.Test.fail_report "attempts overlap on a processor";
  if not (respects_preds c v) then
    QCheck.Test.fail_report "a first attempt starts before a predecessor's commit";
  if not (summary_conserves v) then
    QCheck.Test.fail_report "useful + wasted differs from the attempt spans";
  if not (lost_matches v) then
    QCheck.Test.fail_report "cut loss differs from the pre-cut span";
  (* a cut only truncates the execution: the interrupt-free run is the
     same execution, bitwise *)
  let free = run ~interrupted:false c in
  if not (free.finish = v.finish && free.records = v.records) then
    QCheck.Test.fail_report "interrupts changed the execution before the cut";
  (* the record-free makespan is the storeless run's finish, bitwise;
     also with every trace split off one generator in first-use order,
     as the samplers create them, which pins that order too *)
  if c.store_seed = None then begin
    let first_use () =
      let rng = Rng.create c.trace_seeds.(0) in
      fun _ -> Failure.create rng ~lambda:c.lambda
    in
    let bits = Int64.bits_of_float in
    if
      bits (Engine.makespan c.segs (traces c ())) <> bits free.finish
      || bits (Engine.makespan c.segs (first_use ()))
         <> bits (Engine.run c.segs (first_use ())).Engine.finish
    then QCheck.Test.fail_report "Engine.makespan differs from Engine.run's finish"
  end;
  if not (rename_invariant c seed) then
    QCheck.Test.fail_report "renaming processors changed the makespan";
  true

let tests =
  List.concat_map
    (fun (iname, interrupt) ->
      List.map
        (fun (sname, with_store) ->
          QCheck.Test.make ~count:150
            ~name:(Printf.sprintf "conservation: %s, %s" iname sname)
            QCheck.(int_range 0 1_000_000)
            (property ~interrupt ~with_store))
        [ ("no store", false); ("faulty store", true) ])
    [ ("no interrupt", `None); ("deaths", `Deaths); ("revocations", `Revocations) ]

let suite = List.map QCheck_alcotest.to_alcotest tests
