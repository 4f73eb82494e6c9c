module Failure = Ckpt_platform.Failure
module Platform = Ckpt_platform.Platform
module Strategy = Ckpt_core.Strategy
module Schedule = Ckpt_core.Schedule
module Superchain = Ckpt_core.Superchain
module Placement = Ckpt_core.Placement
module Prob_dag = Ckpt_eval.Prob_dag
module Rng = Ckpt_prob.Rng
module Stats = Ckpt_prob.Stats
module Storage = Ckpt_storage.Storage
module Store = Ckpt_storage.Store

type seg = {
  processor : int;
  read_bytes : float;
  work : float;
  write_bytes : float;
  preds : int list;
}

(* one processor's in-flight segment; [rem] is bytes during I/O
   phases, seconds during compute; [total] is the phase's full volume,
   setting the scale of the done-threshold (an absolute epsilon would
   livelock: after advancing to a completion instant, float rounding
   can leave a sub-ULP byte remainder whose completion time rounds
   back to [now], so [dt] stays 0 forever) *)
type phase = Reading | Computing | Writing

type running = {
  seg_idx : int;
  mutable phase : phase;
  mutable rem : float;
  mutable total : float;
  mutable commit_attempts : int;
}

let drained (r : running) = r.rem <= 1e-12 *. (1. +. r.total)

let makespan ?store:storage ~bandwidth segs trace_of_processor =
  if bandwidth <= 0. then invalid_arg "Contention.makespan: non-positive bandwidth";
  let n = Array.length segs in
  (* checkpoint handle of each committed segment (only maintained when
     a checkpoint store is attached) *)
  let ckpts = Array.make (match storage with Some _ -> n | None -> 0) None in
  Array.iteri
    (fun i s ->
      List.iter
        (fun p ->
          if p >= i then invalid_arg "Contention.makespan: segments not topologically ordered")
        s.preds)
    segs;
  let completed = Array.make n false in
  let completion = Array.make n 0. in
  (* per-processor pending queues, in array (schedule) order *)
  let queues = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let q = Option.value ~default:[] (Hashtbl.find_opt queues s.processor) in
      Hashtbl.replace queues s.processor (i :: q))
    segs;
  let queues =
    Hashtbl.fold (fun p q acc -> (p, ref (List.rev q)) :: acc) queues []
  in
  let running : (int, running) Hashtbl.t = Hashtbl.create 16 in
  let traces = Hashtbl.create 16 in
  let trace p =
    match Hashtbl.find_opt traces p with
    | Some t -> t
    | None ->
        let t = trace_of_processor p in
        Hashtbl.replace traces p t;
        t
  in
  let now = ref 0. in
  let finished = ref 0 in
  (* move a running segment past its exhausted phases; returns true if
     the segment completed *)
  let rec settle proc (r : running) =
    if not (drained r) then false
    else
      match r.phase with
      | Reading ->
          r.phase <- Computing;
          r.rem <- segs.(r.seg_idx).work;
          r.total <- segs.(r.seg_idx).work;
          settle proc r
      | Computing ->
          r.phase <- Writing;
          r.rem <- segs.(r.seg_idx).write_bytes;
          r.total <- segs.(r.seg_idx).write_bytes;
          settle proc r
      | Writing -> (
          let idx = r.seg_idx in
          let complete handle =
            (match storage with
            | Some _ -> ckpts.(idx) <- handle
            | None -> ());
            completed.(idx) <- true;
            completion.(idx) <- !now;
            incr finished;
            Hashtbl.remove running proc;
            true
          in
          match storage with
          | None -> complete None
          | Some st ->
              (* the policy decision is made at the first attempt of a
                 commit cycle; rewrites of the same cycle stay durable *)
              if
                r.commit_attempts = 0
                && Store.begin_commit st = `Volatile
              then complete (Some (Store.volatile_handle st ~seg:idx))
              else begin
                r.commit_attempts <- r.commit_attempts + 1;
                match Store.commit_step st ~attempt:r.commit_attempts with
                | Storage.Committed ->
                    complete (Some (Store.fresh_handle st ~seg:idx ~at:!now))
                | Storage.Rewrite ->
                    (* a detected commit failure rewrites the whole
                       replica set; the shared-bandwidth rewrite itself
                       is the penalty, so no wall-clock backoff is
                       charged here *)
                    r.rem <- segs.(idx).write_bytes;
                    r.total <- segs.(idx).write_bytes;
                    settle proc r
                | Storage.Exhausted ->
                    (* give up on this commit cycle: re-execute the
                       segment *)
                    r.commit_attempts <- 0;
                    r.phase <- Reading;
                    r.rem <- segs.(idx).read_bytes;
                    r.total <- segs.(idx).read_bytes;
                    settle proc r
              end)
  in
  let start proc idx =
    let r =
      { seg_idx = idx;
        phase = Reading;
        rem = segs.(idx).read_bytes;
        total = segs.(idx).read_bytes;
        commit_attempts = 0 }
    in
    Hashtbl.replace running proc r;
    ignore (settle proc r)
  in
  (* dispatch every idle processor whose next segment is ready; loop
     because an instant completion can unlock further segments *)
  let rec dispatch () =
    let progressed = ref false in
    List.iter
      (fun (proc, queue) ->
        if not (Hashtbl.mem running proc) then
          match !queue with
          | [] -> ()
          | idx :: rest ->
              if List.for_all (fun p -> completed.(p)) segs.(idx).preds then begin
                let stale =
                  match storage with
                  | None -> []
                  | Some st ->
                      List.filter
                        (fun p ->
                          match ckpts.(p) with
                          | Some ck -> (
                              match Store.read st ck ~at:!now with
                              | Ok _ -> false
                              | Error (Store.Corrupt | Store.Rejected) -> true)
                          | None -> false)
                        segs.(idx).preds
                in
                match stale with
                | [] ->
                    queue := rest;
                    start proc idx;
                    progressed := true
                | _ ->
                    (* cascading rollback: each corrupt checkpoint's
                       producer returns to the head of its processor's
                       queue and re-executes (re-validating its own
                       inputs when it dispatches, so the cascade is
                       transitive); the consumer stays queued until
                       every recovery read passes *)
                    List.iter
                      (fun p ->
                        completed.(p) <- false;
                        ckpts.(p) <- None;
                        decr finished;
                        let q = List.assoc segs.(p).processor queues in
                        q := p :: !q)
                      stale;
                    progressed := true
              end)
      queues;
    if !progressed then dispatch ()
  in
  dispatch ();
  while !finished < n do
    (* current I/O concurrency sets every stream's rate *)
    let io_count =
      Hashtbl.fold
        (fun _ r acc -> match r.phase with Reading | Writing -> acc + 1 | Computing -> acc)
        running 0
    in
    let io_rate = if io_count = 0 then bandwidth else bandwidth /. float_of_int io_count in
    let rate r = match r.phase with Reading | Writing -> io_rate | Computing -> 1. in
    (* earliest event: a phase completion or a failure on a busy
       processor. The event names its processor so it can be settled
       unconditionally — relying on a residue threshold livelocks when
       [rem / rate] rounds below one ulp of [now]. *)
    let next_event = ref infinity and event = ref None in
    Hashtbl.iter
      (fun proc r ->
        let completion_at = !now +. (r.rem /. rate r) in
        if completion_at < !next_event || !event = None then begin
          next_event := Float.max !now completion_at;
          event := Some (`Complete proc)
        end;
        let failure_at = Failure.next_after (trace proc) !now in
        if failure_at < !next_event then begin
          next_event := failure_at;
          event := Some (`Fail proc)
        end)
      running;
    (match !event with
    | None ->
        (* all remaining segments are blocked: impossible if the input
           is a well-formed schedule *)
        invalid_arg "Contention.makespan: deadlock (invalid schedule)"
    | Some happening ->
        let dt = Float.max 0. (!next_event -. !now) in
        (* advance every running phase by dt at its current rate *)
        Hashtbl.iter (fun _ r -> r.rem <- Float.max 0. (r.rem -. (dt *. rate r))) running;
        now := !next_event;
        (match happening with
        | `Fail proc ->
            (* memory lost: restart the segment from its read phase *)
            let r = Hashtbl.find running proc in
            r.phase <- Reading;
            r.rem <- segs.(r.seg_idx).read_bytes;
            r.total <- segs.(r.seg_idx).read_bytes;
            r.commit_attempts <- 0;
            ignore (settle proc r)
        | `Complete proc ->
            let r = Hashtbl.find running proc in
            r.rem <- 0.;
            ignore (settle proc r);
            (* settle any other phase that drained at the same instant *)
            let procs = Hashtbl.fold (fun p _ acc -> p :: acc) running [] in
            List.iter
              (fun other ->
                match Hashtbl.find_opt running other with
                | Some r when drained r -> ignore (settle other r)
                | _ -> ())
              procs));
    dispatch ()
  done;
  Array.fold_left Float.max 0. completion

let segs_of_plan (plan : Strategy.plan) =
  match plan.Strategy.prob_dag with
  | None -> invalid_arg "Contention.segs_of_plan: CKPTNONE has no segments"
  | Some pd ->
      let bandwidth = plan.Strategy.platform.Platform.bandwidth in
      Array.mapi
        (fun idx (seg : Placement.segment) ->
          let sc = plan.Strategy.schedule.Schedule.superchains.(seg.Placement.chain) in
          {
            processor = sc.Superchain.processor;
            read_bytes = seg.Placement.read *. bandwidth;
            work = seg.Placement.work;
            write_bytes = seg.Placement.write *. bandwidth;
            preds = Prob_dag.preds pd idx;
          })
        plan.Strategy.segments

let simulate ?(trials = 1000) ?(seed = 7) ?store (plan : Strategy.plan) =
  if trials < 1 then invalid_arg "Contention.simulate: trials < 1";
  Option.iter Store.validate store;
  let platform = plan.Strategy.platform in
  let bandwidth = platform.Platform.bandwidth in
  let segs = segs_of_plan plan in
  let master = Rng.create seed in
  let stats = Stats.create () in
  for _ = 1 to trials do
    let trial_rng = Rng.split master in
    (* the store substream splits off the trial's own generator, and
       only when the store is non-passthrough: a passthrough config
       draws nothing and reproduces the fault-free trials bitwise *)
    let st =
      match store with
      | Some cfg when not (Store.passthrough cfg) ->
          Some (Store.create cfg (Rng.split trial_rng))
      | _ -> None
    in
    let trace_of p = Failure.create trial_rng ~lambda:(Platform.rate_of platform p) in
    Stats.add stats (makespan ?store:st ~bandwidth segs trace_of)
  done;
  stats
