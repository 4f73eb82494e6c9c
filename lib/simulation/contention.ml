module Failure = Ckpt_platform.Failure
module Platform = Ckpt_platform.Platform
module Strategy = Ckpt_core.Strategy
module Placement = Ckpt_core.Placement
module Rng = Ckpt_prob.Rng
module Stats = Ckpt_prob.Stats

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
}

let drained (r : running) = r.rem <= 1e-12 *. (1. +. r.total)

let makespan ~bandwidth segs trace_of_processor =
  if bandwidth <= 0. then invalid_arg "Contention.makespan: non-positive bandwidth";
  let n = Array.length segs in
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
  (* move a running segment past its exhausted phases *)
  let rec settle proc (r : running) =
    if drained r then
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
      | Writing ->
          completed.(r.seg_idx) <- true;
          completion.(r.seg_idx) <- !now;
          incr finished;
          Hashtbl.remove running proc
  in
  let start proc idx =
    let read = segs.(idx).read_bytes in
    let r = { seg_idx = idx; phase = Reading; rem = read; total = read } in
    Hashtbl.replace running proc r;
    settle proc r
  in
  (* dispatch every idle processor whose next segment is ready; loop
     because an instant completion can unlock further segments *)
  let rec dispatch () =
    let progressed = ref false in
    List.iter
      (fun (proc, queue) ->
        if not (Hashtbl.mem running proc) then
          match !queue with
          | idx :: rest when List.for_all (fun p -> completed.(p)) segs.(idx).preds ->
              queue := rest;
              start proc idx;
              progressed := true
          | _ -> ())
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
            settle proc r
        | `Complete proc ->
            let r = Hashtbl.find running proc in
            r.rem <- 0.;
            settle proc r;
            (* settle any other phase that drained at the same instant *)
            let procs = Hashtbl.fold (fun p _ acc -> p :: acc) running [] in
            List.iter
              (fun other ->
                match Hashtbl.find_opt running other with
                | Some r when drained r -> settle other r
                | _ -> ())
              procs));
    dispatch ()
  done;
  Array.fold_left Float.max 0. completion

(* the segment DAG of {!Runner.segs_of_plan}, its I/O spans in bytes *)
let segs_of_plan (plan : Strategy.plan) =
  let bandwidth = plan.Strategy.platform.Platform.bandwidth in
  Array.map2
    (fun (s : Engine.seg) (seg : Placement.segment) ->
      {
        processor = s.Engine.processor;
        read_bytes = seg.Placement.read *. bandwidth;
        work = seg.Placement.work;
        write_bytes = seg.Placement.write *. bandwidth;
        preds = s.Engine.preds;
      })
    (Runner.segs_of_plan plan) plan.Strategy.segments

let simulate ?(trials = 1000) ?(seed = 7) (plan : Strategy.plan) =
  if trials < 1 then invalid_arg "Contention.simulate: trials < 1";
  let platform = plan.Strategy.platform in
  let bandwidth = platform.Platform.bandwidth in
  let segs = segs_of_plan plan in
  let master = Rng.create seed in
  let stats = Stats.create () in
  for _ = 1 to trials do
    let trial_rng = Rng.split master in
    let trace_of p = Failure.create trial_rng ~lambda:(Platform.rate_of platform p) in
    Stats.add stats (makespan ~bandwidth segs trace_of)
  done;
  stats
