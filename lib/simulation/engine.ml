module Failure = Ckpt_platform.Failure
module Rng = Ckpt_prob.Rng
module Store = Ckpt_storage.Store

type seg = { processor : int; duration : float; preds : int list }

type attempt = { attempt_start : float; attempt_end : float; failed : bool }
type record = { seg_index : int; seg_processor : int; attempts : attempt list }

type rescue_info = {
  rread : float;
  task_durs : float array;
  partial_writes : float array;
}

type interrupts = {
  warn : int -> float;
  kill : int -> float;
  rescue : rescue_info array option;
}

let deaths death = { warn = death; kill = death; rescue = None }

type saved = { seg : int; tasks : int; handle : Store.handle option }

type cut = {
  proc : int;
  at : float;
  kill : float;
  completed : bool array;
  saved : saved option;
  lost : float;
}

type outcome = {
  records : record array;
  finish : float;
  ckpts : Store.handle option array;
  rollbacks : int list;
  cut : cut option;
}

(* Per-processor state of one execution, indexed by processor id and
   sized by the largest id + 1: when each processor is next free, and
   its failure trace. A trace is created at its processor's first
   segment, even a zero-duration one: trial generators split their
   streams in that first-use order. *)
type procs = {
  free : float array;
  traces : Failure.t option array;
  trace_of : int -> Failure.t;
}

let procs ~start segs trace_of =
  let size = Array.fold_left (fun m seg -> max m (seg.processor + 1)) 0 segs in
  { free = Array.make size start; traces = Array.make size None; trace_of }

let trace procs p =
  match procs.traces.(p) with
  | Some t -> t
  | None ->
      let t = procs.trace_of p in
      procs.traces.(p) <- Some t;
      t

(* Retry a segment until an attempt fits before the next failure;
   returns the end of the successful attempt and the attempts so far,
   newest first. *)
let rec attempt tr duration start acc =
  if duration = 0. then
    (start, { attempt_start = start; attempt_end = start; failed = false } :: acc)
  else begin
    let failure = Failure.next_after tr start in
    if failure < start +. duration then
      attempt tr duration failure
        ({ attempt_start = start; attempt_end = failure; failed = true } :: acc)
    else
      let fin = start +. duration in
      (fin, { attempt_start = start; attempt_end = fin; failed = false } :: acc)
  end

(* [attempt] without the records: only the end of the successful
   attempt. *)
let rec retry tr duration start =
  if duration = 0. then start
  else
    let failure = Failure.next_after tr start in
    if failure < start +. duration then retry tr duration failure else start +. duration

(* Interruptions only remove processors, so up to the first disruptive
   warning the execution is the interrupt-free one: we run that and cut
   it at the earliest warning of a processor that still had unfinished
   segments (a warning on a processor whose segments all completed
   earlier is harmless — every completed segment ends in a checkpoint,
   so its outputs already sit on stable storage). At the cut, exactly
   the segments with [completion <= at] count as completed; in-flight
   work on SURVIVING processors is abandoned too — the replanner
   decides where it re-executes and charges the re-reads. During the
   grace window [at, kill) the warned processor attempts a rescue
   checkpoint of its in-flight segment's completed task prefix; zero
   grace ([kill <= at]) skips the attempt entirely — no store traffic,
   no randomness — so an unannounced revocation is bitwise a plain
   processor death. *)
let cut_at ?store segs records completion intr =
  let warn_of = Hashtbl.create 16 in
  Array.iter
    (fun seg ->
      if not (Hashtbl.mem warn_of seg.processor) then
        Hashtbl.replace warn_of seg.processor (intr.warn seg.processor))
    segs;
  let first = ref None in
  Array.iteri
    (fun i seg ->
      let w = Hashtbl.find warn_of seg.processor in
      if completion.(i) > w then
        match !first with
        | Some (_, at) when at <= w -> ()
        | _ -> first := Some (seg.processor, w))
    segs;
  match !first with
  | None -> None
  | Some (proc, at) ->
      let completed = Array.map (fun c -> c <= at) completion in
      (* gross loss: execution time sunk before the cut into segments
         whose checkpoint never committed (a rescue buys part of it
         back — the caller nets it out) *)
      let lost = ref 0. in
      Array.iteri
        (fun i r ->
          if not completed.(i) then
            List.iter
              (fun a ->
                if a.attempt_start < at then
                  lost := !lost +. (Float.min at a.attempt_end -. a.attempt_start))
              r.attempts)
        records;
      let kill = intr.kill proc in
      let saved =
        match intr.rescue with
        | Some rescue when kill > at -> (
            (* the segment actually mid-attempt on the warned processor
               at the cut (at most one: processors are serial); a
               merely queued segment has nothing to save *)
            let found = ref None in
            Array.iteri
              (fun i seg ->
                if !found = None && seg.processor = proc && not completed.(i) then
                  List.iter
                    (fun a ->
                      if !found = None && a.attempt_start <= at && at < a.attempt_end then
                        found := Some (i, a.attempt_start))
                    records.(i).attempts)
              segs;
            match !found with
            | None -> None
            | Some (i, astart) ->
                let info = rescue.(i) in
                let elapsed = at -. astart in
                let tasks = Array.length info.task_durs in
                let rec prefix k acc =
                  if k < tasks && acc +. info.task_durs.(k) <= elapsed then
                    prefix (k + 1) (acc +. info.task_durs.(k))
                  else k
                in
                let k = prefix 0 info.rread in
                if k = 0 then None
                else
                  (* grace races C: the rescue write itself takes
                     [partial_writes.(k-1)] seconds past the warning,
                     and only then can the commit be attempted — both
                     the write span and any store-level delay (outage
                     wait, retries, latency) must fit before the kill *)
                  let pw = info.partial_writes.(k - 1) in
                  if at +. pw > kill then None
                  else
                    match store with
                    | None -> Some { seg = i; tasks = k; handle = None }
                    | Some st -> (
                        (* an [~interrupt] commit: the on-interrupt
                           policy's durable case *)
                        match
                          Store.commit ~interrupt:true st ~seg:i ~write:pw ~at:(at +. pw)
                        with
                        | Ok (commit_at, ck) when commit_at <= kill ->
                            Some { seg = i; tasks = k; handle = Some ck }
                        | Ok _ | Error _ -> None))
        | _ -> None
      in
      Some { proc; at; kill; completed; saved; lost = !lost }

let run ?(start = 0.) ?store ?write ?interrupts segs trace_of_processor =
  let n = Array.length segs in
  let write =
    match (store, write) with
    | None, _ -> [||]
    | Some _, Some w when Array.length w = n -> w
    | Some _, _ -> invalid_arg "Engine.run: a store needs one write span per segment"
  in
  (match interrupts with
  | None -> ()
  | Some intr ->
      Array.iter
        (fun seg ->
          if intr.warn seg.processor <= start then
            invalid_arg "Engine.run: segment on an already-interrupted processor")
        segs;
      Option.iter
        (fun r ->
          if Array.length r <> n then invalid_arg "Engine.run: rescue array size mismatch")
        intr.rescue);
  let completion = Array.make n start in
  let records = Array.make n { seg_index = 0; seg_processor = 0; attempts = [] } in
  let ckpts = match store with None -> [||] | Some _ -> Array.make n None in
  let rev_rollbacks = ref [] in
  let procs = procs ~start segs trace_of_processor in
  let finish = ref start in
  (* [exec i ~now] (re-)executes segment [i] no earlier than [now]:
     waits until every predecessor checkpoint reads back valid
     (cascading rollback when a recovery read finds one corrupt), runs
     the attempt loop over the segment duration, then commits — a
     commit whose backoff policy exhausts loses the memory content and
     reproduces the whole segment. Returns the commit instant. Without
     a store, reads and commits are instantaneous and infallible. *)
  let rec exec i ~now =
    let seg = segs.(i) in
    let ready =
      List.fold_left
        (fun acc p ->
          if p >= i then invalid_arg "Engine.run: segments not topologically ordered";
          ensure p ~now:(Float.max acc completion.(p)))
        now seg.preds
    in
    let free = procs.free.(seg.processor) in
    let tr = trace procs seg.processor in
    let done_at, acc =
      match store with
      | None -> attempt tr seg.duration (Float.max ready free) []
      | Some st ->
          let rec cycle t0 acc =
            let done_at, acc = attempt tr seg.duration t0 acc in
            match Store.commit st ~seg:i ~write:write.(i) ~at:done_at with
            | Ok (commit_at, ck) ->
                ckpts.(i) <- Some ck;
                (commit_at, acc)
            | Error gave_up_at -> cycle (Store.available st gave_up_at) acc
          in
          cycle
            (Store.available st (Float.max ready free))
            (List.rev records.(i).attempts)
    in
    records.(i) <-
      { seg_index = i; seg_processor = seg.processor; attempts = List.rev acc };
    completion.(i) <- done_at;
    procs.free.(seg.processor) <- done_at;
    if done_at > !finish then finish := done_at;
    done_at
  and ensure p ~now =
    match store with
    | None -> now
    | Some st -> (
        match ckpts.(p) with
        | None -> assert false (* topological order: predecessors committed first *)
        | Some ck -> (
            match Store.read st ck ~at:now with
            | Ok ready -> ready
            | Error (Store.Corrupt | Store.Rejected) ->
                (* failed recovery read (all replicas corrupt, or the
                   store invalidated the checkpoint): the recovery line
                   moves back — the producing segment re-executes from
                   ITS last valid inputs, transitively to the workflow
                   inputs if needed *)
                rev_rollbacks := p :: !rev_rollbacks;
                let t = exec p ~now in
                ensure p ~now:t))
  in
  for i = 0 to n - 1 do
    ignore (exec i ~now:start)
  done;
  {
    records;
    finish = !finish;
    ckpts;
    rollbacks = List.rev !rev_rollbacks;
    cut = Option.bind interrupts (cut_at ?store segs records completion);
  }

(* [run]'s storeless, interrupt-free loop over flat state only: the
   same float operations in the same order, so the result is [run]'s
   finish bit for bit, without building one record per attempt. *)
let makespan segs trace_of_processor =
  let n = Array.length segs in
  let completion = Array.make n 0. in
  let procs = procs ~start:0. segs trace_of_processor in
  let rec preds_done i acc = function
    | [] -> acc
    | p :: preds ->
        if p >= i then invalid_arg "Engine.makespan: segments not topologically ordered";
        preds_done i (Float.max acc completion.(p)) preds
  in
  let finish = ref 0. in
  for i = 0 to n - 1 do
    let seg = segs.(i) in
    let ready = preds_done i 0. seg.preds in
    let free = procs.free.(seg.processor) in
    let done_at = retry (trace procs seg.processor) seg.duration (Float.max ready free) in
    completion.(i) <- done_at;
    procs.free.(seg.processor) <- done_at;
    if done_at > !finish then finish := done_at
  done;
  !finish

type summary = { failures : int; wasted_time : float; useful_time : float }

let summarize records =
  let failures = ref 0 and wasted = ref 0. and useful = ref 0. in
  Array.iter
    (fun r ->
      List.iter
        (fun a ->
          let span = a.attempt_end -. a.attempt_start in
          if a.failed then begin
            incr failures;
            wasted := !wasted +. span
          end
          else useful := !useful +. span)
        r.attempts)
    records;
  { failures = !failures; wasted_time = !wasted; useful_time = !useful }

let restart_rate_makespan ~wpar ~rate rng =
  if wpar < 0. then invalid_arg "Engine.restart_rate_makespan: negative Wpar";
  if rate < 0. then invalid_arg "Engine.restart_rate_makespan: negative rate";
  if rate <= 0. || wpar = 0. then wpar
  else begin
    let rec go elapsed =
      let gap = Rng.exponential rng ~rate in
      if gap >= wpar then elapsed +. wpar else go (elapsed +. gap)
    in
    go 0.
  end
