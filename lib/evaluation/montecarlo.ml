module Rng = Ckpt_prob.Rng
module Stats = Ckpt_prob.Stats
module Deadline = Ckpt_resilience.Deadline
module Pool = Ckpt_parallel.Pool

(* Trials are processed in fixed chunks. A chunk is the unit of work
   distribution, of deadline checking (the clock is read once per
   chunk, cheap enough to keep the overshoot small, coarse enough that
   it does not show in the profile) and of statistics merging: each
   chunk's Welford accumulator depends only on (seed, chunk index), and
   the completed prefix is folded in chunk order, so the result is
   bitwise identical for any [jobs] value. *)
let chunk_trials = 128

let sample_chunks ?(trials = 10_000) ?(seed = 1) ?(deadline = Deadline.never) ?(jobs = 1) dag =
  if trials < 1 then invalid_arg "Montecarlo.estimate: trials < 1";
  if jobs < 1 then invalid_arg "Montecarlo.estimate: jobs < 1";
  let compiled = Prob_dag.compile dag in
  let nchunks = (trials + chunk_trials - 1) / chunk_trials in
  Pool.map_shared ~jobs nchunks (fun c ->
      (* the first chunk always completes so a blown deadline still
         returns well-defined statistics; afterwards a chunk yields
         nothing once the budget is gone *)
      if c > 0 && Deadline.expired deadline then None
      else begin
        let s = Prob_dag.sampler compiled in
        let st = Stats.create () in
        let hi = min trials ((c + 1) * chunk_trials) in
        for trial = c * chunk_trials to hi - 1 do
          Stats.add st (Prob_dag.sample_with s (Rng.for_trial ~seed trial))
        done;
        Some st
      end)

let estimate_with_stats ?trials ?seed ?deadline ?jobs dag =
  let partial = sample_chunks ?trials ?seed ?deadline ?jobs dag in
  (* fold the completed prefix in chunk order: deterministic and
     jobs-invariant (chunks finished beyond a deadline-induced gap are
     discarded, mirroring the sequential cut-off) *)
  let acc = Stats.create () in
  (try
     Array.iter
       (function Some st -> Stats.merge_into acc st | None -> raise Exit)
       partial
   with Exit -> ());
  acc

let estimate ?trials ?seed ?deadline ?jobs dag =
  Stats.mean (estimate_with_stats ?trials ?seed ?deadline ?jobs dag)
