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

let estimate_with_stats ?(trials = 10_000) ?(seed = 1) ?(deadline = Deadline.never) ?(jobs = 1)
    dag =
  if trials < 1 then invalid_arg "Montecarlo.estimate: trials < 1";
  if jobs < 1 then invalid_arg "Montecarlo.estimate: jobs < 1";
  let compiled = Prob_dag.compile dag in
  let chunks =
    Pool.map_chunks ~jobs ~chunk:chunk_trials
      ~stop:(fun () -> Deadline.expired deadline)
      trials
      (fun ~lo ~hi ->
        let s = Prob_dag.sampler compiled in
        let st = Stats.create () in
        for trial = lo to hi - 1 do
          Stats.add st (Prob_dag.sample_with s (Rng.for_trial ~seed trial))
        done;
        st)
  in
  (* fold the completed prefix in chunk order: deterministic and
     jobs-invariant *)
  let acc = Stats.create () in
  Array.iter (Stats.merge_into acc) chunks;
  acc

let estimate ?trials ?seed dag = Stats.mean (estimate_with_stats ?trials ?seed dag)
