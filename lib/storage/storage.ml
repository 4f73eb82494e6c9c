module Rng = Ckpt_prob.Rng
module Retry = Ckpt_resilience.Retry

type config = {
  commit_fail_prob : float;
  corrupt_prob : float;
  storage_lambda : float;
  outage_rate : float;
  outage_mean : float;
  replicas : int;
}

let default =
  {
    commit_fail_prob = 0.;
    corrupt_prob = 0.;
    storage_lambda = 0.;
    outage_rate = 0.;
    outage_mean = 0.;
    replicas = 1;
  }

let reliable c =
  c.commit_fail_prob <= 0. && c.corrupt_prob <= 0. && c.storage_lambda <= 0.
  && c.outage_rate <= 0.

(* written so that NaN fails every range check *)
let validate c =
  if not (c.commit_fail_prob >= 0. && c.commit_fail_prob < 1.) then
    invalid_arg "Storage: commit_fail_prob outside [0, 1)";
  if not (c.corrupt_prob >= 0. && c.corrupt_prob < 1.) then
    invalid_arg "Storage: corrupt_prob outside [0, 1)";
  if not (c.storage_lambda >= 0.) then invalid_arg "Storage: negative storage_lambda";
  if not (c.outage_rate >= 0.) then invalid_arg "Storage: negative outage_rate";
  if c.outage_rate > 0. && not (c.outage_mean > 0.) then
    invalid_arg "Storage: outage_rate > 0 needs a positive outage_mean";
  if c.replicas < 1 then invalid_arg "Storage: replicas < 1"

type ckpt = {
  seg : int;
  corrupt_from : float array;
      (* per replica: the instant from which the copy reads back corrupt
         ([infinity] = never, the commit instant = latent from birth). The
         empty array means every replica is eternally valid — the
         no-draw fast path of a reliable configuration. *)
}

type t = {
  config : config;
  rng : Rng.t;
  inject : string -> unit;
  (* outage intervals [(start, stop)], materialised lazily in
     increasing time (oldest first); [frontier] is the start instant of
     the next interval beyond the materialised list *)
  mutable outages : (float * float) list;
  mutable frontier : float;
  mutable commits : int;
  mutable commit_retries : int;
  mutable commit_exhausted : int;
  mutable reads : int;
  mutable corrupt_reads : int;
}

let create ?(inject = fun _ -> ()) config rng =
  validate config;
  let frontier =
    if config.outage_rate > 0. then Rng.exponential rng ~rate:config.outage_rate
    else infinity
  in
  {
    config;
    rng;
    inject;
    outages = [];
    frontier;
    commits = 0;
    commit_retries = 0;
    commit_exhausted = 0;
    reads = 0;
    corrupt_reads = 0;
  }

let config t = t.config

(* Earliest instant >= [at] at which stable storage is reachable.
   Outage starts follow a Poisson process at [outage_rate]; each outage
   lasts an exponential time of mean [outage_mean] (the next start is
   drawn from the previous stop). Queries need not be monotone — the
   engine revisits earlier instants while cascading a rollback — so the
   intervals are kept, in increasing order, once drawn. *)
let available t at =
  if t.config.outage_rate <= 0. then at
  else begin
    while t.frontier <= at do
      let start = t.frontier in
      let stop = start +. Rng.exponential t.rng ~rate:(1. /. t.config.outage_mean) in
      t.outages <- t.outages @ [ (start, stop) ];
      t.frontier <- stop +. Rng.exponential t.rng ~rate:t.config.outage_rate
    done;
    List.fold_left
      (fun acc (start, stop) -> if acc >= start && acc < stop then stop else acc)
      at t.outages
  end

(* Draw the corruption layout of a fresh checkpoint: each of the k
   replica copies is latently corrupt from birth with probability
   [corrupt_prob], and otherwise (when [storage_lambda > 0]) rots at an
   exponential instant after landing on disk. Reliable configurations
   draw nothing. *)
let fresh_ckpt t ~seg ~at =
  let c = t.config in
  if c.corrupt_prob <= 0. && c.storage_lambda <= 0. then
    { seg; corrupt_from = [||] }
  else begin
    let corrupt_from = Array.make c.replicas infinity in
    for r = 0 to c.replicas - 1 do
      if c.corrupt_prob > 0. && Rng.uniform t.rng < c.corrupt_prob then
        corrupt_from.(r) <- at
      else if c.storage_lambda > 0. then
        corrupt_from.(r) <- at +. Rng.exponential t.rng ~rate:c.storage_lambda
    done;
    { seg; corrupt_from }
  end

let commit_attempt_fails t =
  t.config.commit_fail_prob > 0. && Rng.uniform t.rng < t.config.commit_fail_prob

(* the backoff between detected-commit-failure retries: {!Retry.default}'s
   delays, without jitter *)
let max_attempts = Retry.default.Retry.max_attempts
let backoff = Retry.schedule Retry.default

let commit t ~seg ~write ~at =
  t.inject "storage commit";
  t.commits <- t.commits + 1;
  (* each attempt either commits, or fails detectably and rewrites the
     replica set, or exhausts the policy. The first write span is
     already part of the caller's segment duration; only retried
     writes charge [write] again, after their backoff delay (and any
     storage outage) has passed *)
  let rec go attempt at =
    if not (commit_attempt_fails t) then Ok (at, fresh_ckpt t ~seg ~at)
    else if attempt >= max_attempts then begin
      t.commit_exhausted <- t.commit_exhausted + 1;
      Error at
    end
    else begin
      t.commit_retries <- t.commit_retries + 1;
      go (attempt + 1) (available t (at +. backoff.(attempt - 1)) +. write)
    end
  in
  go 1 at

let seg_of ck = ck.seg

let valid_at ck ~at =
  ck.corrupt_from = [||] || Array.exists (fun c -> c > at) ck.corrupt_from

let read t ck ~at =
  t.inject "storage read";
  t.reads <- t.reads + 1;
  if valid_at ck ~at then true
  else begin
    t.corrupt_reads <- t.corrupt_reads + 1;
    false
  end

type stats = {
  commits : int;
  commit_retries : int;
  commit_exhausted : int;
  reads : int;
  corrupt_reads : int;
}

let stats (t : t) =
  {
    commits = t.commits;
    commit_retries = t.commit_retries;
    commit_exhausted = t.commit_exhausted;
    reads = t.reads;
    corrupt_reads = t.corrupt_reads;
  }
