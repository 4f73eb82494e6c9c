(* Request-level caching for the planning service: one process serves
   many plan/evaluate requests (the [ckptwf serve] daemon, the daemon
   batch bench), and most traffic repeats a bounded set of workflow
   configurations. Prepared setups (recognition + schedule, with their
   compiled CSR views) and finished plans are memoised under
   caller-chosen string keys, each table a compute-once
   [Ckpt_parallel.Memo] under the one optional LRU cap. *)

module Memo = Ckpt_parallel.Memo

type stats = {
  setup_hits : int;
  setup_misses : int;
  setup_evictions : int;
  plan_hits : int;
  plan_misses : int;
  plan_evictions : int;
  plan_races : int;
}

type t = {
  setups : (string, Pipeline.setup) Memo.t;
  plans : (string, Strategy.plan) Memo.t;
  plan_races : int Atomic.t;
}

let create ?cap () =
  { setups = Memo.create ?cap (); plans = Memo.create ?cap (); plan_races = Atomic.make 0 }

let setup t ~key f = Memo.get t.setups key f
let plan t ~key f = Memo.get t.plans key f
let plans t ~jobs keys f = Memo.get_many t.plans ~jobs keys f
let find_plan t ~key = Memo.find t.plans key

(* planning is deterministic, so an incumbent under the same key must
   be a structurally identical plan; the assert guards exactly that
   invariant in debug builds (dev profile keeps asserts, release drops
   them) *)
let same_plan (a : Strategy.plan) (b : Strategy.plan) =
  a.Strategy.kind = b.Strategy.kind
  && a.Strategy.checkpoint_count = b.Strategy.checkpoint_count
  && a.Strategy.replicas = b.Strategy.replicas
  && Strategy.checkpoint_positions a = Strategy.checkpoint_positions b

let store_plan t ~key plan =
  let v = Memo.get t.plans key (fun () -> plan) in
  if v != plan then begin
    Atomic.incr t.plan_races;
    assert (same_plan v plan)
  end;
  v

let stats t =
  let s = Memo.stats t.setups and p = Memo.stats t.plans in
  {
    setup_hits = s.Memo.hits;
    setup_misses = s.Memo.misses;
    setup_evictions = s.Memo.evictions;
    plan_hits = p.Memo.hits;
    plan_misses = p.Memo.misses;
    plan_evictions = p.Memo.evictions;
    plan_races = Atomic.get t.plan_races;
  }
