(* Ckpt_parallel.Memo's contract: each key is computed once across
   domains, a lookup that finds its key in flight waits and counts a
   hit, a compute that raises frees its key, and a cap keeps at most
   that many settled entries, evicting the one looked up longest ago. *)

module Memo = Ckpt_parallel.Memo

let count_settled t = Memo.fold (fun _ n -> n + 1) t 0

(* 4 domains over overlapping keys: each key's compute runs once,
   misses equal the distinct keys and every other lookup hits *)
let test_compute_once_across_domains () =
  let t = Memo.create () in
  let keys = 6 and domains = 4 and rounds = 30 in
  let computes = Array.init keys (fun _ -> Atomic.make 0) in
  let go = Atomic.make false in
  let worker d () =
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    for r = 0 to rounds - 1 do
      let k = (d + r) mod keys in
      let v =
        Memo.get t k (fun () ->
            Atomic.incr computes.(k);
            (* keep the key in flight while the other domains reach it *)
            Unix.sleepf 0.002;
            k * 10)
      in
      if v <> k * 10 then Alcotest.failf "domain %d read %d under key %d" d v k
    done
  in
  let spawned = List.init (domains - 1) (fun d -> Domain.spawn (worker (d + 1))) in
  Atomic.set go true;
  worker 0 ();
  List.iter Domain.join spawned;
  Array.iteri
    (fun k c -> Alcotest.(check int) (Printf.sprintf "key %d computed once" k) 1 (Atomic.get c))
    computes;
  let s = Memo.stats t in
  Alcotest.(check int) "misses = distinct keys" keys s.Memo.misses;
  Alcotest.(check int) "hits = lookups - misses" ((domains * rounds) - keys) s.Memo.hits;
  Alcotest.(check int) "no evictions unbounded" 0 s.Memo.evictions

exception Boom

(* a compute that raises frees its key: the raising caller sees the
   exception, a domain waiting on the key computes it afresh, and a
   later lookup finds that value *)
let test_raise_frees_key () =
  let t = Memo.create () in
  let in_flight = Atomic.make false in
  let failer =
    Domain.spawn (fun () ->
        match
          Memo.get t "k" (fun () ->
              Atomic.set in_flight true;
              Unix.sleepf 0.05;
              raise Boom)
        with
        | _ -> false
        | exception Boom -> true)
  in
  while not (Atomic.get in_flight) do
    Domain.cpu_relax ()
  done;
  let recomputed = ref 0 in
  let v =
    Memo.get t "k" (fun () ->
        incr recomputed;
        42)
  in
  Alcotest.(check bool) "the raising caller got its exception" true (Domain.join failer);
  Alcotest.(check int) "the waiter recomputed the key" 42 v;
  Alcotest.(check int) "once" 1 !recomputed;
  Alcotest.(check int) "a later lookup hits" 42
    (Memo.get t "k" (fun () -> Alcotest.fail "recomputed"));
  (* on one domain too: the raise leaves nothing behind *)
  (try ignore (Memo.get t "x" (fun () -> raise Boom)) with Boom -> ());
  Alcotest.(check (option int)) "freed" None (Memo.find t "x");
  Alcotest.(check int) "a later lookup computes" 7 (Memo.get t "x" (fun () -> 7));
  let s = Memo.stats t in
  Alcotest.(check (pair int int)) "misses count computes, hits count values read" (4, 1)
    (s.Memo.misses, s.Memo.hits)

(* the order of [service › LRU evicts least recently used]: a lookup
   refreshes an entry, so the one looked up longest ago goes first *)
let test_lru_order () =
  let t = Memo.create ~cap:2 () in
  ignore (Memo.get t "a" (fun () -> 1));
  ignore (Memo.get t "b" (fun () -> 2));
  Alcotest.(check (option int)) "a hits" (Some 1) (Memo.find t "a");
  ignore (Memo.get t "c" (fun () -> 3));
  Alcotest.(check int) "one eviction" 1 (Memo.stats t).Memo.evictions;
  Alcotest.(check (option int)) "a survived (recently used)" (Some 1) (Memo.find t "a");
  Alcotest.(check (option int)) "b evicted (least recently used)" None (Memo.find t "b");
  Alcotest.(check (option int)) "c present" (Some 3) (Memo.find t "c");
  Alcotest.check_raises "cap < 1" (Invalid_argument "Memo.create: cap < 1") (fun () ->
      ignore (Memo.create ~cap:0 ()))

(* 4 domains over 10 keys through a cap of 3: no domain ever sees more
   than 3 settled entries, and every miss not still cached was evicted *)
let test_cap_under_domains () =
  let cap = 3 in
  let t = Memo.create ~cap () in
  let domains = 4 and rounds = 40 in
  let worker d () =
    for r = 0 to rounds - 1 do
      let k = ((d * 7) + (r * 3)) mod 10 in
      ignore (Memo.get t k (fun () -> k));
      let live = count_settled t in
      if live > cap then Alcotest.failf "domain %d saw %d settled entries" d live
    done
  in
  let spawned = List.init (domains - 1) (fun d -> Domain.spawn (worker (d + 1))) in
  worker 0 ();
  List.iter Domain.join spawned;
  let s = Memo.stats t in
  Alcotest.(check int) "every lookup counted" (domains * rounds) (s.Memo.hits + s.Memo.misses);
  Alcotest.(check int) "settled = cap" cap (count_settled t);
  Alcotest.(check int) "evictions = misses - settled" (s.Memo.misses - cap) s.Memo.evictions

(* [get_many] counts like one [get] per key in index order: a repeat
   hits, and what a cap leaves, the hit flags and the counters are the
   same at any [jobs] *)
let test_get_many_jobs_invariant () =
  let run jobs =
    let t = Memo.create ~cap:2 () in
    ignore (Memo.get t "a" (fun () -> "A"));
    let got =
      Memo.get_many t ~jobs [| "b"; "a"; "c"; "b"; "d" |] (fun i ->
          Unix.sleepf 0.001;
          [| "B"; "-"; "C"; "-"; "D" |].(i))
    in
    let s = Memo.stats t in
    ( got,
      (s.Memo.hits, s.Memo.misses, s.Memo.evictions),
      List.map (Memo.find t) [ "a"; "b"; "c"; "d" ] )
  in
  let got, counts, left = run 1 in
  Alcotest.(check (array (pair string bool))) "values and hit flags"
    [| ("B", false); ("A", true); ("C", false); ("B", true); ("D", false) |]
    got;
  Alcotest.(check (triple int int int)) "hits, misses, evictions" (2, 4, 2) counts;
  Alcotest.(check (list (option string))) "the two latest lookups stay"
    [ None; Some "B"; None; Some "D" ] left;
  let got4, counts4, left4 = run 4 in
  Alcotest.(check (array (pair string bool))) "jobs 4: values and hit flags" got got4;
  Alcotest.(check (triple int int int)) "jobs 4: counters" counts counts4;
  Alcotest.(check (list (option string))) "jobs 4: what the cap leaves" left left4

(* a raising compute inside [get_many] settles the batch's other keys
   and frees its own *)
let test_get_many_raise () =
  let t = Memo.create () in
  (match
     Memo.get_many t ~jobs:4 [| 1; 2; 3 |] (fun i -> if i = 1 then raise Boom else i * 10)
   with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom -> ());
  Alcotest.(check (list (option int))) "others settled, the raiser freed"
    [ Some 0; None; Some 20 ]
    (List.map (Memo.find t) [ 1; 2; 3 ])

let suite =
  [
    Alcotest.test_case "compute once across 4 domains" `Quick test_compute_once_across_domains;
    Alcotest.test_case "a raising compute frees its key" `Quick test_raise_frees_key;
    Alcotest.test_case "LRU evicts least recently used" `Quick test_lru_order;
    Alcotest.test_case "cap holds under 4 domains" `Quick test_cap_under_domains;
    Alcotest.test_case "get_many counts alike at any jobs" `Quick test_get_many_jobs_invariant;
    Alcotest.test_case "get_many settles around a raise" `Quick test_get_many_raise;
  ]
