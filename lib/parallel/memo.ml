(* One mutex-guarded table that computes each key once. The lookup
   that misses a key claims it with a [Pending] entry and computes it
   outside the lock; settling the entry keeps the value ([Ready]) or
   frees the key ([Failed]) and wakes every waiter, which sleep on one
   condition broadcast at each settle. Each lookup stamps its entry
   with a logical clock, the recency a cap evicts by. *)

type 'v state = Pending | Ready of 'v | Failed

type 'v entry = { mutable state : 'v state; mutable used : int }

type ('k, 'v) t = {
  lock : Mutex.t;
  settled : Condition.t;  (* some entry left [Pending] *)
  table : ('k, 'v entry) Hashtbl.t;
  cap : int;  (* settled entries kept at most; [max_int] when unbounded *)
  mutable ready : int;  (* [Ready] entries in [table] *)
  mutable clock : int;
  mutable n_hits : int;
  mutable n_misses : int;
  mutable n_evictions : int;
}

type stats = { hits : int; misses : int; evictions : int }

let create ?cap () =
  let cap =
    match cap with
    | None -> max_int
    | Some c when c < 1 -> invalid_arg "Memo.create: cap < 1"
    | Some c -> c
  in
  {
    lock = Mutex.create ();
    settled = Condition.create ();
    table = Hashtbl.create 64;
    cap;
    ready = 0;
    clock = 0;
    n_hits = 0;
    n_misses = 0;
    n_evictions = 0;
  }

(* the helpers down to [await] run with [t.lock] held *)

let stamp t e =
  t.clock <- t.clock + 1;
  e.used <- t.clock

let claim t key =
  let e = { state = Pending; used = 0 } in
  stamp t e;
  Hashtbl.replace t.table key e;
  t.n_misses <- t.n_misses + 1;
  e

(* drop the settled entry of oldest lookup until the cap holds; the
   scan is O(size) but runs only on an over-cap settle *)
let evict_to_cap t =
  while t.ready > t.cap do
    let oldest =
      Hashtbl.fold
        (fun key e acc ->
          match (e.state, acc) with
          | Ready _, Some (_, o) when o.used <= e.used -> acc
          | Ready _, _ -> Some (key, e)
          | _ -> acc)
        t.table None
    in
    match oldest with
    | Some (key, _) ->
        Hashtbl.remove t.table key;
        t.ready <- t.ready - 1;
        t.n_evictions <- t.n_evictions + 1
    | None -> assert false (* [ready] counts the [Ready] entries of [table] *)
  done

(* the value of an entry, once settled: [None] when its compute raised *)
let rec await t e =
  match e.state with
  | Pending ->
      Condition.wait t.settled t.lock;
      await t e
  | Ready v -> Some v
  | Failed -> None

let settle t key e state =
  Mutex.lock t.lock;
  e.state <- state;
  (match state with
  | Ready _ ->
      t.ready <- t.ready + 1;
      evict_to_cap t
  | Pending | Failed -> Hashtbl.remove t.table key);
  Condition.broadcast t.settled;
  Mutex.unlock t.lock

(* compute the entry this caller claimed for [key] *)
let fill t key e f =
  match f () with
  | v ->
      settle t key e (Ready v);
      v
  | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      settle t key e Failed;
      Printexc.raise_with_backtrace exn bt

let rec get t key f =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.table key with
  | Some ({ state = Ready v; _ } as e) ->
      stamp t e;
      t.n_hits <- t.n_hits + 1;
      Mutex.unlock t.lock;
      v
  | Some e -> (
      stamp t e;
      let v = await t e in
      if Option.is_some v then t.n_hits <- t.n_hits + 1;
      Mutex.unlock t.lock;
      match v with Some v -> v | None -> get t key f)
  | None ->
      let e = claim t key in
      Mutex.unlock t.lock;
      fill t key e f

let get_many t ~jobs keys f =
  (* checked before any claim: a claim left unsettled hangs its waiters *)
  if jobs < 1 then invalid_arg "Memo.get_many: jobs < 1";
  (* look every key up first, in order: the found entries, and the
     ones this call claimed *)
  let looked =
    Mutex.protect t.lock (fun () ->
        Array.map
          (fun key ->
            match Hashtbl.find_opt t.table key with
            | Some e ->
                stamp t e;
                (e, false)
            | None -> (claim t key, true))
          keys)
  in
  let claimed =
    Array.of_list (List.filter (fun i -> snd looked.(i)) (List.init (Array.length keys) Fun.id))
  in
  let failed =
    Pool.map_shared ~jobs (Array.length claimed) (fun j ->
        let i = claimed.(j) in
        match fill t keys.(i) (fst looked.(i)) (fun () -> f i) with
        | _ -> None
        | exception exn -> Some (exn, Printexc.get_raw_backtrace ()))
  in
  Array.iter (Option.iter (fun (exn, bt) -> Printexc.raise_with_backtrace exn bt)) failed;
  Array.mapi
    (fun i (e, mine) ->
      let v =
        Mutex.protect t.lock (fun () ->
            let v = await t e in
            if (not mine) && Option.is_some v then t.n_hits <- t.n_hits + 1;
            v)
      in
      match v with
      | Some v -> (v, not mine)
      | None -> (get t keys.(i) (fun () -> f i), false))
    looked

let find t key =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some ({ state = Ready v; _ } as e) ->
          stamp t e;
          Some v
      | _ -> None)

let fold f t acc =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold
        (fun _ e acc -> match e.state with Ready v -> f v acc | Pending | Failed -> acc)
        t.table acc)

let stats t =
  Mutex.protect t.lock (fun () ->
      { hits = t.n_hits; misses = t.n_misses; evictions = t.n_evictions })
