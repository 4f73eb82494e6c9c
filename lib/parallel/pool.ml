(* Hand-rolled resident domain pool (domainslib is not available in
   this environment): worker domains are spawned once, park on a
   condition variable between batches, and every batch clamps its
   width to the machine's core count. On a single-core box the clamp
   degrades every "parallel" call to the inline sequential path, which
   is exactly right: spawning domains there buys only oversubscription
   (every minor GC synchronises all domains contending for the one
   core). Reached through [map_shared], which runs every batch on the
   one process-wide pool. *)

let available_jobs () = max 1 (Domain.recommended_domain_count ())

let effective_jobs jobs = max 1 (min jobs (available_jobs ()))

type t = {
  size : int;  (* workers per batch at most, the caller included *)
  submit : Mutex.t;  (* held by the batch that owns the pool, for its full extent *)
  m : Mutex.t;
  work : Condition.t;  (* a new batch was published *)
  finished : Condition.t;  (* a helper finished its share of the batch *)
  mutable batch : int;  (* generation counter; helpers run each batch once *)
  mutable body : (unit -> unit) option;
  mutable width : int;  (* helpers with index >= width sit this batch out *)
  mutable active : int;  (* helpers still inside the current batch *)
  failed : (exn * Printexc.raw_backtrace) option Atomic.t;
}

let guarded t body =
  try body ()
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    ignore (Atomic.compare_and_set t.failed None (Some (e, bt)))

let rec helper t i seen =
  Mutex.lock t.m;
  while t.batch = seen do
    Condition.wait t.work t.m
  done;
  let gen = t.batch in
  let body = t.body and width = t.width in
  Mutex.unlock t.m;
  (match body with Some body when i < width -> guarded t body | _ -> ());
  Mutex.lock t.m;
  t.active <- t.active - 1;
  if t.active = 0 then Condition.broadcast t.finished;
  Mutex.unlock t.m;
  helper t i gen

(* helpers live for the rest of the process, parked between batches *)
let create () =
  let size = available_jobs () in
  let t =
    {
      size;
      submit = Mutex.create ();
      m = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      batch = 0;
      body = None;
      width = 0;
      active = 0;
      failed = Atomic.make None;
    }
  in
  for i = 1 to size - 1 do
    ignore (Domain.spawn (fun () -> helper t i 0))
  done;
  t

(* runs [body] on [jobs] domains of [t], the caller included, and
   returns once all are done, re-raising the first exception. The
   caller holds [submit]; it is released before the re-raise *)
let run t ~jobs body =
  Atomic.set t.failed None;
  Mutex.lock t.m;
  t.body <- Some body;
  t.width <- jobs;
  t.active <- t.size - 1;
  t.batch <- t.batch + 1;
  Condition.broadcast t.work;
  Mutex.unlock t.m;
  guarded t body;
  Mutex.lock t.m;
  while t.active > 0 do
    Condition.wait t.finished t.m
  done;
  t.body <- None;
  Mutex.unlock t.m;
  Mutex.unlock t.submit;
  match Atomic.get t.failed with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* --- the process-wide pool ---------------------------------------- *)

let shared_lock = Mutex.create ()
let shared_pool = ref None

let shared () =
  Mutex.lock shared_lock;
  let t =
    match !shared_pool with
    | Some t -> t
    | None ->
        let t = create () in
        shared_pool := Some t;
        t
  in
  Mutex.unlock shared_lock;
  t

let map_shared ~jobs n f =
  if jobs < 1 then invalid_arg "Pool.map_shared: jobs < 1";
  if n < 0 then invalid_arg "Pool.map_shared: negative length";
  let jobs = min (effective_jobs jobs) n in
  let pool = if jobs <= 1 then None else Some (shared ()) in
  (* a pool held by another batch — the one this call is nested in, or
     one from another domain, such as a second serve connection — is
     busy: compute on the caller rather than wait for it *)
  match pool with
  | Some pool when Mutex.try_lock pool.submit ->
      let results = Array.make n None in
      let next = Atomic.make 0 in
      let stop = Atomic.make false in
      run pool ~jobs (fun () ->
          let rec loop () =
            let i = Atomic.fetch_and_add next 1 in
            if i < n && not (Atomic.get stop) then begin
              (try results.(i) <- Some (f i)
               with e ->
                 Atomic.set stop true;
                 raise e);
              loop ()
            end
          in
          loop ());
      Array.map (function Some v -> v | None -> assert false) results
  | _ -> Array.init n f

let map_chunks ~jobs ~chunk ~stop n f =
  if chunk < 1 then invalid_arg "Pool.map_chunks: chunk < 1";
  if n < 0 then invalid_arg "Pool.map_chunks: negative length";
  let nchunks = (n + chunk - 1) / chunk in
  let results =
    map_shared ~jobs nchunks (fun c ->
        (* the first chunk always runs, so a caller stopped at once
           still gets a well-defined result *)
        if c > 0 && stop () then None
        else Some (f ~lo:(c * chunk) ~hi:(min n ((c + 1) * chunk))))
  in
  (* the completed prefix, in chunk order: deterministic for any [jobs]
     (chunks finished beyond a stopped one are discarded) *)
  let rec prefix i = if i < nchunks && Option.is_some results.(i) then prefix (i + 1) else i in
  Array.init (prefix 0) (fun i -> Option.get results.(i))
