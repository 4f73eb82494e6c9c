(* Hand-rolled resident domain pool (domainslib is not available in
   this environment): worker domains are spawned once, park on a
   condition variable between batches, and every batch clamps its
   width to the machine's core count. On a single-core box the clamp
   degrades every "parallel" call to the inline sequential path, which
   is exactly right: spawning domains there buys only oversubscription
   (every minor GC synchronises all domains contending for the one
   core). Usually reached through the process-wide [shared] pool and
   its [run_shared] / [map_shared] wrappers. *)

let available_jobs () = max 1 (Domain.recommended_domain_count ())

let effective_jobs jobs = max 1 (min jobs (available_jobs ()))

(* True while the current domain is executing a pool batch body: a
   nested [run_in]/[run_shared]/[map_shared] from inside a worker runs
   inline instead of deadlocking on (or oversubscribing) the pool. *)
let inside_batch = Domain.DLS.new_key (fun () -> false)

type t = {
  size : int;  (* workers per batch at most, the caller included *)
  mutable domains : unit Domain.t list;
  submit : Mutex.t;  (* serialises whole batches: held for a batch's full extent *)
  m : Mutex.t;
  work : Condition.t;  (* a new batch was published, or [stopping] *)
  finished : Condition.t;  (* a helper finished its share of the batch *)
  mutable batch : int;  (* generation counter; helpers run each batch once *)
  mutable body : (worker:int -> unit) option;
  mutable width : int;  (* helpers with index >= width sit this batch out *)
  mutable active : int;  (* helpers still inside the current batch *)
  mutable stopping : bool;
  failed : (exn * Printexc.raw_backtrace) option Atomic.t;
}

let size t = t.size

let guarded t body worker =
  Domain.DLS.set inside_batch true;
  (try body ~worker
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     ignore (Atomic.compare_and_set t.failed None (Some (e, bt))));
  Domain.DLS.set inside_batch false

let rec helper t i seen =
  Mutex.lock t.m;
  while t.batch = seen && not t.stopping do
    Condition.wait t.work t.m
  done;
  if t.stopping then Mutex.unlock t.m
  else begin
    let gen = t.batch in
    let body = t.body and width = t.width in
    Mutex.unlock t.m;
    (match body with Some body when i < width -> guarded t body i | _ -> ());
    Mutex.lock t.m;
    t.active <- t.active - 1;
    if t.active = 0 then Condition.broadcast t.finished;
    Mutex.unlock t.m;
    helper t i gen
  end

let create ?jobs () =
  let size =
    match jobs with
    | None -> available_jobs ()
    | Some j when j >= 1 -> j
    | Some _ -> invalid_arg "Pool.create: jobs < 1"
  in
  let t =
    {
      size;
      domains = [];
      submit = Mutex.create ();
      m = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      batch = 0;
      body = None;
      width = 0;
      active = 0;
      stopping = false;
      failed = Atomic.make None;
    }
  in
  t.domains <- List.init (size - 1) (fun i -> Domain.spawn (fun () -> helper t (i + 1) 0));
  t

let run_in t ~jobs body =
  if jobs < 1 then invalid_arg "Pool.run_in: jobs < 1";
  let jobs = min (effective_jobs jobs) t.size in
  if jobs = 1 || Domain.DLS.get inside_batch then body ~worker:0
  else begin
    (* one batch at a time: [submit] is held for the batch's whole
       extent, so several domains (daemon connection handlers, the
       orchestrating CLI) can share one pool — late submitters queue
       here instead of corrupting the published batch *)
    Mutex.lock t.submit;
    Atomic.set t.failed None;
    Mutex.lock t.m;
    if t.stopping then begin
      Mutex.unlock t.m;
      Mutex.unlock t.submit;
      invalid_arg "Pool.run_in: pool is shut down"
    end;
    t.body <- Some body;
    t.width <- jobs;
    t.active <- t.size - 1;
    t.batch <- t.batch + 1;
    Condition.broadcast t.work;
    Mutex.unlock t.m;
    guarded t body 0;
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
  end

let map_in t ~jobs n f =
  if jobs < 1 then invalid_arg "Pool.map_in: jobs < 1";
  if n < 0 then invalid_arg "Pool.map_in: negative length";
  let jobs = min (min (effective_jobs jobs) t.size) (max 1 n) in
  if jobs = 1 || n <= 1 || Domain.DLS.get inside_batch then Array.init n f
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let stop = Atomic.make false in
    run_in t ~jobs (fun ~worker:_ ->
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
  end

let shutdown t =
  Mutex.lock t.m;
  let already = t.stopping in
  t.stopping <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.m;
  if not already then begin
    List.iter Domain.join t.domains;
    t.domains <- []
  end

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

let run_shared ~jobs body =
  if jobs < 1 then invalid_arg "Pool.run_shared: jobs < 1";
  if effective_jobs jobs = 1 || Domain.DLS.get inside_batch then body ~worker:0
  else run_in (shared ()) ~jobs body

let map_shared ~jobs n f =
  if jobs < 1 then invalid_arg "Pool.map_shared: jobs < 1";
  if n < 0 then invalid_arg "Pool.map_shared: negative length";
  if effective_jobs jobs = 1 || n <= 1 || Domain.DLS.get inside_batch then Array.init n f
  else map_in (shared ()) ~jobs n f
