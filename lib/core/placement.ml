module Dag = Ckpt_dag.Dag
module Platform = Ckpt_platform.Platform

type segment = {
  chain : int;
  first : int;
  last : int;
  read : float;
  work : float;
  write : float;
}

(* k-way checkpoint replication (storage-fault extension): a commit
   writes every escaping file k times, so C is priced at k·C — the
   recovery-read failure probability drops accordingly (see
   Ckpt_storage). k = 1 leaves the bytes untouched, keeping existing
   plans bitwise identical. *)
let scale_replicas replicas bytes =
  if replicas > 1 then float_of_int replicas *. bytes else bytes

(* Speed of a superchain's processor; unsped platforms answer 1
   without an index check (processor ids in unit tests may exceed the
   platform, which segment costing historically tolerated). *)
let chain_speed platform proc =
  if Platform.uniform_speed platform then 1. else Platform.speed_of platform proc

let first_order ~lambda s =
  let pfail = Float.min 1. (lambda *. s) in
  ((1. -. pfail) *. s) +. (pfail *. 1.5 *. s)

let expected_time ~lambda seg = first_order ~lambda (seg.read +. seg.work +. seg.write)

(* A file a segment task produces escapes the segment iff its consumer
   lies outside it: on another superchain, or later in this one. *)
let consumer_outside sc ~last m =
  (not (Superchain.mem sc m)) || Superchain.position sc m > last

(* A superchain flattened position by position: every task's weight
   and initial inputs, and its out- and in-edges as the file, the
   file's size and the position of the edge's other end. Position
   [k]'s inputs sit at [inp_off.(k) .. inp_off.(k+1) - 1], its
   out-edges at [out_off.(k) .. out_off.(k+1) - 1] and its in-edges at
   [in_off.(k) .. in_off.(k+1) - 1], each in Dag order. Immutable once
   built, so one flattening serves any number of cells and domains *)
type flat = {
  dag : Dag.t;
  sc : Superchain.t;
  weight : float array;
  inp_off : int array;
  inp_size : float array;
  out_off : int array;
  out_file : int array;
  out_size : float array;
  consumer : int array;  (* the consumer's position, [max_int] off the superchain *)
  in_off : int array;
  in_file : int array;
  in_size : float array;
  producer : int array;  (* the producer's position, [-1] off the superchain *)
}

(* Preallocated planning scratch, reused across the superchains of one
   DAG: the Algorithm-2 table and the segment pricer read a [flat] and
   nothing else. The per-row Hashtbls of the reference [cost_matrix]
   become epoch-stamped per-file int arrays, the cost matrix a packed
   lower-triangular float array, and the DP runs over caller scratch.
   Every float operation happens in the same order as the references,
   so the costs — and hence the checkpoint sets — are
   bitwise-identical. Not shareable across domains: parallel callers
   use one arena each. *)
type arena = {
  n_files : int;
  read_stamp : int array;
      (* in_read membership per file: [2e] = in the running read set,
         [2e+1] = removed from it, anything older = untouched *)
  mutable read_epoch : int;
  write_stamp : int array;  (* per-(j,i) escaping-file dedup *)
  mutable write_epoch : int;
  pos_stamp : int array;  (* per task: the flatten that set [pos] *)
  pos : int array;  (* per task: its position in the superchain being flattened *)
  mutable pos_epoch : int;
  mutable last : flat option;  (* the last superchain flattened through this arena *)
  mutable tri : float array;
  mutable etime : float array;
  mutable last_ckpt : int array;
}

let arena dag =
  let nf = Dag.n_files dag in
  {
    n_files = nf;
    read_stamp = Array.make (max 1 nf) 0;
    read_epoch = 0;
    write_stamp = Array.make (max 1 nf) 0;
    write_epoch = 0;
    pos_stamp = Array.make (Dag.n_tasks dag) 0;
    pos = Array.make (Dag.n_tasks dag) 0;
    pos_epoch = 0;
    last = None;
    tri = [||];
    etime = [||];
    last_ckpt = [||];
  }

let check_arena a dag =
  if a.n_files <> Dag.n_files dag || Array.length a.pos <> Dag.n_tasks dag then
    invalid_arg "Placement: arena built for another DAG"

(* Store [edges] from index [x] on, the other end of each at its
   task's position when [stamp.(t) = e], else at [off_chain]; the next
   free index *)
let rec store_edges ~file ~size ~other ~stamp ~pos ~e ~off_chain x = function
  | [] -> x
  | (t, (f : Dag.file)) :: rest ->
      file.(x) <- f.Dag.file_id;
      size.(x) <- f.Dag.size;
      other.(x) <- (if stamp.(t) = e then pos.(t) else off_chain);
      store_edges ~file ~size ~other ~stamp ~pos ~e ~off_chain (x + 1) rest

let rec store_sizes a x = function
  | [] -> ()
  | size :: rest ->
      a.(x) <- size;
      store_sizes a (x + 1) rest

(* One pass over the superchain's edges, O(n·d), then one over the
   lists it read to fill exactly sized arrays *)
let flatten a dag sc =
  check_arena a dag;
  let n = Superchain.n_tasks sc in
  a.pos_epoch <- a.pos_epoch + 1;
  let e = a.pos_epoch in
  Array.iteri
    (fun k t ->
      a.pos_stamp.(t) <- e;
      a.pos.(t) <- k)
    sc.Superchain.order;
  let weight = Array.make n 0. and outs = Array.make n [] and ins = Array.make n [] in
  let inp_off = Array.make (n + 1) 0
  and out_off = Array.make (n + 1) 0
  and in_off = Array.make (n + 1) 0 in
  for k = 0 to n - 1 do
    let t = Superchain.task_at sc k in
    weight.(k) <- Dag.weight dag t;
    outs.(k) <- Dag.succs dag t;
    ins.(k) <- Dag.preds dag t;
    inp_off.(k + 1) <- inp_off.(k) + List.length (Dag.inputs dag t);
    out_off.(k + 1) <- out_off.(k) + List.length outs.(k);
    in_off.(k + 1) <- in_off.(k) + List.length ins.(k)
  done;
  let inp_size = Array.make inp_off.(n) 0. in
  let out_file = Array.make out_off.(n) 0
  and out_size = Array.make out_off.(n) 0.
  and consumer = Array.make out_off.(n) 0 in
  let in_file = Array.make in_off.(n) 0
  and in_size = Array.make in_off.(n) 0.
  and producer = Array.make in_off.(n) 0 in
  let stamp = a.pos_stamp and pos = a.pos in
  for k = 0 to n - 1 do
    store_sizes inp_size inp_off.(k) (Dag.inputs dag (Superchain.task_at sc k));
    ignore
      (store_edges ~file:out_file ~size:out_size ~other:consumer ~stamp ~pos ~e
         ~off_chain:max_int out_off.(k) outs.(k));
    ignore
      (store_edges ~file:in_file ~size:in_size ~other:producer ~stamp ~pos ~e ~off_chain:(-1)
         in_off.(k) ins.(k))
  done;
  {
    dag;
    sc;
    weight;
    inp_off;
    inp_size;
    out_off;
    out_file;
    out_size;
    consumer;
    in_off;
    in_file;
    in_size;
    producer;
  }

(* [sc] of [dag] as flattened in [a]: the arena's last flattening when
   it holds [sc], else a fresh one *)
let flat_of a dag sc =
  match a.last with
  | Some f when f.dag == dag && f.sc == sc -> f
  | _ ->
      let f = flatten a dag sc in
      a.last <- Some f;
      f

(* The byte sums of segment [first..last]: per position in ascending
   order, its work, its initial inputs, every distinct file it reads
   from before [first] (or another superchain), then every distinct
   file it writes for a consumer after [last] (or on another
   superchain). R, W and C land at [out.(at)], [out.(at+1)] and
   [out.(at+2)] *)
let segment_bytes a f ~first ~last out at =
  if first < 0 || last >= Array.length f.weight || first > last then
    invalid_arg "Placement.segment_of: bad range";
  check_arena a f.dag;
  let read_bytes = ref 0. and write_bytes = ref 0. and work = ref 0. in
  a.read_epoch <- a.read_epoch + 1;
  let re = 2 * a.read_epoch in
  a.write_epoch <- a.write_epoch + 1;
  let we = a.write_epoch in
  for k = first to last do
    work := !work +. f.weight.(k);
    for x = f.inp_off.(k) to f.inp_off.(k + 1) - 1 do
      read_bytes := !read_bytes +. f.inp_size.(x)
    done;
    for x = f.in_off.(k) to f.in_off.(k + 1) - 1 do
      let file = f.in_file.(x) in
      if f.producer.(x) < first && a.read_stamp.(file) <> re then begin
        a.read_stamp.(file) <- re;
        read_bytes := !read_bytes +. f.in_size.(x)
      end
    done;
    for x = f.out_off.(k) to f.out_off.(k + 1) - 1 do
      let file = f.out_file.(x) in
      if f.consumer.(x) > last && a.write_stamp.(file) <> we then begin
        a.write_stamp.(file) <- we;
        write_bytes := !write_bytes +. f.out_size.(x)
      end
    done
  done;
  out.(at) <- !read_bytes;
  out.(at + 1) <- !work;
  out.(at + 2) <- !write_bytes

let price ?(replicas = 1) platform (sc : Superchain.t) ~first ~last bytes at =
  (* heterogeneous speeds: compute time is weight / speed of the
     superchain's own processor (speed 1 is bitwise the identity) *)
  let speed = chain_speed platform sc.Superchain.processor in
  {
    chain = sc.Superchain.id;
    first;
    last;
    read = Platform.io_time platform bytes.(at);
    work = bytes.(at + 1) /. speed;
    write = Platform.io_time platform (scale_replicas replicas bytes.(at + 2));
  }

let segment_of ?arena:a ?replicas platform dag sc ~first ~last =
  let a = match a with Some a -> a | None -> arena dag in
  let bytes = Array.make 3 0. in
  segment_bytes a (flat_of a dag sc) ~first ~last bytes 0;
  price ?replicas platform sc ~first ~last bytes 0

let ensure_capacity a n =
  let need = Toueg.tri_size n in
  if Array.length a.tri < need then a.tri <- Array.make need 0.;
  if Array.length a.etime < n then begin
    a.etime <- Array.make n 0.;
    a.last_ckpt <- Array.make n (-1)
  end

(* Fill [a.tri] with the packed cost table of the flattened superchain
   [f] (cost of segment [i..j] at [j*(j+1)/2 + i]); the descending-[i]
   sweep per [j] and its in/out file bookkeeping mirror [cost_matrix]
   line for line *)
let fill_cost_tri ?(replicas = 1) a platform f =
  check_arena a f.dag;
  let sc = f.sc in
  let n = Superchain.n_tasks sc in
  ensure_capacity a n;
  let lambda = Platform.rate_of platform sc.Superchain.processor in
  let speed = chain_speed platform sc.Superchain.processor in
  let tri = a.tri and read_stamp = a.read_stamp and write_stamp = a.write_stamp in
  let weight = f.weight and inp_off = f.inp_off and inp_size = f.inp_size in
  let out_off = f.out_off and out_file = f.out_file and out_size = f.out_size in
  let consumer = f.consumer in
  let in_off = f.in_off and in_file = f.in_file and in_size = f.in_size in
  for j = 0 to n - 1 do
    let row = j * (j + 1) / 2 in
    let read_bytes = ref 0. and write_bytes = ref 0. and work = ref 0. in
    a.read_epoch <- a.read_epoch + 1;
    let in_e = 2 * a.read_epoch in
    for i = j downto 0 do
      work := !work +. weight.(i);
      (* C grows by the task's distinct files that escape [i..j] *)
      a.write_epoch <- a.write_epoch + 1;
      let we = a.write_epoch in
      for x = out_off.(i) to out_off.(i + 1) - 1 do
        let f = out_file.(x) in
        if consumer.(x) > j && write_stamp.(f) <> we then begin
          write_stamp.(f) <- we;
          write_bytes := !write_bytes +. out_size.(x)
        end
      done;
      (* R: files of the task that earlier (larger-i) sweeps counted as
         external are now produced inside the segment *)
      for x = out_off.(i) to out_off.(i + 1) - 1 do
        let f = out_file.(x) in
        if read_stamp.(f) = in_e then begin
          read_stamp.(f) <- in_e + 1;
          read_bytes := !read_bytes -. out_size.(x)
        end
      done;
      (* R: files the task consumes; their producers are before
         position i hence outside the segment *)
      for x = in_off.(i) to in_off.(i + 1) - 1 do
        let f = in_file.(x) in
        if read_stamp.(f) <> in_e then begin
          read_stamp.(f) <- in_e;
          read_bytes := !read_bytes +. in_size.(x)
        end
      done;
      for x = inp_off.(i) to inp_off.(i + 1) - 1 do
        read_bytes := !read_bytes +. inp_size.(x)
      done;
      let s =
        Platform.io_time platform !read_bytes
        +. (!work /. speed)
        +. Platform.io_time platform (scale_replicas replicas !write_bytes)
      in
      tri.(row + i) <- first_order ~lambda s
    done
  done;
  n

let cost_matrix ?(replicas = 1) platform dag sc =
  let n = Superchain.n_tasks sc in
  (* heterogeneous platforms: the superchain's own processor's rate *)
  let lambda = Platform.rate_of platform sc.Superchain.processor in
  let speed = chain_speed platform sc.Superchain.processor in
  Array.init n (fun j ->
      let row = Array.make (j + 1) 0. in
      (* grow the segment [i..j] leftward, maintaining R/W/C *)
      let read_bytes = ref 0. and write_bytes = ref 0. and work = ref 0. in
      let in_read = Hashtbl.create 16 in
      for i = j downto 0 do
        let t = Superchain.task_at sc i in
        work := !work +. Dag.weight dag t;
        (* C grows by t's distinct files that escape [i..j]; consumers
           of files produced at position i are all at positions > i,
           so previously counted files never change status *)
        let seen = Hashtbl.create 4 in
        List.iter
          (fun (m, (f : Dag.file)) ->
            if consumer_outside sc ~last:j m && not (Hashtbl.mem seen f.Dag.file_id) then begin
              Hashtbl.replace seen f.Dag.file_id ();
              write_bytes := !write_bytes +. f.Dag.size
            end)
          (Dag.succs dag t);
        (* R: files of t that earlier (larger-i) sweeps counted as
           external are now produced inside the segment *)
        List.iter
          (fun (_, (f : Dag.file)) ->
            if Hashtbl.mem in_read f.Dag.file_id then begin
              Hashtbl.remove in_read f.Dag.file_id;
              read_bytes := !read_bytes -. f.Dag.size
            end)
          (Dag.succs dag t);
        (* R: files t consumes; their producers are before position i
           hence outside the segment *)
        List.iter
          (fun (_, (f : Dag.file)) ->
            if not (Hashtbl.mem in_read f.Dag.file_id) then begin
              Hashtbl.replace in_read f.Dag.file_id ();
              read_bytes := !read_bytes +. f.Dag.size
            end)
          (Dag.preds dag t);
        List.iter (fun size -> read_bytes := !read_bytes +. size) (Dag.inputs dag t);
        let s =
          Platform.io_time platform !read_bytes
          +. (!work /. speed)
          +. Platform.io_time platform (scale_replicas replicas !write_bytes)
        in
        row.(i) <- first_order ~lambda s
      done;
      row)

let optimal_positions_flat ?arena:a ?replicas platform f =
  let a = match a with Some a -> a | None -> arena f.dag in
  let n = fill_cost_tri ?replicas a platform f in
  Toueg.solve_packed ~n ~tri:a.tri ~etime:a.etime ~last_ckpt:a.last_ckpt

let optimal_positions_budget_flat ?arena:a ?replicas platform f ~budget =
  let a = match a with Some a -> a | None -> arena f.dag in
  let n = fill_cost_tri ?replicas a platform f in
  Toueg.solve_budget_packed ~n ~tri:a.tri ~budget

let optimal_positions ?arena:a ?replicas platform dag sc =
  let a = match a with Some a -> a | None -> arena dag in
  optimal_positions_flat ~arena:a ?replicas platform (flat_of a dag sc)

let optimal_positions_budget ?arena:a ?replicas platform dag sc ~budget =
  let a = match a with Some a -> a | None -> arena dag in
  optimal_positions_budget_flat ~arena:a ?replicas platform (flat_of a dag sc) ~budget

let periodic_positions sc ~period =
  if period < 1 then invalid_arg "Placement.periodic_positions: period < 1";
  let n = Superchain.n_tasks sc in
  let rec collect k acc = if k >= n then acc else collect (k + period) (k :: acc) in
  let regular = collect (period - 1) [] in
  List.sort_uniq compare ((n - 1) :: regular)

let rec final_position = function
  | [] -> invalid_arg "Placement.segments_of_positions: no positions"
  | [ p ] -> p
  | _ :: rest -> final_position rest

let check_positions sc positions =
  if final_position positions <> Superchain.n_tasks sc - 1 then
    invalid_arg "Placement.segments_of_positions: final position must be checkpointed";
  ignore
    (List.fold_left
       (fun start p ->
         if p < start then invalid_arg "Placement.segments_of_positions: unsorted positions"
         else p + 1)
       0 positions)

let segments_of_positions ?arena:a ?replicas platform dag sc ~positions =
  check_positions sc positions;
  let a = match a with Some a -> a | None -> arena dag in
  let rec cut start = function
    | [] -> []
    | p :: rest ->
        let seg = segment_of ~arena:a ?replicas platform dag sc ~first:start ~last:p in
        seg :: cut (p + 1) rest
  in
  cut 0 positions

let every_position sc = List.init (Superchain.n_tasks sc) (fun i -> i)
