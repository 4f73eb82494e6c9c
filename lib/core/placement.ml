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

(* A file consumed by a segment task is on stable storage iff its
   producer lies outside the segment; by the topological linearisation
   a producer inside the superchain always has a smaller position. *)
let producer_outside sc ~first l =
  (not (Superchain.mem sc l)) || Superchain.position sc l < first

let consumer_outside sc ~last m =
  (not (Superchain.mem sc m)) || Superchain.position sc m > last

let segment_of ?(replicas = 1) platform dag sc ~first ~last =
  if first < 0 || last >= Superchain.n_tasks sc || first > last then
    invalid_arg "Placement.segment_of: bad range";
  (* heterogeneous speeds: compute time is weight / speed of the
     superchain's own processor (speed 1 is bitwise the identity) *)
  let speed = chain_speed platform sc.Superchain.processor in
  let read_bytes = ref 0. and write_bytes = ref 0. and work = ref 0. in
  let read_seen = Hashtbl.create 16 and write_seen = Hashtbl.create 16 in
  for k = first to last do
    let t = Superchain.task_at sc k in
    work := !work +. Dag.weight dag t;
    List.iter (fun size -> read_bytes := !read_bytes +. size) (Dag.inputs dag t);
    List.iter
      (fun (l, (f : Dag.file)) ->
        if producer_outside sc ~first l && not (Hashtbl.mem read_seen f.Dag.file_id) then begin
          Hashtbl.replace read_seen f.Dag.file_id ();
          read_bytes := !read_bytes +. f.Dag.size
        end)
      (Dag.preds dag t);
    List.iter
      (fun (m, (f : Dag.file)) ->
        if consumer_outside sc ~last m && not (Hashtbl.mem write_seen f.Dag.file_id) then begin
          Hashtbl.replace write_seen f.Dag.file_id ();
          write_bytes := !write_bytes +. f.Dag.size
        end)
      (Dag.succs dag t);
  done;
  {
    chain = sc.Superchain.id;
    first;
    last;
    read = Platform.io_time platform !read_bytes;
    work = !work /. speed;
    write = Platform.io_time platform (scale_replicas replicas !write_bytes);
  }

(* Preallocated planning scratch, reused across the superchains of one
   DAG: the per-row Hashtbls of the reference [cost_matrix] become
   epoch-stamped per-file int arrays, the cost matrix a packed
   lower-triangular float array, and the DP runs over caller scratch.
   Every float operation happens in the same order as the reference,
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
    tri = [||];
    etime = [||];
    last_ckpt = [||];
  }

let ensure_capacity a n =
  let need = Toueg.tri_size n in
  if Array.length a.tri < need then a.tri <- Array.make need 0.;
  if Array.length a.etime < n then begin
    a.etime <- Array.make n 0.;
    a.last_ckpt <- Array.make n (-1)
  end

(* Fill [a.tri] with the packed cost table of [sc] (cost of segment
   [i..j] at [j*(j+1)/2 + i]); the descending-[i] sweep per [j] and
   its in/out file bookkeeping mirror [cost_matrix] line for line. *)
let fill_cost_tri ?(replicas = 1) a platform dag sc =
  if a.n_files <> Dag.n_files dag then
    invalid_arg "Placement.fill_cost_tri: arena built for another DAG";
  let n = Superchain.n_tasks sc in
  ensure_capacity a n;
  let lambda = Platform.rate_of platform sc.Superchain.processor in
  let speed = chain_speed platform sc.Superchain.processor in
  let tri = a.tri in
  for j = 0 to n - 1 do
    let row = j * (j + 1) / 2 in
    let read_bytes = ref 0. and write_bytes = ref 0. and work = ref 0. in
    a.read_epoch <- a.read_epoch + 1;
    let in_e = 2 * a.read_epoch in
    for i = j downto 0 do
      let t = Superchain.task_at sc i in
      work := !work +. Dag.weight dag t;
      (* C grows by t's distinct files that escape [i..j] *)
      a.write_epoch <- a.write_epoch + 1;
      let we = a.write_epoch in
      List.iter
        (fun (m, (f : Dag.file)) ->
          if consumer_outside sc ~last:j m && a.write_stamp.(f.Dag.file_id) <> we then begin
            a.write_stamp.(f.Dag.file_id) <- we;
            write_bytes := !write_bytes +. f.Dag.size
          end)
        (Dag.succs dag t);
      (* R: files of t that earlier (larger-i) sweeps counted as
         external are now produced inside the segment *)
      List.iter
        (fun (_, (f : Dag.file)) ->
          if a.read_stamp.(f.Dag.file_id) = in_e then begin
            a.read_stamp.(f.Dag.file_id) <- in_e + 1;
            read_bytes := !read_bytes -. f.Dag.size
          end)
        (Dag.succs dag t);
      (* R: files t consumes; their producers are before position i
         hence outside the segment *)
      List.iter
        (fun (_, (f : Dag.file)) ->
          if a.read_stamp.(f.Dag.file_id) <> in_e then begin
            a.read_stamp.(f.Dag.file_id) <- in_e;
            read_bytes := !read_bytes +. f.Dag.size
          end)
        (Dag.preds dag t);
      List.iter (fun size -> read_bytes := !read_bytes +. size) (Dag.inputs dag t);
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

let optimal_positions ?arena:a ?replicas platform dag sc =
  let a = match a with Some a -> a | None -> arena dag in
  let n = fill_cost_tri ?replicas a platform dag sc in
  Toueg.solve_packed ~n ~tri:a.tri ~etime:a.etime ~last_ckpt:a.last_ckpt

let optimal_positions_budget ?arena:a ?replicas platform dag sc ~budget =
  let a = match a with Some a -> a | None -> arena dag in
  let n = fill_cost_tri ?replicas a platform dag sc in
  Toueg.solve_budget_packed ~n ~tri:a.tri ~budget

let periodic_positions sc ~period =
  if period < 1 then invalid_arg "Placement.periodic_positions: period < 1";
  let n = Superchain.n_tasks sc in
  let rec collect k acc = if k >= n then acc else collect (k + period) (k :: acc) in
  let regular = collect (period - 1) [] in
  List.sort_uniq compare ((n - 1) :: regular)

let segments_of_positions ?replicas platform dag sc ~positions =
  let n = Superchain.n_tasks sc in
  (match List.rev positions with
  | [] -> invalid_arg "Placement.segments_of_positions: no positions"
  | last :: _ ->
      if last <> n - 1 then
        invalid_arg "Placement.segments_of_positions: final position must be checkpointed");
  let rec cut start = function
    | [] -> []
    | p :: rest ->
        if p < start then invalid_arg "Placement.segments_of_positions: unsorted positions"
        else segment_of ?replicas platform dag sc ~first:start ~last:p :: cut (p + 1) rest
  in
  cut 0 positions

let every_position sc = List.init (Superchain.n_tasks sc) (fun i -> i)
