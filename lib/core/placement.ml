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

(* One side of a flattened superchain's edges: position [k]'s edges sit
   at [off.(k) .. off.(k+1) - 1], in Dag order, each as its file, the
   file's size and the position of the edge's other end *)
type edges = {
  mutable off : int array;
  mutable file : int array;
  mutable size : float array;
  mutable other : int array;
}

(* Preallocated planning scratch, reused across the superchains of one
   DAG. Each superchain is flattened once, position by position, into
   the arrays below; the Algorithm-2 table and the segment pricer then
   read nothing else. The per-row Hashtbls of the reference
   [cost_matrix] become epoch-stamped per-file int arrays, the cost
   matrix a packed lower-triangular float array, and the DP runs over
   caller scratch. Every float operation happens in the same order as
   the references, so the costs — and hence the checkpoint sets — are
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
  pos : int array;  (* per task: its position in the flattened superchain *)
  mutable pos_epoch : int;
  mutable flat : (Dag.t * Superchain.t) option;  (* what the arrays below hold *)
  mutable weight : float array;  (* per position *)
  mutable inp_off : int array;  (* position [k]'s initial inputs, in Dag order, *)
  mutable inp_size : float array;  (* at [inp_off.(k) .. inp_off.(k+1) - 1] *)
  outs : edges;  (* [other]: the consumer's position, [max_int] off the superchain *)
  ins : edges;  (* [other]: the producer's position, [-1] off the superchain *)
  mutable tri : float array;
  mutable etime : float array;
  mutable last_ckpt : int array;
}

let no_edges () = { off = [||]; file = [||]; size = [||]; other = [||] }

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
    flat = None;
    weight = [||];
    inp_off = [||];
    inp_size = [||];
    outs = no_edges ();
    ins = no_edges ();
    tri = [||];
    etime = [||];
    last_ckpt = [||];
  }

let grow a need fill =
  if Array.length a >= need then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Store position [k]'s [edges] from index [first] on, the other end of
   each at [other_of] its task; the next free index *)
let push_edges e k first edges other_of =
  e.off.(k) <- first;
  let need = first + List.length edges in
  e.file <- grow e.file need 0;
  e.size <- grow e.size need 0.;
  e.other <- grow e.other need 0;
  List.fold_left
    (fun x (t, (f : Dag.file)) ->
      e.file.(x) <- f.Dag.file_id;
      e.size.(x) <- f.Dag.size;
      e.other.(x) <- other_of t;
      x + 1)
    first edges

(* Flatten [sc] into [a], unless it already holds [sc] of [dag]. One
   pass over the superchain's edges, O(n·d) *)
let flatten a dag sc =
  match a.flat with
  | Some (d, s) when d == dag && s == sc -> ()
  | _ ->
      if a.n_files <> Dag.n_files dag || Array.length a.pos <> Dag.n_tasks dag then
        invalid_arg "Placement: arena built for another DAG";
      a.flat <- None;
      let n = Superchain.n_tasks sc in
      a.pos_epoch <- a.pos_epoch + 1;
      let e = a.pos_epoch in
      Array.iteri
        (fun k t ->
          a.pos_stamp.(t) <- e;
          a.pos.(t) <- k)
        sc.Superchain.order;
      let producer t = if a.pos_stamp.(t) = e then a.pos.(t) else -1 in
      let consumer t = if a.pos_stamp.(t) = e then a.pos.(t) else max_int in
      a.weight <- grow a.weight n 0.;
      a.inp_off <- grow a.inp_off (n + 1) 0;
      a.outs.off <- grow a.outs.off (n + 1) 0;
      a.ins.off <- grow a.ins.off (n + 1) 0;
      let ni = ref 0 and no = ref 0 and nx = ref 0 in
      for k = 0 to n - 1 do
        let t = Superchain.task_at sc k in
        a.weight.(k) <- Dag.weight dag t;
        let inputs = Dag.inputs dag t in
        a.inp_off.(k) <- !ni;
        a.inp_size <- grow a.inp_size (!ni + List.length inputs) 0.;
        List.iter
          (fun size ->
            a.inp_size.(!ni) <- size;
            incr ni)
          inputs;
        no := push_edges a.outs k !no (Dag.succs dag t) consumer;
        nx := push_edges a.ins k !nx (Dag.preds dag t) producer
      done;
      a.inp_off.(n) <- !ni;
      a.outs.off.(n) <- !no;
      a.ins.off.(n) <- !nx;
      a.flat <- Some (dag, sc)

(* The one segment pricer: per position in ascending order, its work,
   its initial inputs, every distinct file it reads from before
   [first] (or another superchain), then every distinct file it writes
   for a consumer after [last] (or on another superchain) *)
let segment_of ?arena:a ?(replicas = 1) platform dag sc ~first ~last =
  if first < 0 || last >= Superchain.n_tasks sc || first > last then
    invalid_arg "Placement.segment_of: bad range";
  let a = match a with Some a -> a | None -> arena dag in
  flatten a dag sc;
  (* heterogeneous speeds: compute time is weight / speed of the
     superchain's own processor (speed 1 is bitwise the identity) *)
  let speed = chain_speed platform sc.Superchain.processor in
  let read_bytes = ref 0. and write_bytes = ref 0. and work = ref 0. in
  a.read_epoch <- a.read_epoch + 1;
  let re = 2 * a.read_epoch in
  a.write_epoch <- a.write_epoch + 1;
  let we = a.write_epoch in
  let outs = a.outs and ins = a.ins in
  for k = first to last do
    work := !work +. a.weight.(k);
    for x = a.inp_off.(k) to a.inp_off.(k + 1) - 1 do
      read_bytes := !read_bytes +. a.inp_size.(x)
    done;
    for x = ins.off.(k) to ins.off.(k + 1) - 1 do
      let f = ins.file.(x) in
      if ins.other.(x) < first && a.read_stamp.(f) <> re then begin
        a.read_stamp.(f) <- re;
        read_bytes := !read_bytes +. ins.size.(x)
      end
    done;
    for x = outs.off.(k) to outs.off.(k + 1) - 1 do
      let f = outs.file.(x) in
      if outs.other.(x) > last && a.write_stamp.(f) <> we then begin
        a.write_stamp.(f) <- we;
        write_bytes := !write_bytes +. outs.size.(x)
      end
    done
  done;
  {
    chain = sc.Superchain.id;
    first;
    last;
    read = Platform.io_time platform !read_bytes;
    work = !work /. speed;
    write = Platform.io_time platform (scale_replicas replicas !write_bytes);
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
   its in/out file bookkeeping mirror [cost_matrix] line for line,
   over the flattened superchain *)
let fill_cost_tri ?(replicas = 1) a platform dag sc =
  flatten a dag sc;
  let n = Superchain.n_tasks sc in
  ensure_capacity a n;
  let lambda = Platform.rate_of platform sc.Superchain.processor in
  let speed = chain_speed platform sc.Superchain.processor in
  let tri = a.tri and read_stamp = a.read_stamp and write_stamp = a.write_stamp in
  let weight = a.weight and inp_off = a.inp_off and inp_size = a.inp_size in
  let out_off = a.outs.off and out_file = a.outs.file and out_size = a.outs.size in
  let consumer = a.outs.other in
  let in_off = a.ins.off and in_file = a.ins.file and in_size = a.ins.size in
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

let segments_of_positions ?arena:a ?replicas platform dag sc ~positions =
  let n = Superchain.n_tasks sc in
  (match List.rev positions with
  | [] -> invalid_arg "Placement.segments_of_positions: no positions"
  | last :: _ ->
      if last <> n - 1 then
        invalid_arg "Placement.segments_of_positions: final position must be checkpointed");
  let a = match a with Some a -> a | None -> arena dag in
  let rec cut start = function
    | [] -> []
    | p :: rest ->
        if p < start then invalid_arg "Placement.segments_of_positions: unsorted positions"
        else
          segment_of ~arena:a ?replicas platform dag sc ~first:start ~last:p
          :: cut (p + 1) rest
  in
  cut 0 positions

let every_position sc = List.init (Superchain.n_tasks sc) (fun i -> i)
