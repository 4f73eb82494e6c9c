module Rng = Ckpt_prob.Rng

type file = { file_id : int; producer : Task.id; size : float }

type node = {
  mutable info : Task.t;
  mutable out_edges : (Task.id * int) list; (* (dst, file_id), kept sorted by dst *)
  mutable in_edges : (Task.id * int) list; (* (src, file_id), kept sorted by src *)
  mutable input_files : float list; (* initial files read from stable storage *)
}

type t = {
  dag_name : string;
  mutable nodes : node array;
  mutable n : int;
  mutable file_tbl : file array;
  mutable n_files : int;
  mutable n_edges : int;
}

let create ?(name = "dag") () =
  { dag_name = name; nodes = [||]; n = 0; file_tbl = [||]; n_files = 0; n_edges = 0 }

let name t = t.dag_name
let n_tasks t = t.n
let n_edges t = t.n_edges

let grow_nodes t =
  let cap = Array.length t.nodes in
  if t.n = cap then begin
    let fresh =
      Array.make
        (max 8 (2 * cap))
        { info = Task.make ~id:0 ~name:"" ~weight:0.;
          out_edges = [];
          in_edges = [];
          input_files = [] }
    in
    Array.blit t.nodes 0 fresh 0 t.n;
    t.nodes <- fresh
  end

let add_task t ~name ~weight =
  grow_nodes t;
  let id = t.n in
  t.nodes.(id) <-
    { info = Task.make ~id ~name ~weight; out_edges = []; in_edges = []; input_files = [] };
  t.n <- t.n + 1;
  id

let check_task t id fn =
  if id < 0 || id >= t.n then invalid_arg (Printf.sprintf "Dag.%s: unknown task %d" fn id)

let add_file t ~producer ~size =
  check_task t producer "add_file";
  if size < 0. then invalid_arg "Dag.add_file: negative size";
  let cap = Array.length t.file_tbl in
  if t.n_files = cap then begin
    let fresh = Array.make (max 8 (2 * cap)) { file_id = 0; producer = 0; size = 0. } in
    Array.blit t.file_tbl 0 fresh 0 t.n_files;
    t.file_tbl <- fresh
  end;
  let id = t.n_files in
  t.file_tbl.(id) <- { file_id = id; producer; size };
  t.n_files <- t.n_files + 1;
  id

let add_input t id size =
  check_task t id "add_input";
  if size < 0. then invalid_arg "Dag.add_input: negative size";
  t.nodes.(id).input_files <- size :: t.nodes.(id).input_files

let inputs t id =
  check_task t id "inputs";
  t.nodes.(id).input_files

let file t id =
  if id < 0 || id >= t.n_files then invalid_arg "Dag.file: unknown file";
  t.file_tbl.(id)

let files t = Array.sub t.file_tbl 0 t.n_files
let n_files t = t.n_files

let has_edge t src dst =
  check_task t src "has_edge";
  check_task t dst "has_edge";
  List.exists (fun (d, _) -> d = dst) t.nodes.(src).out_edges

let insert_sorted key v edges =
  let rec go = function
    | [] -> [ v ]
    | (k, _) as hd :: tl -> if key < k then v :: hd :: tl else hd :: go tl
  in
  go edges

let add_edge t ?file:fid src dst size =
  check_task t src "add_edge";
  check_task t dst "add_edge";
  if src = dst then invalid_arg "Dag.add_edge: self-loop";
  let fid =
    match fid with
    | None ->
        (* a fresh file cannot duplicate an existing edge, but reject a
           second anonymous edge between the same tasks: callers that
           move several data items between two tasks must name the
           files (or merge the sizes) *)
        if has_edge t src dst then
          invalid_arg (Printf.sprintf "Dag.add_edge: duplicate edge %d->%d" src dst);
        add_file t ~producer:src ~size
    | Some f ->
        if f < 0 || f >= t.n_files then invalid_arg "Dag.add_edge: unknown file";
        if t.file_tbl.(f).producer <> src then
          invalid_arg "Dag.add_edge: file producer mismatch";
        (* parallel edges carrying distinct files are allowed; the
           same file twice to the same consumer is a duplicate *)
        if List.exists (fun (d, fd) -> d = dst && fd = f) t.nodes.(src).out_edges then
          invalid_arg (Printf.sprintf "Dag.add_edge: duplicate edge %d->%d" src dst);
        f
  in
  t.nodes.(src).out_edges <- insert_sorted dst (dst, fid) t.nodes.(src).out_edges;
  t.nodes.(dst).in_edges <- insert_sorted src (src, fid) t.nodes.(dst).in_edges;
  t.n_edges <- t.n_edges + 1

let task t id =
  check_task t id "task";
  t.nodes.(id).info

let tasks t = Array.init t.n (fun i -> t.nodes.(i).info)
let weight t id = (task t id).Task.weight

let set_weight t id w =
  check_task t id "set_weight";
  let info = t.nodes.(id).info in
  t.nodes.(id).info <- Task.make ~id:info.Task.id ~name:info.Task.name ~weight:w

let total_weight t =
  let acc = ref 0. in
  for i = 0 to t.n - 1 do
    acc := !acc +. t.nodes.(i).info.Task.weight
  done;
  !acc

let total_data t =
  let acc = ref 0. in
  for i = 0 to t.n_files - 1 do
    acc := !acc +. t.file_tbl.(i).size
  done;
  for i = 0 to t.n - 1 do
    List.iter (fun size -> acc := !acc +. size) t.nodes.(i).input_files
  done;
  !acc

let scale_files t factor =
  if factor < 0. then invalid_arg "Dag.scale_files: negative factor";
  for i = 0 to t.n_files - 1 do
    let f = t.file_tbl.(i) in
    t.file_tbl.(i) <- { f with size = f.size *. factor }
  done;
  for i = 0 to t.n - 1 do
    t.nodes.(i).input_files <- List.map (fun s -> s *. factor) t.nodes.(i).input_files
  done

let succs t id =
  check_task t id "succs";
  List.map (fun (dst, fid) -> (dst, t.file_tbl.(fid))) t.nodes.(id).out_edges

let preds t id =
  check_task t id "preds";
  List.map (fun (src, fid) -> (src, t.file_tbl.(fid))) t.nodes.(id).in_edges

let succ_ids t id =
  check_task t id "succ_ids";
  List.map fst t.nodes.(id).out_edges

let pred_ids t id =
  check_task t id "pred_ids";
  List.map fst t.nodes.(id).in_edges

let sources t =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if t.nodes.(i).in_edges = [] then acc := i :: !acc
  done;
  !acc

let sinks t =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if t.nodes.(i).out_edges = [] then acc := i :: !acc
  done;
  !acc

(* Kahn's algorithm. The ready set is a bucket from which we either
   always take the minimum id (deterministic) or a uniformly random
   element (ONONEPROCESSOR's random topological sort). *)
let topological_sort ?rng t =
  let indeg = Array.init t.n (fun i -> List.length t.nodes.(i).in_edges) in
  let ready = ref [] in
  (* [ready] is kept sorted ascending in deterministic mode (push keeps
     order because we insert in place); in random mode order is
     irrelevant since we draw uniformly. *)
  let push v =
    match rng with
    | None ->
        let rec ins = function
          | [] -> [ v ]
          | hd :: tl -> if v < hd then v :: hd :: tl else hd :: ins tl
        in
        ready := ins !ready
    | Some _ -> ready := v :: !ready
  in
  let pop () =
    match !ready with
    | [] -> None
    | hd :: tl -> (
        match rng with
        | None ->
            ready := tl;
            Some hd
        | Some rng ->
            let l = !ready in
            let k = Rng.int rng (List.length l) in
            let chosen = List.nth l k in
            let removed = ref false in
            ready :=
              List.filter
                (fun x ->
                  if (not !removed) && x = chosen then begin
                    removed := true;
                    false
                  end
                  else true)
                l;
            Some chosen)
  in
  for i = t.n - 1 downto 0 do
    if indeg.(i) = 0 then push i
  done;
  let order = Array.make t.n (-1) in
  let rec fill k =
    match pop () with
    | None -> k
    | Some u ->
        order.(k) <- u;
        List.iter
          (fun (v, _) ->
            indeg.(v) <- indeg.(v) - 1;
            if indeg.(v) = 0 then push v)
          t.nodes.(u).out_edges;
        fill (k + 1)
  in
  let filled = fill 0 in
  if filled <> t.n then
    invalid_arg (Printf.sprintf "Dag.topological_sort: %s has a cycle" t.dag_name);
  order

let check_acyclic t = ignore (topological_sort t)

type violation =
  | Cycle of Task.id list
  | Bad_weight of Task.id * float
  | Bad_file_size of int * float
  | Bad_input_size of Task.id * float
  | Dangling_producer of int
  | Duplicate_task_id of Task.id
  | Duplicate_edge of Task.id * Task.id * int

let violation_to_string = function
  | Cycle ids ->
      Printf.sprintf "cycle through task%s %s"
        (if List.length ids = 1 then "" else "s")
        (String.concat ", " (List.map string_of_int ids))
  | Bad_weight (id, w) -> Printf.sprintf "task %d: weight %g" id w
  | Bad_file_size (fid, s) -> Printf.sprintf "file %d: size %g" fid s
  | Bad_input_size (id, s) -> Printf.sprintf "task %d: initial input size %g" id s
  | Dangling_producer fid -> Printf.sprintf "file %d: producer is not a task" fid
  | Duplicate_task_id id -> Printf.sprintf "task at index %d carries a foreign id" id
  | Duplicate_edge (src, dst, fid) ->
      Printf.sprintf "edge %d->%d (file %d) recorded twice" src dst fid

let bad_number x = Float.is_nan x || x < 0.

let validate t =
  let violations = ref [] in
  let note v = violations := v :: !violations in
  for i = 0 to t.n - 1 do
    let nd = t.nodes.(i) in
    if nd.info.Task.id <> i then note (Duplicate_task_id i);
    if bad_number nd.info.Task.weight then note (Bad_weight (i, nd.info.Task.weight));
    List.iter (fun s -> if bad_number s then note (Bad_input_size (i, s))) nd.input_files;
    (* out_edges are kept sorted by dst, so duplicates are adjacent *)
    let rec dups = function
      | (d1, f1) :: ((d2, f2) :: _ as rest) ->
          if d1 = d2 && f1 = f2 then note (Duplicate_edge (i, d1, f1));
          dups rest
      | _ -> ()
    in
    dups nd.out_edges
  done;
  for fid = 0 to t.n_files - 1 do
    let f = t.file_tbl.(fid) in
    if f.producer < 0 || f.producer >= t.n then note (Dangling_producer fid)
    else if bad_number f.size then note (Bad_file_size (fid, f.size))
  done;
  (* Kahn residue: tasks never emitted sit on or behind a cycle. Run it
     by hand — [topological_sort] raises instead of reporting. *)
  let indeg = Array.init t.n (fun i -> List.length t.nodes.(i).in_edges) in
  let queue = Queue.create () in
  for i = 0 to t.n - 1 do
    if indeg.(i) = 0 then Queue.add i queue
  done;
  let emitted = ref 0 in
  let done_ = Array.make t.n false in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    done_.(u) <- true;
    incr emitted;
    List.iter
      (fun (v, _) ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then Queue.add v queue)
      t.nodes.(u).out_edges
  done;
  if !emitted <> t.n then begin
    let trapped = ref [] in
    for i = t.n - 1 downto 0 do
      if not done_.(i) then trapped := i :: !trapped
    done;
    note (Cycle !trapped)
  end;
  match List.rev !violations with [] -> Ok () | vs -> Error vs

let longest_path ?weight:w t =
  let w = match w with Some f -> f | None -> fun i -> weight t i in
  let order = topological_sort t in
  let dist = Array.make t.n 0. in
  let best = ref 0. in
  Array.iter
    (fun u ->
      let d = dist.(u) +. w u in
      if d > !best then best := d;
      List.iter (fun (v, _) -> if d > dist.(v) then dist.(v) <- d) t.nodes.(u).out_edges)
    order;
  !best

let critical_path t =
  let order = topological_sort t in
  let dist = Array.make t.n 0. in
  let from = Array.make t.n (-1) in
  let best = ref 0. and best_end = ref (-1) in
  Array.iter
    (fun u ->
      let d = dist.(u) +. weight t u in
      if d > !best then begin
        best := d;
        best_end := u
      end;
      List.iter
        (fun (v, _) ->
          if d > dist.(v) then begin
            dist.(v) <- d;
            from.(v) <- u
          end)
        t.nodes.(u).out_edges)
    order;
  if !best_end < 0 then []
  else begin
    let rec walk u acc = if u < 0 then acc else walk from.(u) (u :: acc) in
    walk !best_end []
  end

let levels t =
  let order = topological_sort t in
  let lvl = Array.make t.n 0 in
  Array.iter
    (fun u ->
      List.iter
        (fun (v, _) -> if lvl.(u) + 1 > lvl.(v) then lvl.(v) <- lvl.(u) + 1)
        t.nodes.(u).out_edges)
    order;
  lvl

let transitive_closure t =
  let order = topological_sort t in
  let reach = Array.init t.n (fun _ -> Array.make t.n false) in
  (* process in reverse topological order: reach(u) = union over succs *)
  for k = t.n - 1 downto 0 do
    let u = order.(k) in
    List.iter
      (fun (v, _) ->
        reach.(u).(v) <- true;
        for j = 0 to t.n - 1 do
          if reach.(v).(j) then reach.(u).(j) <- true
        done)
      t.nodes.(u).out_edges
  done;
  reach

let transitive_reduction_edges t =
  let reach = transitive_closure t in
  let keep = ref [] in
  for u = t.n - 1 downto 0 do
    let out = t.nodes.(u).out_edges in
    List.iter
      (fun (v, _) ->
        (* u->v is redundant iff some other successor w of u reaches v *)
        let redundant =
          List.exists (fun (w, _) -> w <> v && reach.(w).(v)) out
        in
        if not redundant then keep := (u, v) :: !keep)
      (List.rev out)
  done;
  (* parallel file-edges collapse to one dependency *)
  List.sort_uniq compare !keep

let copy t =
  {
    dag_name = t.dag_name;
    nodes =
      Array.init (Array.length t.nodes) (fun i ->
          if i < t.n then
            let nd = t.nodes.(i) in
            { info = nd.info;
              out_edges = nd.out_edges;
              in_edges = nd.in_edges;
              input_files = nd.input_files }
          else t.nodes.(i));
    n = t.n;
    file_tbl = Array.copy t.file_tbl;
    n_files = t.n_files;
    n_edges = t.n_edges;
  }

let induced t ids =
  let ids = List.sort_uniq Int.compare ids in
  List.iter (fun id -> check_task t id "induced") ids;
  let old_of_new = Array.of_list ids in
  let new_of_old = Array.make (max 1 t.n) (-1) in
  Array.iteri (fun nid oid -> new_of_old.(oid) <- nid) old_of_new;
  (* one pass per row: filter out the edges that leave the subset and
     rename the rest. New ids keep the old order, so every row stays
     sorted; a file is recreated at its first kept edge, producers in
     id order and each out-row in order, as edge-by-edge insertion
     would meet it *)
  let file_map = Array.make (max 1 t.n_files) (-1) in
  let files = ref [] and n_files = ref 0 and n_edges = ref 0 in
  let rec keep_out nsrc = function
    | [] -> []
    | (odst, fid) :: tl ->
        let ndst = new_of_old.(odst) in
        if ndst < 0 then keep_out nsrc tl
        else begin
          if file_map.(fid) < 0 then begin
            file_map.(fid) <- !n_files;
            files := { file_id = !n_files; producer = nsrc; size = t.file_tbl.(fid).size } :: !files;
            incr n_files
          end;
          incr n_edges;
          let e = (ndst, file_map.(fid)) in
          e :: keep_out nsrc tl
        end
  in
  let rec keep_in = function
    | [] -> []
    | (osrc, fid) :: tl ->
        let nsrc = new_of_old.(osrc) in
        if nsrc < 0 then keep_in tl else (nsrc, file_map.(fid)) :: keep_in tl
  in
  let nodes =
    Array.mapi
      (fun nid oid ->
        let nd = t.nodes.(oid) in
        { info = { nd.info with Task.id = nid };
          out_edges = keep_out nid nd.out_edges;
          in_edges = [];
          input_files = [] })
      old_of_new
  in
  (* every kept edge has had its file renamed by now *)
  Array.iteri (fun nid oid -> nodes.(nid).in_edges <- keep_in t.nodes.(oid).in_edges) old_of_new;
  let sub =
    { dag_name = t.dag_name ^ "/induced";
      nodes;
      n = Array.length nodes;
      file_tbl = Array.of_list (List.rev !files);
      n_files = !n_files;
      n_edges = !n_edges }
  in
  (sub, old_of_new)

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %S {\n" t.dag_name);
  for i = 0 to t.n - 1 do
    let info = t.nodes.(i).info in
    Buffer.add_string buf
      (Printf.sprintf "  n%d [label=\"%s#%d\\nw=%g\"];\n" i info.Task.name i info.Task.weight)
  done;
  for i = 0 to t.n - 1 do
    List.iter
      (fun (j, fid) ->
        Buffer.add_string buf
          (Printf.sprintf "  n%d -> n%d [label=\"f%d:%g\"];\n" i j fid t.file_tbl.(fid).size))
      t.nodes.(i).out_edges
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp_stats fmt t =
  Format.fprintf fmt "%s: %d tasks, %d edges, weight=%.2f, data=%.2f" t.dag_name t.n
    t.n_edges (total_weight t) (total_data t)
