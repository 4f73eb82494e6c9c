module Dag = Ckpt_dag.Dag
module Csr = Ckpt_dag.Compiled

exception Reject of string

(* The recogniser runs on an immutable CSR compilation of the DAG
   (flat successor/predecessor int arrays) plus a fixed set of
   epoch-stamped scratch arrays: a slot is "set" iff it carries the
   array's current epoch, so clearing between uses is a single integer
   increment instead of an O(n) sweep or a fresh Hashtbl. Vertex sets
   are still sorted int lists of task ids at the API boundary — the
   recursion hands disjoint subsets down, so one scratch set suffices.

   The decomposition logic is a line-for-line port of the list/Hashtbl
   reference: candidate orders, cut selection and tie-breaking are
   unchanged, so the produced trees (and dummy counts) are identical —
   only the constant factor moved.

   Bipartite completion inserts no edges: the tree records each
   completed cut as a serial composition, which implies every pair
   (see [Mspg.serial_cuts]), and recognition only counts the pairs the
   DAG lacks. *)

type ctx = {
  csr : Csr.t;
  n : int;
  complete : bool;
  mutable dummies : int;
  (* epoch-stamped scratch (one slot per task id) *)
  member : int array;
  mutable member_epoch : int;
  closure : int array;
  mutable closure_epoch : int;
  mark1 : int array;
  mutable mark1_epoch : int;
  mark2 : int array;
  mutable mark2_epoch : int;
  outset : int array;
  mutable outset_epoch : int;
  comp : int array;  (* component id, valid under comp_stamp *)
  comp_stamp : int array;
  mutable comp_epoch : int;
  level : int array;
  indeg : int array;
  queue : int array;  (* shared BFS worklist, capacity n *)
}

let make_ctx dag ~complete =
  let csr = Csr.of_dag dag in
  let n = Csr.n_tasks csr in
  {
    csr;
    n;
    complete;
    dummies = 0;
    member = Array.make n 0;
    member_epoch = 0;
    closure = Array.make n 0;
    closure_epoch = 0;
    mark1 = Array.make n 0;
    mark1_epoch = 0;
    mark2 = Array.make n 0;
    mark2_epoch = 0;
    outset = Array.make n 0;
    outset_epoch = 0;
    comp = Array.make n (-1);
    comp_stamp = Array.make n 0;
    comp_epoch = 0;
    level = Array.make n 0;
    indeg = Array.make n 0;
    queue = Array.make n 0;
  }

let set_member ctx verts =
  ctx.member_epoch <- ctx.member_epoch + 1;
  let e = ctx.member_epoch in
  List.iter (fun v -> ctx.member.(v) <- e) verts;
  e

let in_member ctx e v = ctx.member.(v) = e

(* Member-restricted successor ids of [u], duplicates from parallel
   file edges preserved, destination-sorted — the same sequence the
   list-based [Dag.succ_ids] filter produced. *)
let restrict_succs ctx e u =
  let csr = ctx.csr in
  let acc = ref [] in
  for k = csr.Csr.succ_off.(u + 1) - 1 downto csr.Csr.succ_off.(u) do
    let v = csr.Csr.succ_tgt.(k) in
    if in_member ctx e v then acc := v :: !acc
  done;
  !acc

let restrict_preds ctx e u =
  let csr = ctx.csr in
  let acc = ref [] in
  for k = csr.Csr.pred_off.(u + 1) - 1 downto csr.Csr.pred_off.(u) do
    let v = csr.Csr.pred_src.(k) in
    if in_member ctx e v then acc := v :: !acc
  done;
  !acc

(* Weakly connected components of the sub-DAG induced by [verts],
   listed in order of first appearance, members in [verts] order. *)
let components ctx verts =
  let e = set_member ctx verts in
  ctx.comp_epoch <- ctx.comp_epoch + 1;
  let ce = ctx.comp_epoch in
  let csr = ctx.csr in
  let queue = ctx.queue in
  let next = ref 0 in
  let bfs seed id =
    ctx.comp.(seed) <- id;
    ctx.comp_stamp.(seed) <- ce;
    queue.(0) <- seed;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      let visit v =
        if in_member ctx e v && ctx.comp_stamp.(v) <> ce then begin
          ctx.comp.(v) <- id;
          ctx.comp_stamp.(v) <- ce;
          queue.(!tail) <- v;
          incr tail
        end
      in
      for k = csr.Csr.succ_off.(u) to csr.Csr.succ_off.(u + 1) - 1 do
        visit csr.Csr.succ_tgt.(k)
      done;
      for k = csr.Csr.pred_off.(u) to csr.Csr.pred_off.(u + 1) - 1 do
        visit csr.Csr.pred_src.(k)
      done
    done
  in
  List.iter
    (fun v ->
      if ctx.comp_stamp.(v) <> ce then begin
        bfs v !next;
        incr next
      end)
    verts;
  let buckets = Array.make !next [] in
  List.iter (fun v -> buckets.(ctx.comp.(v)) <- v :: buckets.(ctx.comp.(v))) (List.rev verts);
  Array.to_list buckets

(* Mark the descendants of [seeds] within the member set, seeds
   included; returns the closure epoch for membership tests and the
   number of marked vertices. *)
let down_closure ctx e seeds =
  ctx.closure_epoch <- ctx.closure_epoch + 1;
  let ce = ctx.closure_epoch in
  let csr = ctx.csr in
  let queue = ctx.queue in
  let tail = ref 0 in
  List.iter
    (fun v ->
      if ctx.closure.(v) <> ce then begin
        ctx.closure.(v) <- ce;
        queue.(!tail) <- v;
        incr tail
      end)
    seeds;
  let head = ref 0 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for k = csr.Csr.succ_off.(u) to csr.Csr.succ_off.(u + 1) - 1 do
      let v = csr.Csr.succ_tgt.(k) in
      if in_member ctx e v && ctx.closure.(v) <> ce then begin
        ctx.closure.(v) <- ce;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  (ce, !tail)

type cut = { v1 : int list; v2 : int list; missing : int }
(* [missing] counts the sink(V1)-source(V2) pairs lacking an edge: 0
   for a strict (complete-bipartite) cut. *)

(* Examine the cut whose V2 is the down-closure of [seed_sources].
   Returns [None] when crossing edges violate the sinks(V1) ->
   sources(V2) discipline; otherwise the cut with its missing-pair
   count. *)
let examine_cut ctx e verts seed_sources =
  let csr = ctx.csr in
  let ce, _ = down_closure ctx e seed_sources in
  let in_v2 v = ctx.closure.(v) = ce in
  let v1 = List.filter (fun v -> not (in_v2 v)) verts in
  if v1 = [] then None
  else begin
    let v2 = List.filter in_v2 verts in
    let sinks1 =
      List.filter
        (fun u ->
          let ok = ref true in
          for k = csr.Csr.succ_off.(u) to csr.Csr.succ_off.(u + 1) - 1 do
            let v = csr.Csr.succ_tgt.(k) in
            if in_member ctx e v && not (in_v2 v) then ok := false
          done;
          !ok)
        v1
    in
    let sources2 =
      List.filter
        (fun v ->
          let any = ref false in
          for k = csr.Csr.pred_off.(v) to csr.Csr.pred_off.(v + 1) - 1 do
            let p = csr.Csr.pred_src.(k) in
            if in_member ctx e p && in_v2 p then any := true
          done;
          not !any)
        v2
    in
    ctx.mark1_epoch <- ctx.mark1_epoch + 1;
    let m1 = ctx.mark1_epoch in
    List.iter (fun u -> ctx.mark1.(u) <- m1) sinks1;
    ctx.mark2_epoch <- ctx.mark2_epoch + 1;
    let m2 = ctx.mark2_epoch in
    List.iter (fun v -> ctx.mark2.(v) <- m2) sources2;
    let ok = ref true in
    List.iter
      (fun u ->
        for k = csr.Csr.succ_off.(u) to csr.Csr.succ_off.(u + 1) - 1 do
          let v = csr.Csr.succ_tgt.(k) in
          if
            in_member ctx e v && in_v2 v
            && not (ctx.mark1.(u) = m1 && ctx.mark2.(v) = m2)
          then ok := false
        done)
      v1;
    if not !ok then None
    else begin
      (* missing pairs: for each sink of V1, the sources of V2 it lacks
         an edge to *)
      let missing = ref 0 in
      List.iter
        (fun u ->
          ctx.outset_epoch <- ctx.outset_epoch + 1;
          let oe = ctx.outset_epoch in
          for k = csr.Csr.succ_off.(u) to csr.Csr.succ_off.(u + 1) - 1 do
            let v = csr.Csr.succ_tgt.(k) in
            if in_member ctx e v then ctx.outset.(v) <- oe
          done;
          List.iter (fun v -> if ctx.outset.(v) <> oe then incr missing) sources2)
        sinks1;
      Some { v1; v2; missing = !missing }
    end
  end

(* Allocation-free strict-cut test: decides, for the cut whose V2 is
   the down-closure of [seed], whether the reference [examine_cut]
   would return a cut with [missing = []], and if so the size of its
   V1 — without materialising any of the four vertex lists. The cut is
   valid iff every crossing edge leaves a task whose member-successors
   all lie in V2 (a sink of V1) and enters a task with no
   member-predecessor in V2 (a source of V2); it is strict iff the
   distinct crossing pairs number exactly sinks(V1) x sources(V2). *)
let probe_strict_cut ctx e verts nverts seed =
  let csr = ctx.csr in
  let ce, v2_count = down_closure ctx e seed in
  let v1_count = nverts - v2_count in
  if v1_count = 0 then None
  else begin
    let in_v2 v = ctx.closure.(v) = ce in
    (* memoised source-of-V2 test: mark2 = known source under m2 *)
    ctx.mark2_epoch <- ctx.mark2_epoch + 1;
    let m2 = ctx.mark2_epoch in
    ctx.mark1_epoch <- ctx.mark1_epoch + 1;
    let m1 = ctx.mark1_epoch in
    (* mark1 doubles as the "source-status computed" stamp *)
    let is_source v =
      if ctx.mark1.(v) = m1 then ctx.mark2.(v) = m2
      else begin
        ctx.mark1.(v) <- m1;
        let any = ref false in
        for k = csr.Csr.pred_off.(v) to csr.Csr.pred_off.(v + 1) - 1 do
          let p = csr.Csr.pred_src.(k) in
          if in_member ctx e p && in_v2 p then any := true
        done;
        if not !any then ctx.mark2.(v) <- m2;
        not !any
      end
    in
    let nsinks = ref 0 and nsources = ref 0 and npairs = ref 0 in
    match
      List.iter
        (fun u ->
          if in_v2 u then begin
            if is_source u then incr nsources
          end
          else begin
            (* classify u's member-successors; dedup crossing targets
               (parallel file edges) with a per-u outset epoch *)
            ctx.outset_epoch <- ctx.outset_epoch + 1;
            let oe = ctx.outset_epoch in
            let all_in = ref true and any_cross = ref false in
            for k = csr.Csr.succ_off.(u) to csr.Csr.succ_off.(u + 1) - 1 do
              let v = csr.Csr.succ_tgt.(k) in
              if in_member ctx e v then
                if in_v2 v then begin
                  any_cross := true;
                  if ctx.outset.(v) <> oe then begin
                    ctx.outset.(v) <- oe;
                    incr npairs;
                    if not (is_source v) then raise Exit
                  end
                end
                else all_in := false
            done;
            if !all_in then incr nsinks
            else if !any_cross then raise Exit
          end)
        verts
    with
    | () when !npairs = !nsinks * !nsources -> Some v1_count
    | () -> None
    | exception Exit -> None
  end

(* Level of each member task: longest hop-path from a source of the
   sub-DAG, via Kahn propagation (order-independent). *)
let local_levels ctx e verts =
  let csr = ctx.csr in
  let queue = ctx.queue in
  List.iter
    (fun v ->
      let d = ref 0 in
      for k = csr.Csr.pred_off.(v) to csr.Csr.pred_off.(v + 1) - 1 do
        if in_member ctx e csr.Csr.pred_src.(k) then incr d
      done;
      ctx.indeg.(v) <- !d;
      ctx.level.(v) <- 0)
    verts;
  let tail = ref 0 in
  List.iter
    (fun v ->
      if ctx.indeg.(v) = 0 then begin
        queue.(!tail) <- v;
        incr tail
      end)
    verts;
  let head = ref 0 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let lu = ctx.level.(u) in
    for k = csr.Csr.succ_off.(u) to csr.Csr.succ_off.(u + 1) - 1 do
      let v = csr.Csr.succ_tgt.(k) in
      if in_member ctx e v then begin
        if lu + 1 > ctx.level.(v) then ctx.level.(v) <- lu + 1;
        ctx.indeg.(v) <- ctx.indeg.(v) - 1;
        if ctx.indeg.(v) = 0 then begin
          queue.(!tail) <- v;
          incr tail
        end
      end
    done
  done

let rec decompose ctx verts =
  match verts with
  | [] -> invalid_arg "Recognize: empty vertex set"
  | [ v ] -> Mspg.leaf v
  | _ -> (
      match components ctx verts with
      | [] -> assert false
      | _ :: _ :: _ as comps -> Mspg.parallel (List.map (decompose ctx) comps)
      | [ _single ] ->
          (* connected: look for a serial cut *)
          let e = set_member ctx verts in
          (* candidate source sets for V2: the distinct in-subgraph
             successor sets (every strict cut arises this way) *)
          let candidates =
            List.filter_map
              (fun u ->
                match restrict_succs ctx e u with
                | [] -> None
                | s -> Some (List.sort compare s))
              verts
            |> List.sort_uniq compare
          in
          (* probe every candidate allocation-free, keeping the first
             one whose strict cut has the smallest V1 (the reference
             fold's tie-break); only the winner is materialised *)
          let nverts = List.length verts in
          let best = ref None in
          List.iter
            (fun seed ->
              match probe_strict_cut ctx e verts nverts seed with
              | None -> ()
              | Some v1_count -> (
                  match !best with
                  | Some (c0, _) when c0 <= v1_count -> ()
                  | _ -> best := Some (v1_count, seed)))
            candidates;
          (match !best with
          | Some (_, seed) ->
              let cut =
                match examine_cut ctx e verts seed with
                | Some c -> c
                | None -> assert false
              in
              Mspg.serial [ decompose ctx cut.v1; decompose ctx cut.v2 ]
          | None when not ctx.complete ->
              raise
                (Reject
                   (Printf.sprintf
                      "connected subgraph of %d tasks admits no valid serial cut"
                      (List.length verts)))
          | None ->
              (* bipartite completion: among the completable level
                 cuts pick the one needing the fewest dummy edges,
                 so genuinely parallel structure away from the
                 incomplete block is not serialised needlessly *)
              local_levels ctx e verts;
              let max_level =
                List.fold_left (fun acc v -> max acc ctx.level.(v)) 0 verts
              in
              let cut_at l =
                let seed =
                  List.filter (fun v -> ctx.level.(v) > l) verts
                  |> List.filter (fun v ->
                         List.for_all
                           (fun p -> ctx.level.(p) <= l)
                           (restrict_preds ctx e v))
                in
                examine_cut ctx e verts seed
              in
              let best = ref None in
              for l = 0 to max_level - 1 do
                match cut_at l with
                | None -> ()
                | Some cut -> (
                    let cost = cut.missing in
                    match !best with
                    | Some (c0, _) when c0 <= cost -> ()
                    | _ -> best := Some (cost, cut))
              done;
              (match !best with
              | None ->
                  raise
                    (Reject
                       (Printf.sprintf
                          "connected subgraph of %d tasks is not an M-SPG and not \
                           completable by dummy dependencies"
                          (List.length verts)))
              | Some (_, cut) ->
                  ctx.dummies <- ctx.dummies + cut.missing;
                  Mspg.serial [ decompose ctx cut.v1; decompose ctx cut.v2 ])))

let recognize ~complete dag =
  Dag.check_acyclic dag;
  let n = Dag.n_tasks dag in
  if n = 0 then invalid_arg "Recognize: empty DAG";
  let verts = List.init n (fun i -> i) in
  let ctx = make_ctx dag ~complete in
  match decompose ctx verts with
  | tree -> Ok (tree, ctx.dummies)
  | exception Reject msg -> Error msg

let of_dag dag =
  match recognize ~complete:false dag with
  | Ok (tree, _) -> Ok { Mspg.dag; tree }
  | Error m -> Error m

let of_dag_completed dag =
  match recognize ~complete:true dag with
  | Ok (tree, dummies) -> Ok ({ Mspg.dag; tree }, dummies)
  | Error m -> Error m

let is_mspg dag = match of_dag dag with Ok _ -> true | Error _ -> false

let of_dag_gspg dag =
  Dag.check_acyclic dag;
  let reduced_edges = Dag.transitive_reduction_edges dag in
  let n = Dag.n_tasks dag in
  (* count distinct dependencies, not parallel file edges *)
  let all_edges = ref [] in
  for u = 0 to n - 1 do
    List.iter (fun v -> all_edges := (u, v) :: !all_edges) (Dag.succ_ids dag u)
  done;
  let distinct = List.length (List.sort_uniq compare !all_edges) in
  let transitive = distinct - List.length reduced_edges in
  if transitive = 0 then
    match of_dag dag with Ok m -> Ok (m, 0) | Error e -> Error e
  else begin
    (* recognise on a skeleton carrying only the reduced dependencies *)
    let skeleton = Dag.create ~name:(Dag.name dag ^ "/reduced") () in
    for t = 0 to n - 1 do
      let info = Dag.task dag t in
      ignore
        (Dag.add_task skeleton ~name:info.Ckpt_dag.Task.name
           ~weight:info.Ckpt_dag.Task.weight)
    done;
    List.iter (fun (u, v) -> Dag.add_edge skeleton u v 0.) reduced_edges;
    match recognize ~complete:false skeleton with
    | Ok (tree, _) -> Ok ({ Mspg.dag; tree }, transitive)
    | Error m -> Error m
  end
