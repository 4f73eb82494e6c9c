module Rng = Ckpt_prob.Rng
module Dist = Ckpt_prob.Dist

type node = { base : float; degraded : float; pfail : float }

(* The frozen form: flat CSR adjacency, node fields in unboxed float
   arrays, and the topological order computed once. Immutable after
   construction, so one compiled graph can be shared read-only by any
   number of worker domains. Join nodes (see [add_join]) take the ids
   [nodes .. cn - 1], after every real node, with zero durations and
   pfail 0. *)
type compiled = {
  cn : int;
  nodes : int;  (* real nodes; [cn - nodes] joins follow *)
  base : float array;
  degraded : float array;
  pfail : float array;
  succ_off : int array;  (* length cn + 1 *)
  succ_tgt : int array;
  pred_off : int array;  (* length cn + 1 *)
  pred_tgt : int array;
  (* ceil (pfail * 2^53): [Rng.stream_bits53 < pthresh.(i)] is exactly
     [Rng.stream_uniform < pfail.(i)], as an immediate-int compare *)
  pthresh : int array;
  topo : int array;  (* [||] when the graph is cyclic *)
  acyclic : bool;
}

(* Per-domain scratch: one duration and one longest-path buffer, reused
   across samples so steady-state sampling allocates nothing. *)
type sampler = { graph : compiled; dur : float array; dist : float array }

type entry = { nd : node; mutable out_ : int list }

type t = {
  mutable entries : entry array;
  mutable n : int;
  mutable joins : (int list * int list) list;  (* newest first *)
  mutable n_joins : int;
  mutable cache : compiled option;  (* the graph with its join nodes *)
  mutable view : compiled option;  (* real nodes only, joins expanded *)
  mutable own : sampler option;  (* lazy scratch backing the legacy [sample] *)
}

let create () =
  { entries = [||]; n = 0; joins = []; n_joins = 0; cache = None; view = None; own = None }

let invalidate t =
  t.cache <- None;
  t.view <- None;
  t.own <- None

let add_node t ~base ~degraded ~pfail =
  if base < 0. || degraded < base then invalid_arg "Prob_dag.add_node: need 0 <= base <= degraded";
  if pfail < 0. || pfail > 1. then invalid_arg "Prob_dag.add_node: pfail not in [0,1]";
  let cap = Array.length t.entries in
  if t.n = cap then begin
    let fresh =
      Array.make (max 8 (2 * cap)) { nd = { base = 0.; degraded = 0.; pfail = 0. }; out_ = [] }
    in
    Array.blit t.entries 0 fresh 0 t.n;
    t.entries <- fresh
  end;
  let id = t.n in
  t.entries.(id) <- { nd = { base; degraded; pfail }; out_ = [] };
  t.n <- t.n + 1;
  invalidate t;
  id

let check t i fn =
  if i < 0 || i >= t.n then invalid_arg (Printf.sprintf "Prob_dag.%s: unknown node %d" fn i)

let add_edge t u v =
  check t u "add_edge";
  check t v "add_edge";
  if u = v then invalid_arg "Prob_dag.add_edge: self-loop";
  (* duplicates are accepted in O(1) here and removed once at compile
     time (sort + unique on the CSR rows), instead of a List.mem scan
     that made bulk edge insertion quadratic in the degree *)
  t.entries.(u).out_ <- v :: t.entries.(u).out_;
  invalidate t

let add_join t preds succs =
  List.iter (fun u -> check t u "add_join") preds;
  List.iter (fun v -> check t v "add_join") succs;
  if preds = [] || succs = [] then invalid_arg "Prob_dag.add_join: empty side";
  t.joins <- (preds, succs) :: t.joins;
  t.n_joins <- t.n_joins + 1;
  invalidate t

let n_nodes t = t.n
let n_joins t = t.n_joins

let node t i =
  check t i "node";
  t.entries.(i).nd

(* sort the int subarray [a.(lo) .. a.(hi-1)] ascending (compile-time
   only; allocation here is irrelevant). [Int.compare], not the
   polymorphic [compare]: the same order without a generic call per
   comparison *)
let sort_range a lo hi =
  let len = hi - lo in
  if len > 1 then begin
    let tmp = Array.sub a lo len in
    Array.sort Int.compare tmp;
    Array.blit tmp 0 a lo len
  end

(* CSR form of the [cn]-node graph with successor lists [out]: rows
   sorted and deduplicated, predecessors derived, Kahn order cached.
   Nodes [nodes .. cn - 1] are joins, with zero durations and pfail 0. *)
let freeze t ~cn out =
  let n = cn in
  let base = Array.make n 0. and degraded = Array.make n 0. and pfail = Array.make n 0. in
  for i = 0 to t.n - 1 do
    let nd = t.entries.(i).nd in
    base.(i) <- nd.base;
    degraded.(i) <- nd.degraded;
    pfail.(i) <- nd.pfail
  done;
  (* raw CSR, duplicates still present *)
  let raw_off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    raw_off.(i + 1) <- raw_off.(i) + List.length out.(i)
  done;
  let raw_tgt = Array.make (max 1 raw_off.(n)) 0 in
  for i = 0 to n - 1 do
    let k = ref raw_off.(i) in
    List.iter
      (fun v ->
        raw_tgt.(!k) <- v;
        incr k)
      out.(i)
  done;
  (* sort each row, count the unique targets, then compact *)
  for i = 0 to n - 1 do
    sort_range raw_tgt raw_off.(i) raw_off.(i + 1)
  done;
  let succ_off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let uniq = ref 0 in
    for j = raw_off.(i) to raw_off.(i + 1) - 1 do
      if j = raw_off.(i) || raw_tgt.(j) <> raw_tgt.(j - 1) then incr uniq
    done;
    succ_off.(i + 1) <- succ_off.(i) + !uniq
  done;
  let succ_tgt = Array.make (max 1 succ_off.(n)) 0 in
  for i = 0 to n - 1 do
    let k = ref succ_off.(i) in
    for j = raw_off.(i) to raw_off.(i + 1) - 1 do
      if j = raw_off.(i) || raw_tgt.(j) <> raw_tgt.(j - 1) then begin
        succ_tgt.(!k) <- raw_tgt.(j);
        incr k
      end
    done
  done;
  (* predecessors, derived from the deduplicated successor rows;
     scanning u in ascending order leaves each pred row sorted *)
  let pred_off = Array.make (n + 1) 0 in
  for j = 0 to succ_off.(n) - 1 do
    let v = succ_tgt.(j) in
    pred_off.(v + 1) <- pred_off.(v + 1) + 1
  done;
  for i = 0 to n - 1 do
    pred_off.(i + 1) <- pred_off.(i + 1) + pred_off.(i)
  done;
  let pred_tgt = Array.make (max 1 pred_off.(n)) 0 in
  let cursor = Array.copy pred_off in
  for u = 0 to n - 1 do
    for j = succ_off.(u) to succ_off.(u + 1) - 1 do
      let v = succ_tgt.(j) in
      pred_tgt.(cursor.(v)) <- u;
      cursor.(v) <- cursor.(v) + 1
    done
  done;
  (* Kahn's algorithm with an explicit stack, seeded from the
     highest node id down so low ids drain first *)
  let indeg = Array.init n (fun i -> pred_off.(i + 1) - pred_off.(i)) in
  let order = Array.make n (-1) in
  let stack = ref [] in
  for i = n - 1 downto 0 do
    if indeg.(i) = 0 then stack := i :: !stack
  done;
  let k = ref 0 in
  let rec drain () =
    match !stack with
    | [] -> ()
    | u :: rest ->
        stack := rest;
        order.(!k) <- u;
        incr k;
        for j = succ_off.(u) to succ_off.(u + 1) - 1 do
          let v = succ_tgt.(j) in
          indeg.(v) <- indeg.(v) - 1;
          if indeg.(v) = 0 then stack := v :: !stack
        done;
        drain ()
  in
  drain ();
  let acyclic = !k = n in
  let pthresh = Array.init n (fun i -> int_of_float (Float.ceil (pfail.(i) *. 0x1p53))) in
  {
    cn = n;
    nodes = t.n;
    base;
    degraded;
    pfail;
    pthresh;
    succ_off;
    succ_tgt;
    pred_off;
    pred_tgt;
    topo = (if acyclic then order else [||]);
    acyclic;
  }

let compile t =
  match t.cache with
  | Some c -> c
  | None ->
      (* join [k] (in insertion order) is node [t.n + k] *)
      let cn = t.n + t.n_joins in
      let out = Array.make cn [] in
      for i = 0 to t.n - 1 do
        out.(i) <- t.entries.(i).out_
      done;
      List.iteri
        (fun r (preds, succs) ->
          let j = cn - 1 - r in
          List.iter (fun u -> out.(u) <- j :: out.(u)) preds;
          out.(j) <- succs)
        t.joins;
      let c = freeze t ~cn out in
      t.cache <- Some c;
      c

(* The real nodes with every join expanded into direct edges from its
   predecessors to its successors: the graph the node-level API
   ([succs], [preds], [topological_order]) describes. *)
let expanded t =
  match t.view with
  | Some c -> c
  | None ->
      let c =
        if t.n_joins = 0 then compile t
        else begin
          let out = Array.init t.n (fun i -> t.entries.(i).out_) in
          List.iter
            (fun (preds, succs) ->
              List.iter (fun u -> out.(u) <- List.rev_append succs out.(u)) preds)
            t.joins;
          freeze t ~cn:t.n out
        end
      in
      t.view <- Some c;
      c

let row_to_list off tgt i =
  let acc = ref [] in
  for j = off.(i + 1) - 1 downto off.(i) do
    acc := tgt.(j) :: !acc
  done;
  !acc

let succs t i =
  check t i "succs";
  let c = expanded t in
  row_to_list c.succ_off c.succ_tgt i

let preds t i =
  check t i "preds";
  let c = expanded t in
  row_to_list c.pred_off c.pred_tgt i

let require_acyclic c fn =
  if not c.acyclic then invalid_arg (Printf.sprintf "Prob_dag.%s: cycle" fn)

let topological_order t =
  let c = expanded t in
  require_acyclic c "topological_order";
  Array.copy c.topo

let expected_work t =
  let acc = ref 0. in
  for i = 0 to t.n - 1 do
    let nd = t.entries.(i).nd in
    acc := !acc +. ((1. -. nd.pfail) *. nd.base) +. (nd.pfail *. nd.degraded)
  done;
  !acc

(* longest path over the compiled form with per-node durations in
   [dur]; [dist] is caller-provided scratch and is overwritten *)
let longest_path_dur c ~dist ~dur =
  let n = c.cn in
  Array.fill dist 0 n 0.;
  let best = ref 0. in
  let topo = c.topo and off = c.succ_off and tgt = c.succ_tgt in
  for k = 0 to n - 1 do
    let u = Array.unsafe_get topo k in
    let d = Array.unsafe_get dist u +. Array.unsafe_get dur u in
    if d > !best then best := d;
    for j = Array.unsafe_get off u to Array.unsafe_get off (u + 1) - 1 do
      let v = Array.unsafe_get tgt j in
      if d > Array.unsafe_get dist v then Array.unsafe_set dist v d
    done
  done;
  !best

let longest_path_with t f =
  let c = compile t in
  require_acyclic c "longest_path_with";
  let n = c.cn and nodes = c.nodes in
  let dist = Array.make (max 1 n) 0. in
  let best = ref 0. in
  let topo = c.topo and off = c.succ_off and tgt = c.succ_tgt in
  for k = 0 to n - 1 do
    let u = Array.unsafe_get topo k in
    (* a join lasts 0, and [d +. 0.] is [d] for every [d >= +0.] *)
    let d = Array.unsafe_get dist u +. if u < nodes then f u else 0. in
    if d > !best then best := d;
    for j = Array.unsafe_get off u to Array.unsafe_get off (u + 1) - 1 do
      let v = Array.unsafe_get tgt j in
      if d > Array.unsafe_get dist v then Array.unsafe_set dist v d
    done
  done;
  !best

let base_paths t =
  let c = compile t in
  require_acyclic c "base_paths";
  let n = c.cn in
  let top = Array.make n 0. and bottom = Array.make n 0. in
  let topo = c.topo and off = c.succ_off and tgt = c.succ_tgt and base = c.base in
  for k = 0 to n - 1 do
    let u = topo.(k) in
    let d = top.(u) +. base.(u) in
    for j = off.(u) to off.(u + 1) - 1 do
      let v = tgt.(j) in
      if d > top.(v) then top.(v) <- d
    done
  done;
  for k = n - 1 downto 0 do
    let u = topo.(k) in
    for j = off.(u) to off.(u + 1) - 1 do
      let v = tgt.(j) in
      let d = bottom.(v) +. base.(v) in
      if d > bottom.(u) then bottom.(u) <- d
    done
  done;
  (Array.sub top 0 c.nodes, Array.sub bottom 0 c.nodes)

let deterministic_makespan t =
  let c = compile t in
  require_acyclic c "deterministic_makespan";
  longest_path_dur c ~dist:(Array.make (max 1 c.cn) 0.) ~dur:c.base

let sampler c =
  require_acyclic c "sampler";
  { graph = c; dur = Array.make (max 1 c.cn) 0.; dist = Array.make (max 1 c.cn) 0. }

let sample_with s rng =
  let c = s.graph in
  let n = c.cn in
  let dur = s.dur and pthresh = c.pthresh and base = c.base and degraded = c.degraded in
  (* node states come from a native-int bulk stream ([rng] only seeds
     it), drawn in node-id order — one draw per node with pfail > 0 —
     so the draw stream, and therefore the sample, does not depend on
     which valid topological order the compiler picked. The integer
     threshold compare is bitwise [Rng.stream_uniform st < pfail.(i)]
     without leaving immediate values. *)
  let st = Rng.stream rng in
  for i = 0 to n - 1 do
    let th = Array.unsafe_get pthresh i in
    Array.unsafe_set dur i
      (if th > 0 && Rng.stream_bits53 st < th then Array.unsafe_get degraded i
       else Array.unsafe_get base i)
  done;
  longest_path_dur c ~dist:s.dist ~dur

let sample t rng =
  let s =
    match t.own with
    | Some s -> s
    | None ->
        let s = sampler (compile t) in
        t.own <- Some s;
        s
  in
  sample_with s rng

let dist_of_node t i =
  let nd = node t i in
  Dist.two_state ~p:nd.pfail nd.base nd.degraded
