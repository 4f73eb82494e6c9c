module Rng = Ckpt_prob.Rng
module Dist = Ckpt_prob.Dist

type node = { base : float; degraded : float; pfail : float }

(* The frozen structure: flat CSR adjacency and the topological order
   computed once, with no node weights. Join nodes (see [add_join])
   take the ids [nodes .. cn - 1], after every real node. *)
type graph = {
  cn : int;
  nodes : int;  (* real nodes; [cn - nodes] joins follow *)
  succ_off : int array;  (* length cn + 1 *)
  succ_tgt : int array;
  pred_off : int array;  (* length cn + 1 *)
  pred_tgt : int array;
  topo : int array;  (* [||] when the graph is cyclic *)
  acyclic : bool;
}

(* The joined graph and its expanded view (every join replaced by the
   direct edges it stands for), which is derived from the joined graph
   on first use. Shared by every graph reweighted onto it, from any
   domain: two domains that derive the view at once store equal
   graphs, so a race only repeats the work. *)
type topology = { joined : graph; expanded : graph option Atomic.t }

(* The frozen form: a topology plus the node fields in unboxed float
   arrays of length [cn], joins at 0. Immutable after construction, so
   one compiled graph can be shared read-only by any number of worker
   domains. *)
type compiled = {
  top : topology;
  base : float array;
  degraded : float array;
  pfail : float array;
  (* ceil (pfail * 2^53): [Rng.stream_bits53 < pthresh.(i)] is exactly
     [Rng.stream_uniform < pfail.(i)], as an immediate-int compare *)
  pthresh : int array;
}

(* Per-domain scratch: one duration and one longest-path buffer, reused
   across samples so steady-state sampling allocates nothing. *)
type sampler = { graph : compiled; dur : float array; dist : float array }

(* A builder holds its nodes in [base]/[degraded]/[pfail] (capacity
   grows by doubling) and its edges as successor lists; a reweighted
   graph ([frozen]) holds its compiled form and no edge list. *)
type t = {
  mutable n : int;
  mutable base : float array;
  mutable degraded : float array;
  mutable pfail : float array;
  mutable out_ : int list array;
  mutable joins : (int list * int list) list;  (* newest first *)
  mutable n_joins : int;
  mutable cache : compiled option;  (* the graph with its join nodes *)
  mutable own : sampler option;  (* lazy scratch backing the legacy [sample] *)
  frozen : bool;
}

let create () =
  {
    n = 0;
    base = [||];
    degraded = [||];
    pfail = [||];
    out_ = [||];
    joins = [];
    n_joins = 0;
    cache = None;
    own = None;
    frozen = false;
  }

let mutate t fn =
  if t.frozen then invalid_arg (Printf.sprintf "Prob_dag.%s: a reweighted graph is frozen" fn);
  t.cache <- None;
  t.own <- None

let check_node fn ~base ~degraded ~pfail =
  if base < 0. || degraded < base then
    invalid_arg (Printf.sprintf "Prob_dag.%s: need 0 <= base <= degraded" fn);
  if pfail < 0. || pfail > 1. then invalid_arg (Printf.sprintf "Prob_dag.%s: pfail not in [0,1]" fn)

let grow a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let add_node t ~base ~degraded ~pfail =
  check_node "add_node" ~base ~degraded ~pfail;
  mutate t "add_node";
  let cap = Array.length t.base in
  if t.n = cap then begin
    let cap = max 8 (2 * cap) in
    t.base <- grow t.base cap 0.;
    t.degraded <- grow t.degraded cap 0.;
    t.pfail <- grow t.pfail cap 0.;
    t.out_ <- grow t.out_ cap []
  end;
  let id = t.n in
  t.base.(id) <- base;
  t.degraded.(id) <- degraded;
  t.pfail.(id) <- pfail;
  t.out_.(id) <- [];
  t.n <- t.n + 1;
  id

let check t i fn =
  if i < 0 || i >= t.n then invalid_arg (Printf.sprintf "Prob_dag.%s: unknown node %d" fn i)

let add_edge t u v =
  check t u "add_edge";
  check t v "add_edge";
  if u = v then invalid_arg "Prob_dag.add_edge: self-loop";
  mutate t "add_edge";
  (* duplicates are accepted in O(1) here and removed once at compile
     time (sort + unique on the CSR rows), instead of a List.mem scan
     that made bulk edge insertion quadratic in the degree *)
  t.out_.(u) <- v :: t.out_.(u)

let add_join t preds succs =
  List.iter (fun u -> check t u "add_join") preds;
  List.iter (fun v -> check t v "add_join") succs;
  if preds = [] || succs = [] then invalid_arg "Prob_dag.add_join: empty side";
  mutate t "add_join";
  t.joins <- (preds, succs) :: t.joins;
  t.n_joins <- t.n_joins + 1

let n_nodes t = t.n
let n_joins t = t.n_joins

let node t i =
  check t i "node";
  { base = t.base.(i); degraded = t.degraded.(i); pfail = t.pfail.(i) }

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
   Nodes [nodes .. cn - 1] are joins. *)
let freeze ~cn ~nodes out =
  let n = cn in
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
  {
    cn = n;
    nodes;
    succ_off;
    succ_tgt;
    pred_off;
    pred_tgt;
    topo = (if acyclic then order else [||]);
    acyclic;
  }

(* [a]'s first [n] entries at length [cn], zeros after *)
let padded a ~n ~cn =
  let b = Array.make cn 0. in
  Array.blit a 0 b 0 n;
  b

(* The node fields at [cn] entries, joins at 0 *)
let weigh top ~base ~degraded ~pfail =
  let pthresh =
    Array.init top.joined.cn (fun i -> int_of_float (Float.ceil (pfail.(i) *. 0x1p53)))
  in
  { top; base; degraded; pfail; pthresh }

(* the builder's joined graph, frozen: join [k] (in insertion order) is
   node [t.n + k] *)
let freeze_joined t =
  let cn = t.n + t.n_joins in
  let out = Array.make cn [] in
  Array.blit t.out_ 0 out 0 t.n;
  List.iteri
    (fun r (preds, succs) ->
      let j = cn - 1 - r in
      List.iter (fun u -> out.(u) <- j :: out.(u)) preds;
      out.(j) <- succs)
    t.joins;
  { joined = freeze ~cn ~nodes:t.n out; expanded = Atomic.make None }

let compile t =
  match t.cache with
  | Some c -> c
  | None ->
      let top = freeze_joined t in
      let n = t.n and cn = top.joined.cn in
      let c =
        weigh top ~base:(padded t.base ~n ~cn) ~degraded:(padded t.degraded ~n ~cn)
          ~pfail:(padded t.pfail ~n ~cn)
      in
      t.cache <- Some c;
      c

(* The real nodes with every join expanded into direct edges from its
   predecessors to its successors: the graph the node-level API
   ([succs], [preds], [topological_order]) describes. Derived from the
   joined graph alone, whose rows hold the same edge sets as the
   builder's lists once sorted and deduplicated, so it is the same
   graph whether the joined one was built or reweighted. *)
let expanded_graph top =
  let g = top.joined in
  if g.cn = g.nodes then g
  else
    match Atomic.get top.expanded with
    | Some e -> e
    | None ->
        let out =
          Array.init g.nodes (fun u ->
              let acc = ref [] in
              for x = g.succ_off.(u) to g.succ_off.(u + 1) - 1 do
                let v = g.succ_tgt.(x) in
                if v < g.nodes then acc := v :: !acc
                else
                  for y = g.succ_off.(v) to g.succ_off.(v + 1) - 1 do
                    acc := g.succ_tgt.(y) :: !acc
                  done
              done;
              !acc)
        in
        let e = freeze ~cn:g.nodes ~nodes:g.nodes out in
        Atomic.set top.expanded (Some e);
        e

let expanded t = expanded_graph (compile t).top

let topology t = match t.cache with Some c -> c.top | None -> freeze_joined t

let reweight top ~base ~degraded ~pfail =
  let n = top.joined.nodes and cn = top.joined.cn in
  if Array.length base <> n || Array.length degraded <> n || Array.length pfail <> n then
    invalid_arg "Prob_dag.reweight: one weight per real node";
  for i = 0 to n - 1 do
    check_node "reweight" ~base:base.(i) ~degraded:degraded.(i) ~pfail:pfail.(i)
  done;
  let sized a = if cn = n then a else padded a ~n ~cn in
  let base = sized base and degraded = sized degraded and pfail = sized pfail in
  {
    n;
    base;
    degraded;
    pfail;
    out_ = [||];
    joins = [];
    n_joins = cn - n;
    cache = Some (weigh top ~base ~degraded ~pfail);
    own = None;
    frozen = true;
  }

let row_to_list off tgt i =
  let acc = ref [] in
  for j = off.(i + 1) - 1 downto off.(i) do
    acc := tgt.(j) :: !acc
  done;
  !acc

let succs t i =
  check t i "succs";
  let g = expanded t in
  row_to_list g.succ_off g.succ_tgt i

let preds t i =
  check t i "preds";
  let g = expanded t in
  row_to_list g.pred_off g.pred_tgt i

let require_acyclic g fn =
  if not g.acyclic then invalid_arg (Printf.sprintf "Prob_dag.%s: cycle" fn)

let topological_order t =
  let g = expanded t in
  require_acyclic g "topological_order";
  Array.copy g.topo

let expected_work t =
  let acc = ref 0. in
  for i = 0 to t.n - 1 do
    let pfail = t.pfail.(i) in
    acc := !acc +. ((1. -. pfail) *. t.base.(i)) +. (pfail *. t.degraded.(i))
  done;
  !acc

(* longest path over the graph [g] with per-node durations in [dur];
   [dist] is caller-provided scratch and is overwritten *)
let longest_path_dur g ~dist ~dur =
  let n = g.cn in
  Array.fill dist 0 n 0.;
  let best = ref 0. in
  let topo = g.topo and off = g.succ_off and tgt = g.succ_tgt in
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
  let g = (compile t).top.joined in
  require_acyclic g "longest_path_with";
  let n = g.cn and nodes = g.nodes in
  let dist = Array.make (max 1 n) 0. in
  let best = ref 0. in
  let topo = g.topo and off = g.succ_off and tgt = g.succ_tgt in
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
  let g = c.top.joined in
  require_acyclic g "base_paths";
  let n = g.cn in
  let top = Array.make n 0. and bottom = Array.make n 0. in
  let topo = g.topo and off = g.succ_off and tgt = g.succ_tgt and base = c.base in
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
  (Array.sub top 0 g.nodes, Array.sub bottom 0 g.nodes)

let deterministic_makespan t =
  let c = compile t in
  let g = c.top.joined in
  require_acyclic g "deterministic_makespan";
  longest_path_dur g ~dist:(Array.make (max 1 g.cn) 0.) ~dur:c.base

let sampler c =
  let g = c.top.joined in
  require_acyclic g "sampler";
  { graph = c; dur = Array.make (max 1 g.cn) 0.; dist = Array.make (max 1 g.cn) 0. }

let sample_with s rng =
  let c = s.graph in
  let n = c.top.joined.cn in
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
  longest_path_dur c.top.joined ~dist:s.dist ~dur

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
