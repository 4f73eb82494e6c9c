(* Spans and counters for the traced run, kept in memory and written out
   when the run ends. A span is one timed call into a layer's public
   function: name, start, end, the span that caused it and the request
   it belongs to.

   Some layers run inside another layer's public function (Algorithm 2
   inside [Strategy.plan]). The trace cannot open a span inside library
   code, so it re-issues the inner layer's own public call after the
   outer one returns, as a [probe] child: the probe's duration is
   charged to the parent as if it had been covered by it, and the
   parent's self time is what remains. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  req : int;  (** the request (operation) the span belongs to *)
  name : string;
  start_ns : int;
  stop_ns : int;
  probe : bool;  (** re-issued after its parent rather than nested in it *)
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  mutable stack : int list;  (* open spans, innermost first *)
  mutable request : int;
  counters : (string, float) Hashtbl.t;
}

let create () =
  { spans = []; next_id = 0; stack = []; request = 0; counters = Hashtbl.create 16 }

let set_request t req = t.request <- req

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let record t ~parent ~name ~start_ns ~stop_ns ~probe =
  let id = fresh_id t in
  t.spans <- { id; parent; req = t.request; name; start_ns; stop_ns; probe } :: t.spans;
  id

let timed t ~parent ~probe name f =
  let id = fresh_id t in
  t.stack <- id :: t.stack;
  let start_ns = Proc.now_ns () in
  let close () =
    let stop_ns = Proc.now_ns () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; parent; req = t.request; name; start_ns; stop_ns; probe } :: t.spans
  in
  match f () with
  | v ->
      close ();
      (v, id)
  | exception e ->
      close ();
      raise e

let current t = match t.stack with p :: _ -> p | [] -> -1

(* [span_id t name f] runs [f] as a child of the innermost open span and
   returns its id too, so probes can be attached to it afterwards *)
let span_id t name f = timed t ~parent:(current t) ~probe:false name f

let span t name f = fst (span_id t name f)

(* [probe t ~parent name f] re-issues an inner layer's call after
   [parent] closed *)
let probe_id t ~parent name f = timed t ~parent ~probe:true name f

let probe t ~parent name f = fst (probe_id t ~parent name f)

let count t name v =
  Hashtbl.replace t.counters name
    (v +. Option.value (Hashtbl.find_opt t.counters name) ~default:0.)

let maximum t name v =
  match Hashtbl.find_opt t.counters name with
  | Some m when m >= v -> ()
  | _ -> Hashtbl.replace t.counters name v

let counter t name = Option.value (Hashtbl.find_opt t.counters name) ~default:0.

(* in opening order *)
let spans t = List.sort (fun a b -> compare a.id b.id) t.spans

let duration s = s.stop_ns - s.start_ns

(* total length of the union of [intervals], each clipped to [lo, hi] *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) -> if a <= cb then (total, Some (ca, max cb b)) else (total + (cb - ca), Some (a, b)))
      (0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total + (b - a)

(* probe spans sorted by start; the trace is single-threaded, so their
   intervals never overlap *)
let probes_by_start spans =
  let a = Array.of_list (List.filter (fun s -> s.probe) spans) in
  Array.sort (fun x y -> compare x.start_ns y.start_ns) a;
  a

(* probe intervals lying inside [lo, hi] *)
let probes_within probes ~lo ~hi =
  let rec first l r = if l >= r then l else
      let m = (l + r) / 2 in
      if probes.(m).start_ns < lo then first (m + 1) r else first l m
  in
  let rec collect i acc =
    if i >= Array.length probes || probes.(i).start_ns >= hi then acc
    else collect (i + 1) (if probes.(i).stop_ns <= hi then probes.(i) :: acc else acc)
  in
  collect (first 0 (Array.length probes)) []

(* Self time of every span: its duration, minus the part of its interval
   covered by its nested children or by probes re-issued while it was
   open (measurement, not work), minus the durations of its own probes
   (the inner layers they split off). Never negative: a probe slower
   than the call it splits leaves the parent at zero. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s) spans;
  let probes = probes_by_start spans in
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      let nested =
        List.filter_map (fun k -> if k.probe then None else Some (k.start_ns, k.stop_ns)) kids
        @ List.filter_map
            (fun p -> if p.id = s.id then None else Some (p.start_ns, p.stop_ns))
            (probes_within probes ~lo:s.start_ns ~hi:s.stop_ns)
      in
      let probed =
        List.fold_left (fun acc k -> if k.probe then acc + duration k else acc) 0 kids
      in
      (s, max 0 (duration s - covered ~lo:s.start_ns ~hi:s.stop_ns nested - probed)))
    spans

type layer = { layer : string; self_ns : int; total_ns : int; calls : int }

(* self time summed per span name, in order of first appearance *)
let by_layer spans =
  let table = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt table s.name with
      | Some l ->
          Hashtbl.replace table s.name
            { l with self_ns = l.self_ns + self; total_ns = l.total_ns + duration s; calls = l.calls + 1 }
      | None ->
          order := s.name :: !order;
          Hashtbl.add table s.name
            { layer = s.name; self_ns = self; total_ns = duration s; calls = 1 })
    (self_times spans);
  List.rev_map (Hashtbl.find table) !order
