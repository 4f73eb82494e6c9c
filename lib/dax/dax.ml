module Dag = Ckpt_dag.Dag
module Task = Ckpt_dag.Task

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Import                                                              *)
(* ------------------------------------------------------------------ *)

type uses = { file_name : string; link : [ `Input | `Output ]; size : float }

type job = { job_id : string; job_name : string; runtime : float; uses : uses list }

let parse_uses node =
  let file_name =
    match Xml.attr node "file" with
    | Some f -> f
    | None -> (
        (* DAX 2 nests <filename file=".."/>; accept the name attr too *)
        match Xml.attr node "name" with
        | Some f -> f
        | None -> error "uses element without file attribute")
  in
  let link =
    match Xml.attr node "link" with
    | Some "input" -> `Input
    | Some "output" -> `Output
    | Some other -> error "uses %s: unsupported link %S" file_name other
    | None -> error "uses %s: missing link attribute" file_name
  in
  let size =
    match Xml.attr node "size" with
    | None -> 0.
    | Some s -> (
        match float_of_string_opt s with
        | Some v when v >= 0. -> v
        | _ -> error "uses %s: bad size %S" file_name s)
  in
  { file_name; link; size }

let parse_job node =
  let job_id =
    match Xml.attr node "id" with Some i -> i | None -> error "job without id"
  in
  let job_name = Option.value ~default:"task" (Xml.attr node "name") in
  let runtime =
    match Xml.attr node "runtime" with
    | Some s -> (
        match float_of_string_opt s with
        | Some v when v >= 0. -> v
        | _ -> error "job %s: bad runtime %S" job_id s)
    | None -> 0.
  in
  let uses =
    List.filter_map
      (fun child ->
        match Xml.name child with "uses" -> Some (parse_uses child) | _ -> None)
      (Xml.children node)
  in
  { job_id; job_name; runtime; uses }

let of_string src =
  let root = try Xml.parse src with Xml.Parse_error { position; message } ->
    error "XML error at offset %d: %s" position message
  in
  if Xml.name root <> "adag" then error "root element is <%s>, expected <adag>" (Xml.name root);
  let dag_name = Option.value ~default:"dax" (Xml.attr root "name") in
  let jobs =
    List.filter_map
      (fun child -> match Xml.name child with "job" -> Some (parse_job child) | _ -> None)
      (Xml.children root)
  in
  if jobs = [] then error "adag contains no jobs";
  let dag = Dag.create ~name:dag_name () in
  let task_of_job = Hashtbl.create 64 in
  List.iter
    (fun job ->
      if Hashtbl.mem task_of_job job.job_id then error "duplicate job id %s" job.job_id;
      let task = Dag.add_task dag ~name:job.job_name ~weight:job.runtime in
      Hashtbl.replace task_of_job job.job_id task)
    jobs;
  (* producers: file name -> (task, dag file id), first producer wins;
     a file output by two jobs is rejected (not a DAG of files) *)
  let producer = Hashtbl.create 64 in
  List.iter
    (fun job ->
      let task = Hashtbl.find task_of_job job.job_id in
      List.iter
        (fun u ->
          if u.link = `Output then begin
            if Hashtbl.mem producer u.file_name then
              error "file %s has two producers" u.file_name;
            let fid = Dag.add_file dag ~producer:task ~size:u.size in
            Hashtbl.replace producer u.file_name (task, fid)
          end)
        job.uses)
    jobs;
  (* consumers: data edges for produced files, initial inputs
     otherwise; a job listing the same input file twice is tolerated *)
  let seen_edges = Hashtbl.create 256 in
  List.iter
    (fun job ->
      let task = Hashtbl.find task_of_job job.job_id in
      List.iter
        (fun u ->
          if u.link = `Input then
            match Hashtbl.find_opt producer u.file_name with
            | Some (src_task, fid) ->
                if src_task = task then
                  error "job %s consumes its own output %s" job.job_id u.file_name;
                if not (Hashtbl.mem seen_edges (src_task, task, fid)) then begin
                  Hashtbl.replace seen_edges (src_task, task, fid) ();
                  Dag.add_edge dag ~file:fid src_task task 0.
                end
            | None -> Dag.add_input dag task u.size)
        job.uses)
    jobs;
  (* child/parent declarations: validate refs; add zero-size control
     edges for dependencies not realised by any file *)
  List.iter
    (fun child_node ->
      if Xml.name child_node = "child" then begin
        let child_ref =
          match Xml.attr child_node "ref" with
          | Some r -> r
          | None -> error "child without ref"
        in
        let child_task =
          match Hashtbl.find_opt task_of_job child_ref with
          | Some t -> t
          | None -> error "child ref %s unknown" child_ref
        in
        List.iter
          (fun parent_node ->
            if Xml.name parent_node = "parent" then begin
              let parent_ref =
                match Xml.attr parent_node "ref" with
                | Some r -> r
                | None -> error "parent without ref"
              in
              let parent_task =
                match Hashtbl.find_opt task_of_job parent_ref with
                | Some t -> t
                | None -> error "parent ref %s unknown" parent_ref
              in
              if not (Dag.has_edge dag parent_task child_task) then
                Dag.add_edge dag parent_task child_task 0.
            end)
          (Xml.children child_node)
      end)
    (Xml.children root);
  (try Dag.check_acyclic dag with Invalid_argument _ -> error "workflow has a cycle");
  dag

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

(* A dag file has no intrinsic name; synthesise stable ones. An edge
   carrying a zero-size file whose file id is shared by no other edge
   could be either data or control; we export every file, so the
   round-trip preserves structure exactly. *)
let to_string dag =
  let n = Dag.n_tasks dag in
  let job_id t = Printf.sprintf "ID%05d" t in
  let file_name fid = Printf.sprintf "file_%d" fid in
  (* all files by producer — includes final outputs that no job
     consumes, which edge-walking would silently drop *)
  let produced = Array.make n [] in
  Array.iter
    (fun (f : Dag.file) -> produced.(f.Dag.producer) <- f.Dag.file_id :: produced.(f.Dag.producer))
    (Dag.files dag);
  let jobs =
    List.init n (fun t ->
        let info = Dag.task dag t in
        let outputs = List.sort_uniq compare produced.(t) in
        let inputs =
          List.sort_uniq compare
            (List.map (fun (_, (f : Dag.file)) -> f.Dag.file_id) (Dag.preds dag t))
        in
        let uses =
          List.map
            (fun fid ->
              let f = Dag.file dag fid in
              Xml.Element
                ( "uses",
                  [ ("file", file_name fid); ("link", "input");
                    ("size", Printf.sprintf "%.3f" f.Dag.size) ],
                  [] ))
            inputs
          @ List.map
              (fun fid ->
                let f = Dag.file dag fid in
                Xml.Element
                  ( "uses",
                    [ ("file", file_name fid); ("link", "output");
                      ("size", Printf.sprintf "%.3f" f.Dag.size) ],
                    [] ))
              outputs
          @ List.mapi
              (fun k size ->
                Xml.Element
                  ( "uses",
                    [ ("file", Printf.sprintf "input_%d_%d" t k); ("link", "input");
                      ("size", Printf.sprintf "%.3f" size) ],
                    [] ))
              (Dag.inputs dag t)
        in
        Xml.Element
          ( "job",
            [ ("id", job_id t); ("name", info.Task.name);
              ("runtime", Printf.sprintf "%.6f" info.Task.weight) ],
            uses ))
  in
  let deps =
    List.init n (fun t ->
        match Dag.pred_ids dag t with
        | [] -> None
        | preds ->
            Some
              (Xml.Element
                 ( "child",
                   [ ("ref", job_id t) ],
                   List.map
                     (fun p -> Xml.Element ("parent", [ ("ref", job_id p) ], []))
                     preds )))
    |> List.filter_map Fun.id
  in
  let root =
    Xml.Element
      ( "adag",
        [ ("xmlns", "http://pegasus.isi.edu/schema/DAX"); ("version", "3.4");
          ("name", Dag.name dag); ("jobCount", string_of_int n) ],
        jobs @ deps )
  in
  "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n" ^ Xml.to_string root

let of_string_result ?(source = "<dax>") src =
  match of_string src with
  | dag -> Ok dag
  | exception Error message -> Result.Error (Ckpt_resilience.Error.Parse { source; message })

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  src

let of_file path =
  match read_file path with
  | exception Sys_error message -> Result.Error (Ckpt_resilience.Error.Io { path; message })
  | src -> of_string_result ~source:path src

let save path dag =
  let oc = open_out_bin path in
  output_string oc (to_string dag);
  close_out oc
