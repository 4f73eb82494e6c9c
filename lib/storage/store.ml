module Rng = Ckpt_prob.Rng
module Error = Ckpt_resilience.Error
module Journal = Ckpt_resilience.Journal

let schema_version = 1

(* ---------- configuration ---------- *)

type policy = Every_segment | Every_k of int | On_interrupt

type backend =
  | Memory
  | Disk of { path : string }
  | Replicated of { k : int }
  | Remote of { commit_latency : float; read_latency : float }

type config = { backend : backend; policy : policy; faults : Storage.config }

let default = { backend = Memory; policy = Every_segment; faults = Storage.default }

let passthrough c =
  c.backend = Memory && c.policy = Every_segment && Storage.reliable c.faults

let validate c =
  (match c.policy with
  | Every_k k when k < 1 -> invalid_arg "Store: every-k policy with k < 1"
  | Every_segment | Every_k _ | On_interrupt -> ());
  (match c.backend with
  | Memory -> ()
  | Disk { path } -> if path = "" then invalid_arg "Store: empty disk-store path"
  | Replicated { k } -> if k < 1 then invalid_arg "Store: replicated backend with k < 1"
  | Remote { commit_latency; read_latency } ->
      if
        (not (Float.is_finite commit_latency))
        || (not (Float.is_finite read_latency))
        || commit_latency < 0. || read_latency < 0.
      then invalid_arg "Store: remote latencies must be finite and non-negative");
  Storage.validate c.faults

let plan_replicas c =
  match c.backend with Replicated { k } -> k | _ -> c.faults.Storage.replicas

let backend_name = function
  | Memory -> "memory"
  | Disk _ -> "disk"
  | Replicated _ -> "replicated"
  | Remote _ -> "remote"

let policy_name = function
  | Every_segment -> "every-segment"
  | Every_k k -> Printf.sprintf "every-%d" k
  | On_interrupt -> "on-interrupt"

let parse_policy s =
  match s with
  | "every-segment" -> Ok Every_segment
  | "on-interrupt" -> Ok On_interrupt
  | _ ->
      let prefix = "every-" in
      let plen = String.length prefix in
      if String.length s > plen && String.sub s 0 plen = prefix then
        match int_of_string_opt (String.sub s plen (String.length s - plen)) with
        | Some k when k >= 1 -> Ok (Every_k k)
        | Some _ | None ->
            Result.Error
              (Printf.sprintf "invalid checkpoint policy %S (every-K needs K >= 1)" s)
      else
        Result.Error
          (Printf.sprintf
             "invalid checkpoint policy %S (expected every-segment, every-K or \
              on-interrupt)"
             s)

let fingerprint parts =
  let crc =
    List.fold_left
      (fun acc part -> Journal.crc32 (Printf.sprintf "%08lx:%s" acc part))
      0l parts
  in
  Printf.sprintf "%08lx" crc

(* ---------- disk persistence ---------- *)

(* One [persist] per store file, shared by every trial (and experiment
   cell) of a run. The file is a {!Journal} — per-line CRC, each
   record fsynced by an O_APPEND write ({!Journal.append_incr}: a
   crash mid-commit tears at most the trailing line, dropped on
   load) — whose first entry is the store header
   [__ckpt_store__ -> schema=<v> dag=<hash>]. Each record is
   [<scope>/t<trial>/s<seg> -> <schema>|<dag>|<seg>|<payload-crc>|<payload>],
   the payload being the commit instant's IEEE-754 bits: deterministic
   per (seed, trial, seg), so a resumed run recognises its own commits
   and rejects anybody else's. The last fingerprint-valid binding of a
   key wins on load. *)

type persist = {
  journal : Journal.t;
  records : (string, string) Hashtbl.t; (* key -> payload (hex bits) *)
  fp : string;
  torn : bool;
  loaded : int;
  mutable rejected : int; (* load-rejected + superseded-at-commit *)
  mutable resumed : int;
  mutable appended : int;
}

let header_key = "__ckpt_store__"
let header_value fp = Printf.sprintf "schema=%d dag=%s" schema_version fp

let render_record ~fp ~seg payload =
  Printf.sprintf "%d|%s|%d|%08lx|%s" schema_version fp seg (Journal.crc32 payload)
    payload

(* A record's own (schema, dag, seg, crc) fingerprint — validated
   independently of the journal's line CRC, so a record that survives
   framing but belongs to another schema, workflow or segment is
   rejected (and re-committed), never silently resumed. *)
let parse_record ~fp ~key value =
  match String.split_on_char '|' value with
  | [ schema; dag; seg; crc; payload ] ->
      let seg_of_key =
        match String.rindex_opt key '/' with
        | Some i when i + 2 <= String.length key && key.[i + 1] = 's' ->
            int_of_string_opt (String.sub key (i + 2) (String.length key - i - 2))
        | _ -> None
      in
      if
        int_of_string_opt schema = Some schema_version
        && dag = fp
        && int_of_string_opt seg <> None
        && seg_of_key = int_of_string_opt seg
        && crc = Printf.sprintf "%08lx" (Journal.crc32 payload)
      then Some payload
      else None
  | _ -> None

let open_persist ?(inject = fun () -> ()) ~path ~fingerprint:fp () =
  match Journal.open_ ~inject path with
  | Result.Error _ as e -> e
  | Ok journal -> (
      let check_header () =
        if Journal.length journal = 0 then begin
          Journal.append journal ~key:header_key ~value:(header_value fp);
          Ok ()
        end
        else
          match Journal.find journal header_key with
          | None ->
              Result.Error
                (Error.Store_fingerprint
                   {
                     path;
                     field = "header";
                     found = "absent";
                     expected = header_value fp;
                   })
          | Some v -> (
              match String.split_on_char ' ' v with
              | [ schema; dag ]
                when String.length schema > 7
                     && String.sub schema 0 7 = "schema="
                     && String.length dag > 4
                     && String.sub dag 0 4 = "dag=" ->
                  let found_schema =
                    String.sub schema 7 (String.length schema - 7)
                  in
                  let found_dag = String.sub dag 4 (String.length dag - 4) in
                  if found_schema <> string_of_int schema_version then
                    Result.Error
                      (Error.Store_fingerprint
                         {
                           path;
                           field = "schema";
                           found = found_schema;
                           expected = string_of_int schema_version;
                         })
                  else if found_dag <> fp then
                    Result.Error
                      (Error.Store_fingerprint
                         { path; field = "dag"; found = found_dag; expected = fp })
                  else Ok ()
              | _ ->
                  Result.Error
                    (Error.Store_fingerprint
                       { path; field = "header"; found = v; expected = header_value fp }))
      in
      match check_header () with
      | Result.Error _ as e -> e
      | exception Error.E e -> Result.Error e
      | Ok () ->
          let records = Hashtbl.create 64 in
          let rejected = ref 0 in
          List.iter
            (fun (key, value) ->
              if key <> header_key then
                match parse_record ~fp ~key value with
                | Some payload -> Hashtbl.replace records key payload
                | None -> incr rejected)
            (Journal.entries journal);
          Ok
            {
              journal;
              records;
              fp;
              torn = Journal.recovered_tail journal;
              loaded = Hashtbl.length records;
              rejected = !rejected;
              resumed = 0;
              appended = 0;
            })

let persist_path p = Journal.path p.journal
let persist_torn p = p.torn
let persist_loaded p = p.loaded
let persist_rejected p = p.rejected
let persist_resumed p = p.resumed
let persist_appended p = p.appended

(* ---------- per-trial store ---------- *)

type t = {
  config : config;
  st : Storage.t;
  persist : persist option;
  keyprefix : string;
  inject : string -> unit;
  gens : (int, int) Hashtbl.t; (* per-segment commit generation *)
  watermark : (int, int) Hashtbl.t; (* generations <= watermark are invalidated *)
  mutable regular_commits : int; (* every-k policy position *)
  mutable extra_reads : int; (* reads not seen by the fault layer *)
  mutable rejected_reads : int;
  mutable skipped : int;
  mutable resumed : int;
  mutable evictions : int;
  mutable rev_failed : int list; (* in-run read failures, newest first *)
}

let create ?(inject = fun (_ : string) -> ()) ?persist ?(scope = "") ?(trial = 0)
    config rng =
  validate config;
  (match (config.backend, persist) with
  | Disk _, None -> invalid_arg "Store: disk backend needs an open persist"
  | (Memory | Replicated _ | Remote _), Some _ ->
      invalid_arg "Store: persist attached to a non-disk backend"
  | Disk _, Some _ | (Memory | Replicated _ | Remote _), None -> ());
  let effective =
    match config.backend with
    | Replicated { k } -> { config.faults with Storage.replicas = k }
    | Memory | Disk _ | Remote _ -> config.faults
  in
  let keyprefix =
    if scope = "" then Printf.sprintf "t%d/" trial
    else Printf.sprintf "%s/t%d/" scope trial
  in
  {
    config;
    st = Storage.create ~inject effective rng;
    persist;
    keyprefix;
    inject;
    gens = Hashtbl.create 16;
    watermark = Hashtbl.create 4;
    regular_commits = 0;
    extra_reads = 0;
    rejected_reads = 0;
    skipped = 0;
    resumed = 0;
    evictions = 0;
    rev_failed = [];
  }

let config t = t.config
let faults t = t.st

type body = Durable of Storage.ckpt | Volatile
type handle = { hseg : int; gen : int; body : body }

let seg_of h = h.hseg
let durable h = match h.body with Durable _ -> true | Volatile -> false
let available t at = Storage.available t.st at

let commit_latency t =
  match t.config.backend with Remote { commit_latency; _ } -> commit_latency | _ -> 0.

let read_latency t =
  match t.config.backend with Remote { read_latency; _ } -> read_latency | _ -> 0.

let bump_gen t seg =
  let g = 1 + Option.value ~default:0 (Hashtbl.find_opt t.gens seg) in
  Hashtbl.replace t.gens seg g;
  g

let invalidated t h =
  h.gen <= Option.value ~default:0 (Hashtbl.find_opt t.watermark h.hseg)

(* Durable commits of a resumed run are recognised by their on-disk
   record (same key, same payload bits): nothing is rewritten. A
   record that exists but disagrees is fingerprint-stale — counted
   rejected and superseded by an atomic re-append. *)
let persist_record t ~seg ~at =
  match t.persist with
  | None -> ()
  | Some p ->
      let key = Printf.sprintf "%ss%d" t.keyprefix seg in
      let payload = Printf.sprintf "%Lx" (Int64.bits_of_float at) in
      (match Hashtbl.find_opt p.records key with
      | Some prior when prior = payload ->
          p.resumed <- p.resumed + 1;
          t.resumed <- t.resumed + 1
      | prior ->
          (match prior with
          | Some _ -> p.rejected <- p.rejected + 1
          | None -> ());
          Journal.append_incr p.journal ~key ~value:(render_record ~fp:p.fp ~seg payload);
          Hashtbl.replace p.records key payload;
          p.appended <- p.appended + 1)

let commit ?(interrupt = false) t ~seg ~write ~at =
  let durable =
    match t.config.policy with
    | Every_segment -> true
    | On_interrupt -> interrupt
    | Every_k k ->
        if interrupt then true
        else begin
          t.regular_commits <- t.regular_commits + 1;
          t.regular_commits mod k = 0
        end
  in
  if not durable then begin
    (* policy-skipped: local scratch only — instant, no fault
       physics, no persistence; readable within the run but not
       across a recovery line *)
    t.skipped <- t.skipped + 1;
    t.inject "store commit";
    Ok (at, { hseg = seg; gen = bump_gen t seg; body = Volatile })
  end
  else
    match Storage.commit t.st ~seg ~write ~at with
    | Result.Error _ as e -> e
    | Ok (done_at, ck) ->
        let done_at = done_at +. commit_latency t in
        persist_record t ~seg ~at:done_at;
        Ok (done_at, { hseg = seg; gen = bump_gen t seg; body = Durable ck })

type read_error = Corrupt | Rejected

let read t h ~at =
  if invalidated t h then begin
    t.inject "store read";
    t.extra_reads <- t.extra_reads + 1;
    t.rejected_reads <- t.rejected_reads + 1;
    t.rev_failed <- h.hseg :: t.rev_failed;
    Result.Error Rejected
  end
  else
    match h.body with
    | Volatile ->
        (* volatile handles live in the producing run's memory: always
           readable there, at no storage cost *)
        t.inject "store read";
        t.extra_reads <- t.extra_reads + 1;
        Ok at
    | Durable ck ->
        if Storage.read t.st ck ~at then Ok (at +. read_latency t)
        else begin
          t.rev_failed <- h.hseg :: t.rev_failed;
          Result.Error Corrupt
        end

let recovery_readable t h ~at =
  if invalidated t h then begin
    t.inject "store read";
    t.extra_reads <- t.extra_reads + 1;
    t.rejected_reads <- t.rejected_reads + 1;
    false
  end
  else
    match h.body with
    | Volatile ->
        t.inject "store read";
        t.extra_reads <- t.extra_reads + 1;
        t.rejected_reads <- t.rejected_reads + 1;
        false
    | Durable ck -> Storage.read t.st ck ~at

let invalidate t ~seg =
  t.inject "store invalidate";
  t.evictions <- t.evictions + 1;
  Hashtbl.replace t.watermark seg
    (Option.value ~default:0 (Hashtbl.find_opt t.gens seg))

let failed_reads t = List.rev t.rev_failed

type stats = {
  commits : int;
  commit_retries : int;
  commit_exhausted : int;
  reads : int;
  corrupt_reads : int;
  rejected_reads : int;
  skipped : int;
  resumed : int;
  evictions : int;
}

let zero =
  {
    commits = 0;
    commit_retries = 0;
    commit_exhausted = 0;
    reads = 0;
    corrupt_reads = 0;
    rejected_reads = 0;
    skipped = 0;
    resumed = 0;
    evictions = 0;
  }

let add a b =
  {
    commits = a.commits + b.commits;
    commit_retries = a.commit_retries + b.commit_retries;
    commit_exhausted = a.commit_exhausted + b.commit_exhausted;
    reads = a.reads + b.reads;
    corrupt_reads = a.corrupt_reads + b.corrupt_reads;
    rejected_reads = a.rejected_reads + b.rejected_reads;
    skipped = a.skipped + b.skipped;
    resumed = a.resumed + b.resumed;
    evictions = a.evictions + b.evictions;
  }

let stats t =
  let s = Storage.stats t.st in
  {
    commits = s.Storage.commits + t.skipped;
    commit_retries = s.Storage.commit_retries;
    commit_exhausted = s.Storage.commit_exhausted;
    reads = s.Storage.reads + t.extra_reads;
    corrupt_reads = s.Storage.corrupt_reads;
    rejected_reads = t.rejected_reads;
    skipped = t.skipped;
    resumed = t.resumed;
    evictions = t.evictions;
  }
