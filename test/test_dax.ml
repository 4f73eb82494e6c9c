(* Tests for Ckpt_dax: the XML subset parser and the DAX workflow
   import/export, including round-trips of all generated workflows. *)

module Xml = Ckpt_dax.Xml
module Dax = Ckpt_dax.Dax
module Dag = Ckpt_dag.Dag
module Spec = Ckpt_workflows.Spec

(* --- Xml --- *)

let test_xml_basic () =
  let doc = Xml.parse "<a x=\"1\"><b/><c y='two'>text</c></a>" in
  Alcotest.(check string) "root" "a" (Xml.name doc);
  Alcotest.(check (option string)) "attr" (Some "1") (Xml.attr doc "x");
  Alcotest.(check int) "children" 2 (List.length (Xml.children doc));
  match Xml.children doc with
  | [ b; c ] ->
      Alcotest.(check string) "b" "b" (Xml.name b);
      Alcotest.(check (option string)) "c attr" (Some "two") (Xml.attr c "y")
  | _ -> Alcotest.fail "children"

let test_xml_declaration_and_comments () =
  let doc =
    Xml.parse
      "<?xml version=\"1.0\"?>\n<!-- hello -->\n<root><!-- inner --><kid/></root>\n<!-- post -->"
  in
  Alcotest.(check string) "root" "root" (Xml.name doc);
  Alcotest.(check int) "one child" 1 (List.length (Xml.children doc))

let test_xml_entities () =
  let doc = Xml.parse "<a name=\"x &amp; y &lt;z&gt;\"/>" in
  Alcotest.(check (option string)) "decoded" (Some "x & y <z>") (Xml.attr doc "name")

let test_xml_roundtrip () =
  let doc =
    Xml.Element
      ( "adag",
        [ ("name", "w&f") ],
        [ Xml.Element ("job", [ ("id", "ID0") ], [ Xml.Element ("uses", [], []) ]) ] )
  in
  let reparsed = Xml.parse (Xml.to_string doc) in
  Alcotest.(check (option string)) "escaped attr survives" (Some "w&f")
    (Xml.attr reparsed "name");
  Alcotest.(check int) "structure" 1 (List.length (Xml.children reparsed))

let expect_parse_error src =
  match Xml.parse src with
  | exception Xml.Parse_error _ -> ()
  | _ -> Alcotest.failf "accepted malformed %S" src

let test_xml_rejects_malformed () =
  List.iter expect_parse_error
    [ ""; "<a>"; "<a></b>"; "<a x=1/>"; "< a/>"; "<a/><b/>"; "<a x=\"1/>" ]

(* --- Dax --- *)

let sample_dax =
  {|<?xml version="1.0" encoding="UTF-8"?>
<!-- a tiny two-stage workflow -->
<adag xmlns="http://pegasus.isi.edu/schema/DAX" version="3.4" name="sample">
  <job id="ID00000" name="split" runtime="10.5">
    <uses file="raw.dat" link="input" size="1000"/>
    <uses file="chunk_a" link="output" size="400"/>
    <uses file="chunk_b" link="output" size="600"/>
  </job>
  <job id="ID00001" name="work" runtime="20">
    <uses file="chunk_a" link="input" size="400"/>
    <uses file="out_a" link="output" size="50"/>
  </job>
  <job id="ID00002" name="work" runtime="30">
    <uses file="chunk_b" link="input" size="600"/>
    <uses file="out_b" link="output" size="70"/>
  </job>
  <job id="ID00003" name="merge" runtime="5">
    <uses file="out_a" link="input" size="50"/>
    <uses file="out_b" link="input" size="70"/>
  </job>
  <child ref="ID00001"><parent ref="ID00000"/></child>
  <child ref="ID00002"><parent ref="ID00000"/></child>
  <child ref="ID00003"><parent ref="ID00001"/><parent ref="ID00002"/></child>
</adag>|}

let test_dax_import () =
  let dag = Dax.of_string sample_dax in
  Alcotest.(check int) "4 tasks" 4 (Dag.n_tasks dag);
  Alcotest.(check int) "4 data edges" 4 (Dag.n_edges dag);
  Alcotest.(check string) "name" "sample" (Dag.name dag);
  Alcotest.(check (float 1e-9)) "weights" 65.5 (Dag.total_weight dag);
  (* raw.dat has no producer: initial input of the split job *)
  Alcotest.(check (list (float 0.))) "initial input" [ 1000. ] (Dag.inputs dag 0);
  (* chunk sizes preserved *)
  Alcotest.(check (float 1e-9)) "data" (1000. +. 400. +. 600. +. 50. +. 70.)
    (Dag.total_data dag)

let test_dax_import_control_edge () =
  (* a child/parent pair with no shared file becomes a 0-size edge *)
  let src =
    {|<adag name="ctl">
       <job id="A" name="a" runtime="1"/>
       <job id="B" name="b" runtime="2"/>
       <child ref="B"><parent ref="A"/></child>
     </adag>|}
  in
  let dag = Dax.of_string src in
  Alcotest.(check int) "edge added" 1 (Dag.n_edges dag);
  Alcotest.(check (float 0.)) "zero size" 0. (Dag.total_data dag)

let test_dax_shared_file_identity () =
  (* one output consumed by two jobs: same file id on both edges *)
  let src =
    {|<adag name="share">
       <job id="A" name="a" runtime="1">
         <uses file="f" link="output" size="123"/>
       </job>
       <job id="B" name="b" runtime="2">
         <uses file="f" link="input" size="123"/>
       </job>
       <job id="C" name="c" runtime="3">
         <uses file="f" link="input" size="123"/>
       </job>
     </adag>|}
  in
  let dag = Dax.of_string src in
  Alcotest.(check (float 0.)) "counted once" 123. (Dag.total_data dag);
  match (Dag.succs dag 0 : (int * Dag.file) list) with
  | [ (_, f1); (_, f2) ] -> Alcotest.(check int) "same file" f1.Dag.file_id f2.Dag.file_id
  | _ -> Alcotest.fail "expected two consumers"

let expect_dax_error src =
  match Dax.of_string src with
  | exception Dax.Error _ -> ()
  | _ -> Alcotest.failf "accepted bad DAX"

let test_dax_rejects_bad_input () =
  (* duplicate job ids *)
  expect_dax_error
    {|<adag name="x"><job id="A" name="a" runtime="1"/><job id="A" name="b" runtime="1"/></adag>|};
  (* unknown ref *)
  expect_dax_error
    {|<adag name="x"><job id="A" name="a" runtime="1"/><child ref="Z"><parent ref="A"/></child></adag>|};
  (* two producers of one file *)
  expect_dax_error
    {|<adag name="x">
       <job id="A" name="a" runtime="1"><uses file="f" link="output" size="1"/></job>
       <job id="B" name="b" runtime="1"><uses file="f" link="output" size="1"/></job>
     </adag>|};
  (* cycle through control edges *)
  expect_dax_error
    {|<adag name="x">
       <job id="A" name="a" runtime="1"/><job id="B" name="b" runtime="1"/>
       <child ref="B"><parent ref="A"/></child>
       <child ref="A"><parent ref="B"/></child>
     </adag>|};
  (* no jobs *)
  expect_dax_error {|<adag name="x"/>|};
  (* wrong root *)
  expect_dax_error {|<dag name="x"><job id="A" name="a" runtime="1"/></dag>|}

let dags_equivalent a b =
  Dag.n_tasks a = Dag.n_tasks b
  && Dag.n_edges a = Dag.n_edges b
  && abs_float (Dag.total_weight a -. Dag.total_weight b) < 1e-3
  && abs_float (Dag.total_data a -. Dag.total_data b) < 1. +. (1e-6 *. Dag.total_data a)
  &&
  let ok = ref true in
  for t = 0 to Dag.n_tasks a - 1 do
    if Dag.succ_ids a t <> Dag.succ_ids b t then ok := false;
    if List.length (Dag.inputs a t) <> List.length (Dag.inputs b t) then ok := false;
    if (Dag.task a t).Ckpt_dag.Task.name <> (Dag.task b t).Ckpt_dag.Task.name then ok := false
  done;
  !ok

let test_dax_roundtrip_generators () =
  List.iter
    (fun kind ->
      let dag = Spec.generate kind ~seed:3 ~tasks:100 () in
      let rebuilt = Dax.of_string (Dax.to_string dag) in
      if not (dags_equivalent dag rebuilt) then
        Alcotest.failf "%s: DAX round-trip changed the workflow" (Spec.name kind))
    Spec.all

let test_dax_roundtrip_preserves_pipeline_results () =
  (* the real criterion: scheduling + checkpointing behave identically
     on the round-tripped workflow *)
  let dag = Spec.generate Spec.Montage ~seed:5 ~tasks:50 () in
  let rebuilt = Dax.of_string (Dax.to_string dag) in
  let run d =
    let setup = Ckpt_core.Pipeline.prepare ~dag:d ~processors:5 ~pfail:0.001 ~ccr:0.1 () in
    let cmp = Ckpt_core.Pipeline.compare_strategies setup in
    (cmp.Ckpt_core.Pipeline.em_some, cmp.Ckpt_core.Pipeline.ckpts_some)
  in
  let em1, ck1 = run dag in
  let em2, ck2 = run rebuilt in
  Alcotest.(check int) "same checkpoints" ck1 ck2;
  if abs_float (em1 -. em2) > 1e-6 *. em1 then
    Alcotest.failf "EM changed: %f vs %f" em1 em2

(* --- result-based API (the CLI's error boundary) --- *)

let test_dax_of_string_result () =
  (match Dax.of_string_result sample_dax with
  | Ok dag -> Alcotest.(check bool) "parses sample" true (Dag.n_tasks dag > 0)
  | Error e -> Alcotest.failf "sample rejected: %s" (Ckpt_resilience.Error.to_string e));
  match Dax.of_string_result ~source:"inline" "<adag name=\"x\"/>" with
  | Ok _ -> Alcotest.fail "empty adag accepted"
  | Error (Ckpt_resilience.Error.Parse { source; message }) ->
      Alcotest.(check string) "source threaded" "inline" source;
      Alcotest.(check bool) "message set" true (message <> "")
  | Error e -> Alcotest.failf "wrong error: %s" (Ckpt_resilience.Error.to_string e)

let test_dax_of_file_missing () =
  match Dax.of_file "/nonexistent/ckptwf.dax" with
  | Ok _ -> Alcotest.fail "missing file accepted"
  | Error (Ckpt_resilience.Error.Io _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Ckpt_resilience.Error.to_string e)

let test_dax_of_file_malformed () =
  let path = Filename.temp_file "ckptwf" ".dax" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "this is not XML";
      close_out oc;
      match Dax.of_file path with
      | Ok _ -> Alcotest.fail "garbage accepted"
      | Error (Ckpt_resilience.Error.Parse { source; _ }) ->
          Alcotest.(check string) "source is the path" path source
      | Error e -> Alcotest.failf "wrong error: %s" (Ckpt_resilience.Error.to_string e))

let test_dax_load_save () =
  let dag = Spec.generate Spec.Genome ~seed:7 ~tasks:50 () in
  let path = Filename.temp_file "ckptwf" ".dax" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dax.save path dag;
      let rebuilt =
        match Dax.of_file path with
        | Ok d -> d
        | Error e -> Alcotest.failf "reload rejected: %s" (Ckpt_resilience.Error.to_string e)
      in
      Alcotest.(check bool) "load(save(x)) = x" true (dags_equivalent dag rebuilt))

let suite =
  [
    Alcotest.test_case "xml basics" `Quick test_xml_basic;
    Alcotest.test_case "xml declaration/comments" `Quick test_xml_declaration_and_comments;
    Alcotest.test_case "xml entities" `Quick test_xml_entities;
    Alcotest.test_case "xml roundtrip" `Quick test_xml_roundtrip;
    Alcotest.test_case "xml rejects malformed" `Quick test_xml_rejects_malformed;
    Alcotest.test_case "dax import" `Quick test_dax_import;
    Alcotest.test_case "dax control edges" `Quick test_dax_import_control_edge;
    Alcotest.test_case "dax shared files" `Quick test_dax_shared_file_identity;
    Alcotest.test_case "dax rejects bad input" `Quick test_dax_rejects_bad_input;
    Alcotest.test_case "dax roundtrip (generators)" `Quick test_dax_roundtrip_generators;
    Alcotest.test_case "dax roundtrip (pipeline)" `Quick test_dax_roundtrip_preserves_pipeline_results;
    Alcotest.test_case "dax load/save" `Quick test_dax_load_save;
    Alcotest.test_case "dax of_string_result" `Quick test_dax_of_string_result;
    Alcotest.test_case "dax of_file missing" `Quick test_dax_of_file_missing;
    Alcotest.test_case "dax of_file malformed" `Quick test_dax_of_file_malformed;
  ]
