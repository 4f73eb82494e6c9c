(* The benchmark's own statistics: quantiles agree with Python's
   statistics.quantiles, the tail percentile keeps ten samples beyond
   it, self time subtracts children and probes, and passes pool before
   any quantile is taken. Expected values were computed with Python's
   statistics module. *)

module S = Perfbench.Sample
module T = Perfbench.Trace
module J = Perfbench.Json

let close = Alcotest.float 1e-9

let median_and_quartiles () =
  let odd = [ 7.; 1.; 3.; 5.; 9.; 11.; 2. ] and even = [ 4.; 8.; 15.; 16.; 23.; 42. ] in
  Alcotest.check close "odd median" 5. (S.median odd);
  Alcotest.check close "even median" 15.5 (S.median even);
  Alcotest.(check (pair close close)) "odd quartiles" (2., 9.) (S.quartiles odd);
  Alcotest.(check (pair close close)) "even quartiles" (7., 27.75) (S.quartiles even);
  (* the exclusive method extrapolates past the largest sample *)
  Alcotest.check close "p90 of six" 47.7 (S.permille even 900);
  Alcotest.check close "spread" ((27.75 -. 7.) /. 15.5) (S.spread even)

let tail_percentile () =
  let tail n = S.tail_permille n in
  Alcotest.(check (option int)) "19 samples: none" None (tail 19);
  Alcotest.(check (option int)) "20 samples: median" (Some 500) (tail 20);
  Alcotest.(check (option int)) "100 samples: p90" (Some 900) (tail 100);
  Alcotest.(check (option int)) "199 samples: p90" (Some 900) (tail 199);
  Alcotest.(check (option int)) "200 samples: p95" (Some 950) (tail 200);
  Alcotest.(check (option int)) "1000 samples: p99" (Some 990) (tail 1000);
  Alcotest.(check (option int)) "10000 samples: p99.9" (Some 999) (tail 10_000);
  let xs = List.init 200 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (option (pair int close))) "value" (Some (950, 190.95)) (S.tail xs)

let span_self_time () =
  let t = T.create () in
  let a = T.record t ~parent:(-1) ~name:"a" ~start_ns:0 ~stop_ns:100 ~probe:false in
  let b = T.record t ~parent:a ~name:"b" ~start_ns:10 ~stop_ns:30 ~probe:false in
  (* re-issued after b closed, while a was still open *)
  ignore (T.record t ~parent:b ~name:"p" ~start_ns:40 ~stop_ns:55 ~probe:true);
  ignore (T.record t ~parent:a ~name:"c" ~start_ns:60 ~stop_ns:70 ~probe:false);
  ignore (T.record t ~parent:a ~name:"c" ~start_ns:65 ~stop_ns:75 ~probe:false);
  let self = List.map (fun (s, n) -> (s.T.name, n)) (T.self_times (T.spans t)) in
  Alcotest.(check (list (pair string int)))
    "self times"
    [ ("a", 100 - (20 + 15 + 15)); ("b", 20 - 15); ("p", 15); ("c", 10); ("c", 10) ]
    self;
  let layers = List.map (fun l -> (l.T.layer, l.T.self_ns, l.T.calls)) (T.by_layer (T.spans t)) in
  Alcotest.(check (list (triple string int int)))
    "by layer"
    [ ("a", 50, 1); ("b", 5, 1); ("p", 15, 1); ("c", 20, 2) ]
    layers;
  (* a probe slower than the call it splits leaves the parent at zero *)
  let t = T.create () in
  let q = T.record t ~parent:(-1) ~name:"q" ~start_ns:0 ~stop_ns:10 ~probe:false in
  ignore (T.record t ~parent:q ~name:"r" ~start_ns:10 ~stop_ns:40 ~probe:true);
  Alcotest.(check int) "clamped" 0 (snd (List.hd (T.self_times (T.spans t))))

let live_spans () =
  let t = T.create () in
  let spin () = ignore (Sys.opaque_identity (List.init 10_000 Fun.id)) in
  T.span t "outer" (fun () ->
      spin ();
      T.span t "inner" spin);
  match T.self_times (T.spans t) with
  | [ (outer, outer_self); (inner, inner_self) ] ->
      Alcotest.(check string) "order" "inner" inner.T.name;
      Alcotest.(check int) "parent link" outer.T.id inner.T.parent;
      Alcotest.(check int) "self adds up" (T.duration outer) (outer_self + inner_self)
  | _ -> Alcotest.fail "expected two spans"

let pooling () =
  let a = [ 1.; 2.; 3.; 100. ] and b = [ 4.; 5.; 6.; 200. ] in
  Alcotest.check close "pooled median" 4.5 (S.median (S.pool [ a; b ]));
  Alcotest.check close "mean of medians differs" 4. ((S.median a +. S.median b) /. 2.);
  Alcotest.(check int) "pooled count" 8 (List.length (S.pool [ a; b ]))

let json_roundtrip () =
  let v =
    J.Obj
      [ ("s", J.Str "a\"b\n"); ("n", J.Num 0.1); ("i", J.Num 42.);
        ("a", J.Arr [ J.Bool true; J.Null; J.Num (-1.5e-7) ]) ]
  in
  Alcotest.(check bool) "roundtrip" true (J.parse (J.to_string v) = v);
  Alcotest.(check string) "digits kept" "0.1" (J.to_string (J.Num 0.1))

let () =
  Alcotest.run "perfbench"
    [
      ( "sample",
        [ Alcotest.test_case "median and quartiles" `Quick median_and_quartiles;
          Alcotest.test_case "tail percentile" `Quick tail_percentile;
          Alcotest.test_case "pooling across passes" `Quick pooling ] );
      ( "trace",
        [ Alcotest.test_case "span self time" `Quick span_self_time;
          Alcotest.test_case "live spans" `Quick live_spans ] );
      ("json", [ Alcotest.test_case "roundtrip" `Quick json_roundtrip ]);
    ]
