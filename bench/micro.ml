(* Micro-benchmarks (Bechamel): the inner loops the experiments rest on,
   plus the DESIGN.md ablation (ordered vs unordered matching). *)

open Xchange
open Bechamel
open Toolkit

let catalog =
  Term.elem ~ord:Term.Unordered "catalog"
    (List.init 200 (fun i ->
         Term.elem "product"
           [
             Term.elem "name" [ Term.text (Printf.sprintf "p%d" i) ];
             Term.elem "price" [ Term.int (i mod 100) ];
           ]))

let ordered_catalog =
  Term.elem ~ord:Term.Ordered "catalog" (Term.children catalog)

let product_query =
  Qterm.el "product"
    [
      Qterm.pos (Qterm.el "name" [ Qterm.pos (Qterm.var "N") ]);
      Qterm.pos (Qterm.el "price" [ Qterm.pos (Qterm.numq 42.) ]);
    ]

let ordered_query =
  Qterm.el ~ord:Term.Ordered ~spec:Qterm.Partial "product"
    [
      Qterm.pos (Qterm.el "name" [ Qterm.pos (Qterm.var "N") ]);
      Qterm.pos (Qterm.el "price" [ Qterm.pos (Qterm.numq 42.) ]);
    ]

let bench_simulate_unordered =
  Test.make ~name:"simulate: unordered partial (200 products)"
    (Staged.stage (fun () -> Simulate.matches_anywhere product_query catalog))

let bench_simulate_ordered =
  Test.make ~name:"simulate: ordered partial (200 products)"
    (Staged.stage (fun () -> Simulate.matches_anywhere ordered_query ordered_catalog))

let sample_program =
  {|ruleset s {
      rule r: on seq{a{{item[var I]}}, b{{item[var I]}}} within 2 h
        if in doc("/d") c{{x[var I]}}
        do { insert into "/out" row[$I]; raise to "x.example" done done[$I] }
    }|}

let bench_parse =
  Test.make ~name:"parser: rule set (1 rule)"
    (Staged.stage (fun () -> Result.get_ok (Parser.parse_ruleset sample_program)))

let sample_xml =
  Xml.to_string catalog

let bench_xml_parse =
  Test.make ~name:"xml: parse 200-product catalog"
    (Staged.stage (fun () -> Xml.parse_exn sample_xml))

let feed_events =
  Array.init 64 (fun i ->
      Event.make ~occurred_at:i
        ~label:(if i mod 8 = 0 then "b" else "a")
        (Term.elem (if i mod 8 = 0 then "b" else "a") [ Term.int i ]))

let incremental_query =
  Event_query.within
    (Event_query.conj
       [ Event_query.on ~label:"a" (Qterm.el "a" [ Qterm.pos (Qterm.var "X") ]);
         Event_query.on ~label:"b" (Qterm.el "b" [ Qterm.pos (Qterm.var "Y") ]) ])
    16

let bench_incremental =
  Test.make ~name:"incremental: feed 64 events (and-within)"
    (Staged.stage (fun () ->
         let e = Incremental.create_exn incremental_query in
         Array.iter (fun ev -> ignore (Incremental.feed e ev)) feed_events))

let rdf_graph =
  Rdf.of_list
    (List.concat
       (List.init 30 (fun i ->
            [
              { Rdf.s = Rdf.Iri (Printf.sprintf "c%d" i); p = Rdf.rdfs_sub_class_of; o = Rdf.Iri (Printf.sprintf "c%d" (i + 1)) };
              { Rdf.s = Rdf.Iri (Printf.sprintf "x%d" i); p = Rdf.rdf_type; o = Rdf.Iri (Printf.sprintf "c%d" i) };
            ])))

let bench_rdfs =
  Test.make ~name:"rdf: RDFS closure (30-deep class chain)"
    (Staged.stage (fun () -> Rdf.rdfs_closure rdf_graph))

let tests =
  [
    bench_simulate_unordered;
    bench_simulate_ordered;
    bench_parse;
    bench_xml_parse;
    bench_incremental;
    bench_rdfs;
  ]

let run () =
  Fmt.pr "@.## Micro-benchmarks (Bechamel, monotonic clock)@.@.";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:None () in
  let grouped = Test.make_grouped ~name:"micro" ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with Some [ est ] -> est | _ -> Float.nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) !rows in
  Util.print_table ~title:"time per run" ~header:[ "benchmark"; "ns/run"; "us/run" ]
    (List.map
       (fun (name, ns) -> [ name; Printf.sprintf "%.0f" ns; Printf.sprintf "%.2f" (ns /. 1000.) ])
       rows)
