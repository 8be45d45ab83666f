(* Observability layer (lib/obs): metrics registries, the causal span
   tracer, and their wiring into the web/rules layers.

   The tracer tests toggle the global [Obs.set_enabled] switch; every
   test restores [false] and clears the ring so suites stay
   independent. *)

open Xchange

let with_tracing f =
  Obs.Trace.clear ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.Trace.clear ())
    f

(* ---- metrics cells ---- *)

let test_metrics_cells () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "m.count" in
  Obs.Metrics.Counter.incr c;
  Obs.Metrics.Counter.incr ~by:4 c;
  Alcotest.(check int) "counter accumulates" 5 (Obs.Metrics.Counter.value c);
  let c' = Obs.Metrics.counter m "m.count" in
  Obs.Metrics.Counter.incr c';
  Alcotest.(check int) "same (name, labels) is the same cell" 6 (Obs.Metrics.Counter.value c);
  let g = Obs.Metrics.gauge m "m.gauge" in
  Obs.Metrics.Gauge.set g 2.5;
  Obs.Metrics.Gauge.set_max g 1.0;
  Alcotest.(check (float 0.)) "set_max keeps the max" 2.5 (Obs.Metrics.Gauge.value g);
  let h = Obs.Metrics.histogram m "m.hist" in
  Alcotest.(check (float 0.)) "empty histogram max" 0. (Obs.Metrics.Histogram.max h);
  List.iter (Obs.Metrics.Histogram.observe h) [ 2.; 8.; 5. ];
  Alcotest.(check int) "hist count" 3 (Obs.Metrics.Histogram.count h);
  Alcotest.(check (float 0.)) "hist sum" 15. (Obs.Metrics.Histogram.sum h);
  Alcotest.(check (float 0.)) "hist mean" 5. (Obs.Metrics.Histogram.mean h);
  Alcotest.(check (float 0.)) "hist max" 8. (Obs.Metrics.Histogram.max h);
  Alcotest.check_raises "kind clash rejected"
    (Invalid_argument "Obs.Metrics: m.count already registered as a counter, requested as a gauge")
    (fun () -> ignore (Obs.Metrics.gauge m "m.count"))

(* ---- snapshots, labels, merge, aggregation ---- *)

let test_labels_merge_total () =
  let open Obs.Metrics in
  let m_a = create () and m_b = create () in
  Counter.incr ~by:3 (counter m_a ~labels:[ ("kind", "event") ] "net.in");
  Counter.incr ~by:2 (counter m_a ~labels:[ ("kind", "get") ] "net.in");
  Counter.incr ~by:5 (counter m_b ~labels:[ ("kind", "event") ] "net.in");
  (* snapshot-time labels stamp the component's origin before merging *)
  let merged =
    merge
      [ snapshot ~labels:[ ("host", "a") ] m_a; snapshot ~labels:[ ("host", "b") ] m_b ]
  in
  Alcotest.(check int) "three distinct (name, labels) rows" 3 (List.length merged);
  Alcotest.(check (float 0.)) "total aggregates across label sets" 10. (total merged "net.in");
  (match find merged ~labels:[ ("host", "a" ); ("kind", "event") ] "net.in" with
  | Some (Int 3) -> ()
  | _ -> Alcotest.fail "find with labels");
  (* samples agreeing on (name, labels) fold together *)
  let folded = merge [ snapshot m_a; snapshot m_b ] in
  (match find folded ~labels:[ ("kind", "event") ] "net.in" with
  | Some (Int 8) -> ()
  | v ->
      Alcotest.failf "merge folds agreeing samples, got %s"
        (match v with Some _ -> "other value" | None -> "none"));
  (* pull cells are sampled at snapshot time, idempotently registered *)
  let live = ref 7 in
  let m = create () in
  counter_fn m "m.live" (fun () -> !live);
  counter_fn m "m.live" (fun () -> !live);
  gauge_fn m "m.depth" (fun () -> 1.5);
  live := 9;
  let snap = snapshot m in
  Alcotest.(check int) "pull cells registered once" 2 (List.length snap);
  match (find snap "m.live", find snap "m.depth") with
  | Some (Int 9), Some (Float 1.5) -> ()
  | _ -> Alcotest.fail "pull cells sample current values"

(* ---- span tracer: parenting, ordering, virtual clock ---- *)

let test_span_tree () =
  with_tracing @@ fun () ->
  let root = Obs.Trace.begin_span ~cat:"net" ~name:"message" ~vt:10 () in
  Alcotest.(check int) "open span is the ambient parent" root (Obs.Trace.current ());
  let child = Obs.Trace.begin_span ~name:"event" ~vt:10 () in
  ignore (Obs.Trace.instant ~name:"detect" ~vt:12 ());
  Obs.Trace.end_span child ~vt:15;
  Obs.Trace.end_span root ~args:[ ("msgs", "1") ] ~vt:20;
  (* a later root, plus work re-parented under the first via run_under *)
  let late = Obs.Trace.begin_span ~name:"tick" ~vt:30 () in
  Obs.Trace.end_span late ~vt:30;
  Obs.Trace.run_under root (fun () ->
      let d = Obs.Trace.begin_span ~name:"delivery" ~vt:40 () in
      Obs.Trace.end_span d ~vt:41);
  let spans = Obs.Trace.spans () in
  Alcotest.(check (list string))
    "ordered by (vt_begin, id)"
    [ "message"; "event"; "detect"; "tick"; "delivery" ]
    (List.map (fun s -> s.Obs.Trace.name) spans);
  let by_name n = List.find (fun s -> s.Obs.Trace.name = n) spans in
  Alcotest.(check int) "root has no parent" 0 (by_name "message").Obs.Trace.parent;
  Alcotest.(check int) "nesting parents" root (by_name "event").Obs.Trace.parent;
  Alcotest.(check int) "instant under innermost" child (by_name "detect").Obs.Trace.parent;
  Alcotest.(check int) "run_under forces cross-time parent" root
    (by_name "delivery").Obs.Trace.parent;
  Alcotest.(check int) "tick is a fresh root" 0 (by_name "tick").Obs.Trace.parent;
  Alcotest.(check int) "end args appended" 20 (by_name "message").Obs.Trace.vt_end;
  Alcotest.(check (list (pair string string)))
    "completion args retained" [ ("msgs", "1") ] (by_name "message").Obs.Trace.args;
  (* the chrome export is one "X" event per span plus flow links *)
  match Obs.Trace.to_chrome_json () with
  | Json.List evs ->
      let complete =
        List.filter
          (function Json.Obj fs -> List.assoc_opt "ph" fs = Some (Json.Str "X") | _ -> false)
          evs
      in
      Alcotest.(check int) "one complete event per span" 5 (List.length complete)
  | _ -> Alcotest.fail "chrome export is a list"

let test_ring_eviction () =
  with_tracing @@ fun () ->
  Obs.Trace.set_capacity 4;
  Fun.protect ~finally:(fun () -> Obs.Trace.set_capacity 4096) @@ fun () ->
  for i = 1 to 7 do
    ignore (Obs.Trace.instant ~name:(Printf.sprintf "s%d" i) ~vt:i ())
  done;
  Alcotest.(check int) "ring keeps the bound" 4 (List.length (Obs.Trace.spans ()));
  Alcotest.(check int) "evictions counted" 3 (Obs.Trace.dropped ());
  Alcotest.(check (list string))
    "oldest evicted first" [ "s4"; "s5"; "s6"; "s7" ]
    (List.map (fun s -> s.Obs.Trace.name) (Obs.Trace.spans ()))

let test_disabled_is_free () =
  Obs.Trace.clear ();
  Obs.set_enabled false;
  let id = Obs.Trace.begin_span ~name:"x" ~vt:0 () in
  Alcotest.(check int) "begin_span returns the null span" 0 id;
  Obs.Trace.end_span id ~vt:1;
  ignore (Obs.Trace.instant ~name:"y" ~vt:2 ());
  Alcotest.(check int) "nothing retained" 0 (List.length (Obs.Trace.spans ()));
  Alcotest.(check int) "run_under is identity" 41 (Obs.Trace.run_under 7 (fun () -> 41))

(* ---- tracing never changes observable behaviour (property) ---- *)

let pair_rules () =
  let atom label =
    Event_query.on ~label (Qterm.el label [ Qterm.pos (Qterm.var "K") ])
  in
  Ruleset.make
    ~rules:
      [
        Eca.make ~name:"pair"
          ~on:(Event_query.within (Event_query.conj [ atom "a"; atom "b" ]) 200)
          (Action.insert ~doc:"/out" (Construct.cel "hit" [ Construct.cvar "K" ]));
      ]
    "n"

let run_pair_scenario ~traced events =
  Message.reset_ids ();
  Event.reset_ids ();
  Obs.Trace.clear ();
  Obs.set_enabled traced;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let node = node_exn ~host:"n.example" (pair_rules ()) in
  Store.add_doc (Node.store node) "/out" (Term.elem ~ord:Term.Unordered "out" []);
  let net = Network.create () in
  Network.add_node_exn net node;
  List.iter
    (fun (is_a, k) ->
      let label = if is_a then "a" else "b" in
      Network.inject net ~to_:"n.example" ~label
        (Term.elem label [ Term.text (Printf.sprintf "k%d" k) ]))
    events;
  Network.run net ~until:1_000;
  let out = Xml.to_string (Option.get (Store.doc (Node.store node) "/out")) in
  (Node.firings node, out, Node.logs node, List.length (Obs.Trace.spans ()))

let prop_tracing_transparent =
  QCheck.Test.make ~count:30 ~name:"tracing on/off: identical firings, store, logs"
    QCheck.(small_list (pair bool (int_bound 3)))
    (fun events ->
      let f_off, out_off, logs_off, spans_off = run_pair_scenario ~traced:false events in
      let f_on, out_on, logs_on, spans_on = run_pair_scenario ~traced:true events in
      if spans_off <> 0 then QCheck.Test.fail_report "disabled run retained spans";
      if events <> [] && spans_on = 0 then
        QCheck.Test.fail_report "traced run retained no spans";
      f_off = f_on && String.equal out_off out_on && logs_off = logs_on)

(* ---- every cell the end-to-end bench reads is registered ---- *)

(* The cell names bench/e2e/layers.ml reads, by component, each with
   whether it is expected in this run: a hatch that turns a component
   off also removes its cells.  [Obs.Metrics.total] reads an absent
   name as 0, so a renamed or deleted cell would silently zero a
   per-layer metric; this list pins them.  The exception is the three
   [store.index*] cells of the deleted term index, which the bench
   still reads and which read 0 until it drops them. *)
let bench_cells =
  [
    (true, [ "sched.executed"; "sched.max_queue" ]);
    ( true,
      [ "transport.messages"; "transport.bytes"; "transport.dropped"; "transport.duplicated" ] );
    (true, [ "net.remote_fetches"; "net.fallback_misses" ]);
    (true, [ "node.duplicate_events"; "node.events_in"; "node.firings" ]);
    (not Escape.no_wal, [ "wal.appends"; "wal.snapshots"; "wal.bytes" ]);
    ( true,
      [
        "engine.rules_fed";
        "engine.rules_skipped";
        "engine.join.pairs_probed";
        "engine.live_instances";
        "engine.condition_evaluations";
      ] );
    (not Escape.no_subindex, [ "subindex.candidates"; "subindex.lookups"; "subindex.refuted" ]);
    (not Escape.no_share, [ "alpha.hits"; "alpha.evaluations" ]);
    (not Escape.no_share, [ "beta.hits"; "beta.steps"; "beta.pairs_probed" ]);
    ( true,
      [
        "store.query_cache_hits";
        "store.query_cache_misses";
      ] );
    (true, [ "query.plan_cache_hits"; "query.plan_cache_misses"; "query.fingerprint_pruned" ]);
  ]

let test_bench_cells_registered () =
  Message.reset_ids ();
  Event.reset_ids ();
  let node = node_exn ~host:"n.example" (pair_rules ()) in
  Store.add_doc (Node.store node) "/out" (Term.elem ~ord:Term.Unordered "out" []);
  let net = Network.create () in
  Network.add_node_exn net node;
  List.iter
    (fun label ->
      Network.inject net ~to_:"n.example" ~label (Term.elem label [ Term.text "k1" ]))
    [ "a"; "b" ];
  Network.run net ~until:1_000;
  let snap = Network.metrics_snapshot net in
  let total = Obs.Metrics.total snap in
  let ts = Network.transport_stats net in
  Alcotest.(check (float 0.))
    "transport.messages backs Transport.stats"
    (float_of_int ts.Transport.messages) (total "transport.messages");
  Alcotest.(check (float 0.))
    "transport.events backs Transport.stats"
    (float_of_int ts.Transport.events) (total "transport.events");
  Alcotest.(check (float 0.))
    "node.firings backs the Node accessor"
    (float_of_int (Node.firings node)) (total "node.firings");
  Alcotest.(check (float 0.))
    "node.events_in counts the injected events" 2. (total "node.events_in");
  (* per-host label stamped onto the node's samples *)
  (match Obs.Metrics.find snap ~labels:[ ("host", "n.example") ] "node.firings" with
  | Some (Obs.Metrics.Int 1) -> ()
  | _ -> Alcotest.fail "node samples carry the host label");
  let registered =
    List.map
      (fun (s : Obs.Metrics.sample) -> s.Obs.Metrics.name)
      (snap @ Obs.Metrics.snapshot Simulate.metrics)
  in
  List.iter
    (fun (expected, names) ->
      if expected then
        List.iter
          (fun name -> Alcotest.(check bool) (name ^ " registered") true (List.mem name registered))
          names)
    bench_cells

let suite =
  ( "obs",
    [
      Alcotest.test_case "metrics cells" `Quick test_metrics_cells;
      Alcotest.test_case "labels, merge, total, pull cells" `Quick test_labels_merge_total;
      Alcotest.test_case "span tree on the virtual clock" `Quick test_span_tree;
      Alcotest.test_case "ring-buffer eviction" `Quick test_ring_eviction;
      Alcotest.test_case "disabled tracer is inert" `Quick test_disabled_is_free;
      QCheck_alcotest.to_alcotest prop_tracing_transparent;
      Alcotest.test_case "every cell the e2e bench reads exists" `Quick
        test_bench_cells_registered;
    ] )
