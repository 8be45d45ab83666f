(* Edge cases and failure injection: nested composite events, timer
   interactions, cascade loops, failing actions, malformed inputs. *)

open Xchange

let el = Term.elem
let txt = Term.text
let ev t label payload = Event.make ~occurred_at:t ~label payload

let feed_all engine events ~until =
  List.concat_map (fun e -> Incremental.feed engine e) events
  @ Incremental.advance_to engine until

let qa = Event_query.on ~label:"a" (Qterm.el "a" [ Qterm.pos (Qterm.var "X") ])
let qb = Event_query.on ~label:"b" (Qterm.el "b" [ Qterm.pos (Qterm.var "Y") ])
let qc = Event_query.on ~label:"c" (Qterm.el "c" [ Qterm.pos (Qterm.var "Z") ])
let ea t v = ev t "a" (el "a" [ Term.int v ])
let eb t v = ev t "b" (el "b" [ Term.int v ])
let ec t v = ev t "c" (el "c" [ Term.int v ])

(* ---- nested composite events ---- *)

let test_nested_seq_in_and () =
  (* and{ seq{a,b}, c } — c may come at any time, a must precede b *)
  let q = Event_query.conj [ Event_query.seq [ qa; qb ]; qc ] in
  let engine = Incremental.create_exn q in
  let d = feed_all engine [ ec 1 0; ea 2 1; eb 3 2 ] ~until:10 in
  Alcotest.(check int) "c first still detects" 1 (List.length d);
  let engine = Incremental.create_exn q in
  let d = feed_all engine [ eb 1 0; ea 2 1; ec 3 2 ] ~until:10 in
  Alcotest.(check int) "b before a never detects" 0 (List.length d)

let test_nested_absent_in_seq () =
  (* seq{ absent{a, b} within 10, c }: the timer instance (at deadline)
     must order correctly before c *)
  let q = Event_query.seq [ Event_query.absent qa ~then_absent:qb ~for_:10; qc ] in
  let engine = Incremental.create_exn q in
  (* note: sequenced lets — OCaml evaluates (@) operands right to left *)
  let d1 = Incremental.feed engine (ea 0 1) in
  let d2 = Incremental.advance_to engine 50 in
  let d3 = Incremental.feed engine (ec 60 2) in
  let d4 = Incremental.advance_to engine 100 in
  let d = d1 @ d2 @ d3 @ d4 in
  Alcotest.(check int) "absence then c detects" 1 (List.length d);
  (* interval: starts at a (t=0), ends at c (t=60) *)
  match d with
  | [ i ] ->
      Alcotest.(check int) "starts at a" 0 i.Instance.t_start;
      Alcotest.(check int) "ends at c" 60 i.Instance.t_end
  | _ -> Alcotest.fail "expected one detection"

let test_within_zero_span () =
  (* within 0: only simultaneous constituents qualify *)
  let q = Event_query.within (Event_query.conj [ qa; qb ]) 0 in
  let engine = Incremental.create_exn q in
  Alcotest.(check int) "same tick" 1 (List.length (feed_all engine [ ea 5 1; eb 5 2 ] ~until:10));
  let engine = Incremental.create_exn q in
  Alcotest.(check int) "one tick apart" 0 (List.length (feed_all engine [ ea 5 1; eb 6 2 ] ~until:10))

let test_times_overlapping_windows () =
  (* events at 0,30,70: the (0,30) pair is 30 apart, (30,70) is 40 apart;
     with window 35 only the first pair counts.  The query must not bind
     payload variables: Times joins constituents on shared variables. *)
  let q = Event_query.times 2 (Event_query.on ~label:"a" (Qterm.el "a" [])) 35 in
  let engine = Incremental.create_exn q in
  let d = feed_all engine [ ea 0 1; ea 30 2; ea 70 3 ] ~until:100 in
  Alcotest.(check int) "only the close pair" 1 (List.length d)

let test_or_of_composites () =
  let q =
    Event_query.disj
      [
        Event_query.within (Event_query.seq [ qa; qb ]) 10;
        Event_query.times 2 (Event_query.on ~label:"c" (Qterm.el "c" [])) 10;
      ]
  in
  let engine = Incremental.create_exn q in
  let d = feed_all engine [ ea 0 1; eb 5 2; ec 6 3; ec 7 4 ] ~until:50 in
  Alcotest.(check int) "both branches detect" 2 (List.length d)

let test_agg_count_op () =
  let q =
    Event_query.Agg
      { Event_query.over = qa; var = "X"; window = 3; op = Construct.Count; bind = "N" }
  in
  let engine = Incremental.create_exn q in
  let d = feed_all engine [ ea 0 1; ea 1 2; ea 2 3; ea 3 4 ] ~until:10 in
  (* windows complete at the 3rd and 4th events *)
  Alcotest.(check int) "two windows" 2 (List.length d);
  List.iter
    (fun (i : Instance.t) ->
      Alcotest.(check (option (float 1e-9))) "count = 3" (Some 3.)
        (Option.bind (Subst.find "N" i.Instance.subst) Term.as_num))
    d

let test_duplicate_feed_rejected_semantics () =
  (* feeding the same event twice yields duplicate instances with the
     same id, but detections remain set-semantics deduplicated *)
  let engine = Incremental.create_exn (Event_query.conj [ qa; qb ]) in
  let a = ea 0 1 in
  ignore (Incremental.feed engine a);
  ignore (Incremental.feed engine a);
  let d = Incremental.feed engine (eb 1 2) in
  Alcotest.(check int) "no duplicate detections" 1 (List.length d)

(* ---- engine failure injection ---- *)

let mk_store_ops () =
  let store = Store.create () in
  Store.add_doc store "/d" (Term.elem ~ord:Term.Unordered "d" []);
  let ops =
    {
      Action.update = (fun u -> Result.map fst (Store.apply store u));
      txn_update = (fun u -> Result.map fst (Store.apply store u));
      send = (fun ~recipient:_ ~label:_ ~ttl:_ ~delay:_ _ -> ());
      log = (fun _ -> ());
      now = (fun () -> 0);
      checkpoint = (fun () -> fun () -> ());
    }
  in
  (store, ops)

let test_failing_action_reported_not_fatal () =
  let rules =
    Ruleset.make
      ~rules:
        [
          Eca.make ~name:"boom" ~on:(Event_query.on ~label:"e" (Qterm.var "E"))
            (Action.Fail "deliberate");
          Eca.make ~name:"fine" ~on:(Event_query.on ~label:"e" (Qterm.var "E"))
            (Action.insert ~doc:"/d" (Construct.cel "ok" []));
        ]
      "s"
  in
  let engine = Engine.create_exn rules in
  let store, ops = mk_store_ops () in
  let outcome =
    Engine.handle_event engine ~env:(Store.env store) ~ops (ev 1 "e" (txt "x"))
  in
  Alcotest.(check int) "error recorded" 1 (List.length outcome.Engine.errors);
  Alcotest.(check int) "other rule still fired" 1 (List.length outcome.Engine.firings);
  Alcotest.(check int) "its update applied" 1
    (List.length (Term.children (Option.get (Store.doc store "/d"))))

let test_unbound_construct_variable_in_action () =
  let rules =
    Ruleset.make
      ~rules:
        [
          Eca.make ~name:"r" ~on:(Event_query.on ~label:"e" (Qterm.var "E"))
            (Action.insert ~doc:"/d" (Construct.cel "x" [ Construct.cvar "NotBound" ]));
        ]
      "s"
  in
  let engine = Engine.create_exn rules in
  let store, ops = mk_store_ops () in
  let outcome = Engine.handle_event engine ~env:(Store.env store) ~ops (ev 1 "e" (txt "x")) in
  Alcotest.(check int) "reported as rule error" 1 (List.length outcome.Engine.errors);
  Alcotest.(check int) "store untouched" 0
    (List.length (Term.children (Option.get (Store.doc store "/d"))))

let test_cascade_loop_bounded () =
  (* a rule that reacts to updates of /d by updating /d: the node must
     cut the loop at max_cascade_depth and report it *)
  let rules =
    Ruleset.make
      ~rules:
        [
          Eca.make ~name:"loop"
            ~on:(Event_query.on ~label:"update" (Qterm.el "update" ~attrs:[ ("doc", Qterm.A_is "/d") ] []))
            (Action.insert ~doc:"/d" (Construct.cel "more" []));
          Eca.make ~name:"kick" ~on:(Event_query.on ~label:"go" (Qterm.var "E"))
            (Action.insert ~doc:"/d" (Construct.cel "first" []));
        ]
      "s"
  in
  let net = Network.create () in
  let n = node_exn ~host:"n.example" rules in
  Store.add_doc (Node.store n) "/d" (Term.elem ~ord:Term.Unordered "d" []);
  Network.add_node_exn net n;
  Network.inject net ~to_:"n.example" ~label:"go" (txt "!");
  ignore (Network.run_until_quiet net ());
  let d = Option.get (Store.doc (Node.store n) "/d") in
  Alcotest.(check bool) "loop was cut" true
    (List.length (Term.children d) <= Node.max_cascade_depth + 2);
  Alcotest.(check bool) "cascade error recorded" true
    (List.exists (fun (r, _) -> r = "<cascade>") (Node.errors n))

let test_rule_error_isolation_across_events () =
  (* an error on one event must not poison processing of the next *)
  let rules =
    Ruleset.make
      ~rules:
        [
          Eca.make ~name:"picky"
            ~on:(Event_query.on ~label:"e" (Qterm.el "e" [ Qterm.pos (Qterm.var "V") ]))
            ~if_:(Condition.Cmp (Builtin.Gt, Builtin.ovar "V", Builtin.onum 0.))
            (Action.insert ~doc:"/d" (Construct.cel "row" [ Construct.cvar "V" ]))
            ~else_:(Action.Fail "negative");
        ]
      "s"
  in
  let engine = Engine.create_exn rules in
  let store, ops = mk_store_ops () in
  let env = Store.env store in
  let o1 = Engine.handle_event engine ~env ~ops (ev 1 "e" (el "e" [ Term.int (-1) ])) in
  Alcotest.(check int) "first event errors" 1 (List.length o1.Engine.errors);
  let o2 = Engine.handle_event engine ~env ~ops (ev 2 "e" (el "e" [ Term.int 5 ])) in
  Alcotest.(check int) "second event clean" 0 (List.length o2.Engine.errors);
  Alcotest.(check int) "second event fired" 1 (List.length o2.Engine.firings)

let test_send_to_unknown_host_is_dropped () =
  let rules =
    Ruleset.make
      ~rules:
        [
          Eca.make ~name:"r" ~on:(Event_query.on ~label:"e" (Qterm.var "E"))
            (Action.raise_event ~to_:"ghost.example" ~label:"x" (Construct.cel "x" []));
        ]
      "s"
  in
  let net = Network.create () in
  let n = node_exn ~host:"n.example" rules in
  Network.add_node_exn net n;
  Network.inject net ~to_:"n.example" ~label:"e" (txt "!");
  let (_ : Clock.time) = Network.run_until_quiet net () in
  (* no crash, message accounted, network drains *)
  Alcotest.(check bool) "drained" true (Network.quiescent net);
  Alcotest.(check int) "both messages counted" 2 (Network.transport_stats net).Transport.messages

let test_event_ttl_boundary () =
  let rules =
    Ruleset.make
      ~rules:
        [ Eca.make ~name:"r" ~on:(Event_query.on ~label:"e" (Qterm.var "E")) (Action.log "got" []) ]
      "s"
  in
  let net = Network.create ~latency:(fun ~from:_ ~to_:_ -> 100) () in
  let n = node_exn ~host:"n.example" rules in
  Network.add_node_exn net n;
  (* ttl exactly equals the latency: expired check is strict (>), so it
     is still processed *)
  Network.inject net ~to_:"n.example" ~label:"e" ~ttl:100 (txt "x");
  ignore (Network.run_until_quiet net ());
  Alcotest.(check int) "boundary event processed" 1 (List.length (Node.logs n))

let test_absent_over_late_completing_start () =
  (* regression for a GC bug the equivalence property found: the
     absence window must NOT prune the start query's own constituents.
     Here the composite start spans far longer than the absence window:
     c arrives at t=0, the matching b only at t=50 (window 25). *)
  let q =
    Event_query.absent
      (Event_query.conj [ qb; qc ])
      ~then_absent:(Event_query.on ~label:"d" (Qterm.var "W"))
      ~for_:25
  in
  let engine = Incremental.create_exn q in
  let d1 = Incremental.feed engine (ec 0 1) in
  let d2 = Incremental.feed engine (eb 50 2) in
  let d3 = Incremental.advance_to engine 200 in
  Alcotest.(check int) "late-completing start still detects" 1
    (List.length (d1 @ d2 @ d3));
  match d3 with
  | [ i ] ->
      Alcotest.(check int) "interval start" 0 i.Instance.t_start;
      Alcotest.(check int) "deadline = end of start + window" 75 i.Instance.t_end
  | _ -> Alcotest.fail "expected the timer detection"

(* ---- transactional compound actions ---- *)

let test_atomic_rollback () =
  let rules =
    Ruleset.make
      ~rules:
        [
          Eca.make ~name:"tx" ~on:(Event_query.on ~label:"go" (Qterm.var "E"))
            (Action.atomic
               [
                 Action.insert ~doc:"/d" (Construct.cel "one" []);
                 Action.raise_event ~to_:"other.example" ~label:"side" (Construct.cel "x" []);
                 Action.Fail "boom";
               ]);
        ]
      "s"
  in
  let net = Network.create () in
  let n = node_exn ~host:"n.example" rules in
  Store.add_doc (Node.store n) "/d" (Term.elem ~ord:Term.Unordered "d" []);
  Network.add_node_exn net n;
  Network.inject net ~to_:"n.example" ~label:"go" (txt "!");
  ignore (Network.run_until_quiet net ());
  (* the insert was rolled back and the raised event never left *)
  Alcotest.(check int) "store rolled back" 0
    (List.length (Term.children (Option.get (Store.doc (Node.store n) "/d"))));
  Alcotest.(check int) "no side-effect message (only the injection)" 1
    (Network.transport_stats net).Transport.messages;
  Alcotest.(check bool) "failure reported" true (Node.errors n <> []);
  (* exactly one event was processed: the injection — the rolled-back
     insert's update event never cascaded *)
  Alcotest.(check (float 0.)) "no update cascade" 1.
    (Obs.Metrics.total
       (Obs.Metrics.snapshot (Engine.metrics (Node.engine n)))
       "engine.events_seen")

let test_atomic_commit () =
  let rules =
    Ruleset.make
      ~rules:
        [
          Eca.make ~name:"tx" ~on:(Event_query.on ~label:"go" (Qterm.var "E"))
            (Action.atomic
               [
                 Action.insert ~doc:"/d" (Construct.cel "one" []);
                 Action.raise_event ~to_:"n.example" ~label:"done" (Construct.cel "x" []);
                 Action.insert ~doc:"/d" (Construct.cel "two" []);
               ]);
          Eca.make ~name:"obs" ~on:(Event_query.on ~label:"done" (Qterm.var "E"))
            (Action.log "committed" []);
        ]
      "s"
  in
  let net = Network.create () in
  let n = node_exn ~host:"n.example" rules in
  Store.add_doc (Node.store n) "/d" (Term.elem ~ord:Term.Unordered "d" []);
  Network.add_node_exn net n;
  Network.inject net ~to_:"n.example" ~label:"go" (txt "!");
  ignore (Network.run_until_quiet net ());
  Alcotest.(check int) "both inserts applied" 2
    (List.length (Term.children (Option.get (Store.doc (Node.store n) "/d"))));
  Alcotest.(check (list string)) "buffered event delivered after commit" [ "committed" ]
    (Node.logs n)

let test_atomic_reads_own_writes () =
  (* optimistic execution: conditions inside the transaction see writes *)
  let rules =
    Ruleset.make
      ~rules:
        [
          Eca.make ~name:"tx" ~on:(Event_query.on ~label:"go" (Qterm.var "E"))
            (Action.atomic
               [
                 Action.insert ~doc:"/d" (Construct.cel "flag" []);
                 Action.If
                   ( Condition.In (Condition.Local "/d", Qterm.el "flag" []),
                     Action.log "saw own write" [],
                     Action.Fail "did not see own write" );
               ]);
        ]
      "s"
  in
  let net = Network.create () in
  let n = node_exn ~host:"n.example" rules in
  Store.add_doc (Node.store n) "/d" (Term.elem ~ord:Term.Unordered "d" []);
  Network.add_node_exn net n;
  Network.inject net ~to_:"n.example" ~label:"go" (txt "!");
  ignore (Network.run_until_quiet net ());
  Alcotest.(check (list string)) "read own write" [ "saw own write" ] (Node.logs n)

let test_atomic_syntax () =
  match Parser.parse_action {|atomic { insert into "/d" x[]; fail "no" }|} with
  | Ok (Action.Atomic [ _; _ ] as a) ->
      Alcotest.(check bool) "roundtrip" true (Parser.parse_action (Printer.action_to_string a) = Ok a)
  | Ok _ -> Alcotest.fail "unexpected shape"
  | Error e -> Alcotest.fail e

(* ---- delayed event raising ---- *)

let test_delayed_raise () =
  let rules =
    Ruleset.make
      ~rules:
        [
          Eca.make ~name:"schedule" ~on:(Event_query.on ~label:"go" (Qterm.var "E"))
            (Action.raise_event ~delay:500 ~to_:"n.example" ~label:"later" (Construct.cel "later" []));
          Eca.make ~name:"receive" ~on:(Event_query.on ~label:"later" (Qterm.var "E"))
            (Action.log "arrived" []);
        ]
      "s"
  in
  let net = Network.create ~latency:(fun ~from:_ ~to_:_ -> 5) () in
  let n = node_exn ~host:"n.example" rules in
  Network.add_node_exn net n;
  Network.inject net ~to_:"n.example" ~label:"go" (txt "!");
  Network.run net ~until:400;
  Alcotest.(check (list string)) "not yet delivered" [] (Node.logs n);
  Network.run net ~until:600;
  Alcotest.(check (list string)) "delivered after the delay" [ "arrived" ] (Node.logs n)

let test_delayed_raise_syntax () =
  match Parser.parse_action {|raise to "x.example" ping ping[] ttl 1 s after 5 min|} with
  | Ok (Action.Raise { ttl = Some t; delay = Some d; _ }) ->
      Alcotest.(check int) "ttl" (Clock.seconds 1) t;
      Alcotest.(check int) "delay" (Clock.minutes 5) d;
      (* and it roundtrips *)
      let a = Action.raise_event ~ttl:(Clock.seconds 1) ~delay:(Clock.minutes 5) ~to_:"x.example" ~label:"ping" (Construct.cel "ping" []) in
      Alcotest.(check bool) "roundtrip" true
        (Parser.parse_action (Printer.action_to_string a) = Ok a)
  | Ok _ -> Alcotest.fail "unexpected action shape"
  | Error e -> Alcotest.fail e

(* ---- label-indexed dispatch ---- *)

let test_index_equivalence () =
  (* the label index must not change observable behaviour, including
     absence timers on rules the index skips *)
  let rules =
    Ruleset.make
      ~rules:
        [
          Eca.make ~name:"on-a" ~on:qa (Action.log "a" []);
          Eca.make ~name:"absent-b"
            ~on:(Event_query.absent qb ~then_absent:qc ~for_:10)
            (Action.log "b-unanswered" []);
          Eca.make ~name:"wild" ~on:(Event_query.on (Qterm.var "E")) (Action.log "any" []);
        ]
      "s"
  in
  let run ~index =
    let engine = Engine.create_exn ~index rules in
    let store, ops = mk_store_ops () in
    let logged = ref [] in
    let ops = { ops with Action.log = (fun l -> logged := l :: !logged) } in
    let env = Store.env store in
    List.iter
      (fun e -> ignore (Engine.handle_event engine ~env ~ops e))
      [ ea 0 1; eb 5 2; ea 30 3; ec 40 4 ];
    ignore (Engine.advance engine ~env ~ops 100);
    List.rev !logged
  in
  Alcotest.(check (list string)) "indexed = unindexed" (run ~index:false) (run ~index:true);
  (* and the absence fired despite b/c not being in on-a's labels *)
  Alcotest.(check bool) "absence detected" true (List.mem "b-unanswered" (run ~index:true))

(* ---- message loss and compensation ---- *)

let test_absence_compensates_message_loss () =
  (* the shop expects a payment confirmation; the bank's answer is lost
     in transit; the absence rule compensates — Thesis 5's negation as
     the tool for "errors and exceptional situations" *)
  let shop_rules =
    Ruleset.make
      ~rules:
        [
          Eca.make ~name:"ask" ~on:(Event_query.on ~label:"order" (Qterm.var "E"))
            (Action.raise_event ~to_:"bank.example" ~label:"charge" (Construct.cel "charge" []));
          Eca.make ~name:"ok" ~on:(Event_query.on ~label:"charged" (Qterm.var "E"))
            (Action.log "payment confirmed" []);
          Eca.make ~name:"timeout"
            ~on:
              (Event_query.absent
                 (Event_query.on ~label:"order" (Qterm.var "E"))
                 ~then_absent:(Event_query.on ~label:"charged" (Qterm.var "F"))
                 ~for_:(Clock.minutes 5))
            (Action.log "no confirmation: compensating" []);
        ]
      "shop"
  in
  let bank_rules =
    Ruleset.make
      ~rules:
        [
          Eca.make ~name:"charge" ~on:(Event_query.on ~label:"charge" (Qterm.var "E"))
            (Action.raise_event ~to_:"shop.example" ~label:"charged" (Construct.cel "charged" []));
        ]
      "bank"
  in
  let run ~lossy =
    let drop m =
      lossy
      &&
      match m.Message.body with
      | Message.Event e -> String.equal e.Event.label "charged"
      | Message.Get _ | Message.Response _ | Message.Update _ -> false
    in
    let net = Network.create ~faults:{ Transport.no_faults with drop } () in
    let shop = node_exn ~host:"shop.example" shop_rules in
    let bank = node_exn ~host:"bank.example" bank_rules in
    Network.add_node_exn net shop;
    Network.add_node_exn net bank;
    Network.inject net ~to_:"shop.example" ~label:"order" (txt "!");
    Network.run net ~until:(Clock.minutes 10);
    (Node.logs shop, (Network.transport_stats net).Transport.dropped)
  in
  let healthy_logs, healthy_drops = run ~lossy:false in
  Alcotest.(check (list string)) "healthy run confirms" [ "payment confirmed" ] healthy_logs;
  Alcotest.(check int) "nothing dropped" 0 healthy_drops;
  let lossy_logs, lossy_drops = run ~lossy:true in
  Alcotest.(check (list string)) "lost confirmation compensated"
    [ "no confirmation: compensating" ] lossy_logs;
  Alcotest.(check int) "the confirmation was dropped" 1 lossy_drops

(* ---- deterministic replay ---- *)

let test_deterministic_replay () =
  let build () =
    (* replay from the same initial state: event-id lanes are allocated
       from a process-global well at node creation, and ids appear in
       serialized envelopes (hence in transport.bytes) *)
    Event.reset_ids ();
    Message.reset_ids ();
    let rules =
      Ruleset.make
        ~rules:
          [
            Eca.make ~name:"fwd" ~on:(Event_query.on ~label:"t" (Qterm.var "E"))
              (Action.raise_event ~to_:"b.example" ~label:"u" (Construct.cel "u" []));
          ]
        "s"
    in
    let net = Network.create () in
    let a = node_exn ~host:"a.example" rules in
    let b = node_exn ~host:"b.example" (Ruleset.make "b") in
    Network.add_node_exn net a;
    Network.add_node_exn net b;
    for i = 1 to 20 do
      Network.inject net ~to_:"a.example" ~label:"t" (Term.int i)
    done;
    ignore (Network.run_until_quiet net ());
    let s = Network.transport_stats net in
    (s.Transport.messages, s.Transport.bytes, Network.clock net)
  in
  let r1 = build () in
  let r2 = build () in
  Alcotest.(check bool) "bit-identical replay" true (r1 = r2)

let suite =
  ( "edge",
    [
      Alcotest.test_case "nested seq inside and" `Quick test_nested_seq_in_and;
      Alcotest.test_case "absence timer inside seq" `Quick test_nested_absent_in_seq;
      Alcotest.test_case "zero-width windows" `Quick test_within_zero_span;
      Alcotest.test_case "times window boundaries" `Quick test_times_overlapping_windows;
      Alcotest.test_case "disjunction of composites" `Quick test_or_of_composites;
      Alcotest.test_case "count aggregation" `Quick test_agg_count_op;
      Alcotest.test_case "duplicate events dedupe" `Quick test_duplicate_feed_rejected_semantics;
      Alcotest.test_case "failing actions are isolated" `Quick test_failing_action_reported_not_fatal;
      Alcotest.test_case "unbound construct variables" `Quick test_unbound_construct_variable_in_action;
      Alcotest.test_case "update cascade loops are bounded" `Quick test_cascade_loop_bounded;
      Alcotest.test_case "errors do not poison later events" `Quick test_rule_error_isolation_across_events;
      Alcotest.test_case "messages to unknown hosts drop" `Quick test_send_to_unknown_host_is_dropped;
      Alcotest.test_case "ttl boundary is inclusive" `Quick test_event_ttl_boundary;
      Alcotest.test_case "absence keeps its start's constituents (GC regression)" `Quick
        test_absent_over_late_completing_start;
      Alcotest.test_case "atomic compounds roll back" `Quick test_atomic_rollback;
      Alcotest.test_case "atomic compounds commit" `Quick test_atomic_commit;
      Alcotest.test_case "transactions read their own writes" `Quick test_atomic_reads_own_writes;
      Alcotest.test_case "atomic surface syntax" `Quick test_atomic_syntax;
      Alcotest.test_case "delayed raising (scheduled events)" `Quick test_delayed_raise;
      Alcotest.test_case "delayed raising syntax" `Quick test_delayed_raise_syntax;
      Alcotest.test_case "label index preserves semantics" `Quick test_index_equivalence;
      Alcotest.test_case "absence compensates message loss" `Quick test_absence_compensates_message_loss;
      Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
    ] )
