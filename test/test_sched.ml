(* The discrete-event scheduler and the faulty-network behaviours built
   on it: one timeline for deliveries, tickers, and timer deadlines;
   real Get/Response round-trips with retry; fault injection (drop,
   duplicate, jitter) with eventual delivery and no duplicate firings. *)

open Xchange

(* ---- scheduler unit tests ---- *)

let test_sched_ordering () =
  let s = Sched.create () in
  let order = ref [] in
  let note name now = order := (name, now) :: !order in
  Sched.at s 30 (note "c");
  Sched.at s 10 (fun now ->
      note "a" now;
      (* scheduled from inside a thunk, still due within this run *)
      Sched.at s 20 (note "b"));
  Sched.at s ~holds:false 10 (note "a'");
  Alcotest.(check int) "two holding" 2 (Sched.pending s);
  Sched.run_until s 25;
  Alcotest.(check int) "clock reached" 25 (Sched.now s);
  (* a time in the past is clamped to now *)
  Sched.at s 5 (note "late");
  Sched.run_until s 100;
  Alcotest.(check (list (pair string int)))
    "time order, same-instant in insertion order, past clamped"
    [ ("a", 10); ("a'", 10); ("b", 20); ("late", 25); ("c", 30) ]
    (List.rev !order);
  Alcotest.(check int) "clock at end" 100 (Sched.now s);
  Alcotest.(check int) "nothing pending" 0 (Sched.pending s);
  Alcotest.(check (float 0.)) "all executed" 5.
    (Obs.Metrics.total (Obs.Metrics.snapshot (Sched.metrics s)) "sched.executed")

let test_sched_cancellable () =
  let s = Sched.create () in
  let fired = ref 0 in
  let cancel = Sched.cancellable s 50 (fun _ -> incr fired) in
  Alcotest.(check int) "holds before cancel" 1 (Sched.pending s);
  cancel ();
  Alcotest.(check int) "released by cancel" 0 (Sched.pending s);
  Sched.run_until s 100;
  Alcotest.(check int) "cancelled thunk never runs" 0 !fired;
  let cancel' = Sched.cancellable s 150 (fun _ -> incr fired) in
  Sched.run_until s 200;
  cancel' ();
  (* cancelling after execution is a no-op *)
  Alcotest.(check int) "ran once" 1 !fired;
  Alcotest.(check int) "holding count intact" 0 (Sched.pending s)

let test_sched_tickers_do_not_hold () =
  let s = Sched.create () in
  let ticks = ref [] in
  Sched.every s ~phase:10 ~period:100 (fun now -> ticks := now :: !ticks);
  Alcotest.(check int) "recurring occurrences never hold" 0 (Sched.pending s);
  Alcotest.(check (option int)) "no holding occurrence queued" None (Sched.next_holding s);
  Alcotest.(check bool) "but one is due" true (Sched.next_due s <> None);
  Sched.run_until s 250;
  Alcotest.(check (list int)) "phase then period" [ 10; 110; 210 ] (List.rev !ticks)

(* ---- remote fetch round-trips under faults ---- *)

let probe_rules () =
  Ruleset.make
    ~rules:
      [
        Eca.make ~name:"check" ~on:(Event_query.on ~label:"probe" (Qterm.var "E"))
          ~if_:
            (Condition.In
               ( Condition.Remote "data.example/catalog",
                 Qterm.el "product" [ Qterm.pos (Qterm.var "P") ] ))
          (Action.log "found %s" [ Builtin.ovar "P" ]);
      ]
    "asker"

let catalog () =
  Term.elem ~ord:Term.Unordered "catalog" [ Term.elem "product" [ Term.text "ball" ] ]

let probe_net ?faults () =
  let net = Network.create ?faults () in
  let asker = node_exn ~host:"asker.example" (probe_rules ()) in
  let data = node_exn ~host:"data.example" (Ruleset.make "empty") in
  Store.add_doc (Node.store data) "/catalog" (catalog ());
  Network.add_node_exn net asker;
  Network.add_node_exn net data;
  (net, asker)

(* One host's [node.*] cell: a counter's value, a summary's count (0
   before the host's first traffic). *)
let node_cell net host name =
  match Obs.Metrics.find (Network.metrics_snapshot net) ~labels:[ ("host", host) ] name with
  | Some (Obs.Metrics.Int n) -> n
  | Some (Obs.Metrics.Summary { count; _ }) -> count
  | Some (Obs.Metrics.Float _) | None -> 0

(* the acceptance scenario: the first Response is lost; the fetch
   timeout retries the Get and the condition still gets its document *)
let test_fetch_survives_dropped_response () =
  let dropped_one = ref false in
  let faults =
    {
      Transport.no_faults with
      drop =
        (fun m ->
          match m.Message.body with
          | Message.Response _ when not !dropped_one ->
              dropped_one := true;
              true
          | _ -> false);
    }
  in
  let net, asker = probe_net ~faults () in
  Network.inject net ~to_:"asker.example" ~label:"probe" (Term.text "?");
  ignore (Network.run_until_quiet net ());
  Alcotest.(check (list string)) "condition answered despite the loss" [ "found ball" ]
    (Node.logs asker);
  let cell = node_cell net "asker.example" in
  Alcotest.(check bool) "a retry happened" true (cell "node.fetch_retries" >= 1);
  Alcotest.(check int) "exactly one completion" 1 (cell "node.fetch_rtt_ms");
  Alcotest.(check int) "the loss was accounted" 1 (Network.transport_stats net).Transport.dropped

let test_fetch_gives_up_after_retries () =
  (* every Response is lost: the round-trip times out, retries, then
     reports "no document" — the rule's condition is simply false *)
  let faults =
    {
      Transport.no_faults with
      drop = (fun m -> match m.Message.body with Message.Response _ -> true | _ -> false);
    }
  in
  let net, asker = probe_net ~faults () in
  Network.inject net ~to_:"asker.example" ~label:"probe" (Term.text "?");
  let finished_at = Network.run_until_quiet net () in
  Alcotest.(check (list string)) "condition evaluated as false" [] (Node.logs asker);
  let cell = node_cell net "asker.example" in
  Alcotest.(check int) "abandoned after the last retry" 1 (cell "node.fetch_timeouts");
  Alcotest.(check int) "initial attempt + both retries" 2 (cell "node.fetch_retries");
  Alcotest.(check bool) "the miss is visible" true (Network.fallback_misses net >= 1);
  (* 3 timeouts of 60ms stacked on the probe delivery *)
  Alcotest.(check bool) "terminates" true (finished_at < 1000)

let test_rdf_round_trip_accounted () =
  (* the satellite fix: RDF fetches used to bump remote_fetches without
     accounting any traffic; now they are full Get/Response round-trips *)
  let rules =
    Ruleset.make
      ~rules:
        [
          Eca.make ~name:"check" ~on:(Event_query.on ~label:"probe" (Qterm.var "E"))
            ~if_:
              (Condition.In_rdf
                 ( Condition.Remote "data.example/graph",
                   [ { Rdf.ps = Rdf.Var "X"; pp = Rdf.Exact (Rdf.Iri "price"); po = Rdf.Var "P" } ]
                 ))
            (Action.log "priced" []);
        ]
      "asker"
  in
  let net = Network.create () in
  let asker = node_exn ~host:"asker.example" rules in
  let data = node_exn ~host:"data.example" (Ruleset.make "empty") in
  Store.add_rdf (Node.store data) "/graph"
    (Rdf.of_list [ { Rdf.s = Rdf.Iri "ball"; p = "price"; o = Rdf.Lit_num 10. } ]);
  Network.add_node_exn net asker;
  Network.add_node_exn net data;
  Network.inject net ~to_:"asker.example" ~label:"probe" (Term.text "?");
  ignore (Network.run_until_quiet net ());
  Alcotest.(check (list string)) "RDF condition answered" [ "priced" ] (Node.logs asker);
  let s = Network.transport_stats net in
  Alcotest.(check bool) "GET accounted" true (s.Transport.gets > 0);
  Alcotest.(check bool) "Response accounted" true (s.Transport.responses > 0);
  Alcotest.(check bool) "remote fetch counted" true (Network.remote_fetches net > 0)

(* ---- duplication and reordering ---- *)

let test_duplicates_fire_once () =
  (* duplicate every message: the idempotent receiver must not fire
     rules twice for the replayed events *)
  let faults = Transport.fault_profile ~seed:5 ~dup_rate:1.0 () in
  let counter_rules =
    Ruleset.make
      ~rules:
        [
          Eca.make ~name:"count" ~on:(Event_query.on ~label:"hit" (Qterm.var "E"))
            (Action.log "hit" []);
        ]
      "sink"
  in
  let net = Network.create ~faults () in
  let sink = node_exn ~host:"sink.example" counter_rules in
  Network.add_node_exn net sink;
  for i = 1 to 5 do
    Network.inject net ~to_:"sink.example" ~label:"hit" (Term.int i)
  done;
  ignore (Network.run_until_quiet net ());
  Alcotest.(check int) "one firing per distinct event" 5 (List.length (Node.logs sink));
  Alcotest.(check int) "ghost copies arrived and were ignored" 5 (Node.duplicate_events sink);
  Alcotest.(check int) "duplication accounted" 5
    (Network.transport_stats net).Transport.duplicated

let test_jitter_reorders_but_delivers_all () =
  let faults = Transport.fault_profile ~seed:11 ~max_jitter:50 () in
  let rules =
    Ruleset.make
      ~rules:
        [
          Eca.make ~name:"tag" ~on:(Event_query.on ~label:"seq" (Qterm.el "seq" [ Qterm.pos (Qterm.var "I") ]))
            (Action.log "%s" [ Builtin.ovar "I" ]);
        ]
      "sink"
  in
  let net = Network.create ~faults () in
  let sink = node_exn ~host:"sink.example" rules in
  Network.add_node_exn net sink;
  let n = 20 in
  for i = 1 to n do
    Network.inject net ~to_:"sink.example" ~label:"seq"
      (Term.elem "seq" [ Term.text (Printf.sprintf "%02d" i) ])
  done;
  ignore (Network.run_until_quiet net ());
  let arrived = Node.logs sink in
  Alcotest.(check int) "every message delivered" n (List.length arrived);
  let in_send_order = List.init n (fun i -> Printf.sprintf "%02d" (i + 1)) in
  Alcotest.(check (list string)) "same set" in_send_order (List.sort compare arrived);
  Alcotest.(check bool) "jitter reordered same-pair messages" true (arrived <> in_send_order)

let test_replay_is_deterministic_under_faults () =
  let build () =
    (* fault coins hash message ids, so replay needs the id counters
       reset — exactly what a fresh simulation process would see *)
    Message.reset_ids ();
    Event.reset_ids ();
    let faults = Transport.fault_profile ~seed:3 ~drop_rate:0.3 ~dup_rate:0.3 ~max_jitter:20 () in
    let net, asker = probe_net ~faults () in
    for i = 1 to 10 do
      Network.inject net ~to_:"asker.example" ~label:"probe" (Term.int i)
    done;
    let t = Network.run_until_quiet net () in
    let s = Network.transport_stats net in
    ( s.Transport.messages,
      s.Transport.bytes,
      s.Transport.dropped,
      s.Transport.duplicated,
      t,
      Node.logs asker )
  in
  let r1 = build () in
  let r2 = build () in
  Alcotest.(check bool) "bit-identical degraded replay" true (r1 = r2)

(* ---- precise engine deadlines (no heartbeat) ---- *)

let test_absence_fires_without_heartbeat () =
  let q =
    Event_query.absent
      (Event_query.on ~label:"ping" (Qterm.var "E"))
      ~then_absent:(Event_query.on ~label:"pong" (Qterm.var "F"))
      ~for_:100
  in
  let rules = Ruleset.make ~rules:[ Eca.make ~name:"watch" ~on:q (Action.log "no pong!" []) ] "w" in
  let net = Network.create () in
  let n = node_exn ~host:"w.example" rules in
  Network.add_node_exn net n;
  (* no heartbeat: the deadline is an occurrence of its own *)
  Network.inject net ~to_:"w.example" ~label:"ping" (Term.text "x");
  Network.run net ~until:300;
  Alcotest.(check (list string)) "deadline occurrence fired the rule" [ "no pong!" ] (Node.logs n)

(* ---- derivation timers are rule timers ---- *)

(* [asker] reacts to "a, then no b for 100" by checking a remote
   catalog that only gains its product after the prefetch for [a]: the
   reaction must read the catalog as of the deadline.  [derived] puts
   the absence in an event-derivation rule whose [late] event the ECA
   rule reacts to, instead of in the ECA rule's own event query. *)
let late_program ~derived =
  let absence =
    Event_query.absent
      (Event_query.on ~label:"a" (Qterm.var "E"))
      ~then_absent:(Event_query.on ~label:"b" (Qterm.var "F"))
      ~for_:100
  in
  let check =
    Condition.In
      (Condition.Remote "data.example/catalog", Qterm.el "product" [ Qterm.pos (Qterm.var "P") ])
  in
  let log = Action.log "found %s" [ Builtin.ovar "P" ] in
  if derived then
    Ruleset.make
      ~rules:[ Eca.make ~name:"check" ~on:(Event_query.on ~label:"late" (Qterm.var "L")) ~if_:check log ]
      ~event_rules:
        [ Deductive_event.rule ~name:"late" ~derives:"late" ~trigger:absence ~payload:(Construct.ctext "late") ]
      "asker"
  else Ruleset.make ~rules:[ Eca.make ~name:"check" ~on:absence ~if_:check log ] "asker"

let run_late ~derived ~heartbeat =
  let net = Network.create () in
  let asker = node_exn ~host:"asker.example" (late_program ~derived) in
  let adder =
    Eca.make ~name:"add"
      ~on:(Event_query.on ~label:"add" (Qterm.var "P"))
      (Action.insert ~doc:"/catalog" (Construct.cel "product" [ Construct.cvar "P" ]))
  in
  let data = node_exn ~host:"data.example" (Ruleset.make ~rules:[ adder ] "data") in
  Store.add_doc (Node.store data) "/catalog" (Term.elem ~ord:Term.Unordered "catalog" []);
  Network.add_node_exn net asker;
  Network.add_node_exn net data;
  if heartbeat then Network.enable_heartbeat net ~period:50;
  Network.inject net ~to_:"asker.example" ~label:"a" (Term.text "x");
  Network.run net ~until:20;
  Network.inject net ~to_:"data.example" ~label:"add" (Term.text "ball");
  Network.run net ~until:500;
  Node.logs asker

let test_derivation_timers_like_rule_timers () =
  List.iter
    (fun heartbeat ->
      let mode = if heartbeat then "heartbeat" else "no heartbeat" in
      let eca = run_late ~derived:false ~heartbeat in
      Alcotest.(check (list string)) ("rule timer reads the fresh catalog, " ^ mode)
        [ "found ball" ] eca;
      Alcotest.(check (list string)) ("derivation timer behaves the same, " ^ mode) eca
        (run_late ~derived:true ~heartbeat))
    [ false; true ]

(* ---- Poll and Pubsub under degraded networks ---- *)

let test_poll_under_faults () =
  let faults = Transport.fault_profile ~seed:2 ~drop_rate:0.2 ~dup_rate:0.2 ~max_jitter:5 () in
  let net = Network.create ~latency:(fun ~from:_ ~to_:_ -> 20) ~faults () in
  let producer = node_exn ~host:"prod.example" (Ruleset.make "p") in
  Store.add_doc (Node.store producer) "/feed" (Term.elem "feed" [ Term.int 1 ]);
  let consumer = node_exn ~host:"cons.example" (Ruleset.make "c") in
  Network.add_node_exn net producer;
  Network.add_node_exn net consumer;
  let stats = Poll.attach net ~poller:"cons.example" ~target:"prod.example/feed" ~period:100 in
  Network.run net ~until:500;
  ignore
    (Store.apply (Node.store producer)
       (Action.U_replace { doc = "/feed"; selector = []; content = Term.elem "feed" [ Term.int 2 ] }));
  Network.run net ~until:2000;
  (* eventual detection: lost polls are retried by the fetch policy, and
     later polling rounds re-read the resource anyway *)
  Alcotest.(check int) "initial snapshot + the one change, exactly" 2 (Poll.changes_seen stats);
  Alcotest.(check bool) "change seen after it happened" true
    (Poll.last_change_detected_at stats > 500);
  Alcotest.(check bool) "polling kept going" true (Poll.polls stats >= 15)

let test_pubsub_under_faults () =
  let faults = Transport.fault_profile ~seed:9 ~dup_rate:1.0 ~max_jitter:10 () in
  let net = Network.create ~faults () in
  let producer = node_exn ~host:"prod.example" (Pubsub.publisher_ruleset ()) in
  Store.add_doc (Node.store producer) Pubsub.subscribers_doc (Pubsub.empty_register ());
  let sub_rules =
    Ruleset.make
      ~rules:
        [
          Eca.make ~name:"recv" ~on:(Event_query.on ~label:"notify" (Qterm.var "E"))
            (Action.log "notified" []);
        ]
      "sub"
  in
  let s1 = node_exn ~host:"s1.example" sub_rules in
  let s2 = node_exn ~host:"s2.example" sub_rules in
  Network.add_node_exn net producer;
  Network.add_node_exn net s1;
  Network.add_node_exn net s2;
  Network.inject net ~sender:"s1.example" ~to_:"prod.example" ~label:"subscribe"
    (Pubsub.subscribe ~topic:"news" ~host:"s1.example");
  Network.inject net ~sender:"s2.example" ~to_:"prod.example" ~label:"subscribe"
    (Pubsub.subscribe ~topic:"news" ~host:"s2.example");
  ignore (Network.run_until_quiet net ());
  Alcotest.(check (list string)) "register is duplicate-proof" [ "s1.example"; "s2.example" ]
    (Pubsub.subscribers (Node.store producer) ~topic:"news");
  Network.inject net ~to_:"prod.example" ~label:"publish"
    (Pubsub.publish ~topic:"news" (Term.elem "body" [ Term.text "hi" ]));
  ignore (Network.run_until_quiet net ());
  (* every message was duplicated in flight, yet each subscriber reacts
     exactly once per publication *)
  Alcotest.(check (list string)) "s1 notified once" [ "notified" ] (Node.logs s1);
  Alcotest.(check (list string)) "s2 notified once" [ "notified" ] (Node.logs s2);
  Alcotest.(check bool) "duplication really happened" true
    ((Network.transport_stats net).Transport.duplicated > 0)

let suite =
  ( "sched",
    [
      Alcotest.test_case "occurrences run in (time, seq) order" `Quick test_sched_ordering;
      Alcotest.test_case "cancellable occurrences" `Quick test_sched_cancellable;
      Alcotest.test_case "tickers never hold the simulation" `Quick test_sched_tickers_do_not_hold;
      Alcotest.test_case "fetch survives a dropped Response (retry)" `Quick
        test_fetch_survives_dropped_response;
      Alcotest.test_case "fetch gives up after retries" `Quick test_fetch_gives_up_after_retries;
      Alcotest.test_case "RDF fetches are accounted round-trips" `Quick
        test_rdf_round_trip_accounted;
      Alcotest.test_case "duplicated messages fire rules once" `Quick test_duplicates_fire_once;
      Alcotest.test_case "jitter reorders, still delivers all" `Quick
        test_jitter_reorders_but_delivers_all;
      Alcotest.test_case "degraded replay is deterministic" `Quick
        test_replay_is_deterministic_under_faults;
      Alcotest.test_case "absence deadlines fire without heartbeat" `Quick
        test_absence_fires_without_heartbeat;
      Alcotest.test_case "derivation timers act like rule timers" `Quick
        test_derivation_timers_like_rule_timers;
      Alcotest.test_case "polling under drop/dup/jitter" `Quick test_poll_under_faults;
      Alcotest.test_case "pubsub under duplication" `Quick test_pubsub_under_faults;
    ] )
