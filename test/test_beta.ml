(* The shared beta network must be a pure acceleration (HACKING.md
   "Cross-rule sharing"): rules whose alpha-renamed composite subtrees
   coincide share one join pipeline, and that sharing may never change
   which rules fire, with which bindings, in which order.  Shared and
   unshared engines are compared end to end over composite-heavy rule
   bases — including alpha-equivalent twins that exercise the
   canonicalization rename, consuming rules, and a crash/recover
   differential through the WAL — plus unit pins on the sharing
   mechanics (the sharing key, the shareability gate, memo and fanout
   accounting, engine wiring). *)

open Xchange

(* A registry's cells at this instant: name -> value, 0 when absent. *)
let cells m =
  let samples = Obs.Metrics.snapshot m in
  fun name -> int_of_float (Obs.Metrics.total samples name)

(* ---- Engine: shared beta = per-rule pipelines, both dispatch paths ---- *)

let harness () =
  let store = Store.create () in
  Store.add_doc store "/orders" (Term.elem ~ord:Term.Unordered "orders" []);
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

let firing_equal (a : Eca.firing) (b : Eca.firing) =
  String.equal a.Eca.rule b.Eca.rule
  && a.Eca.branch = b.Eca.branch
  && Subst.equal a.Eca.bindings b.Eca.bindings
  && a.Eca.outcome = b.Eca.outcome

let outcome_equal (a : Engine.outcome) (b : Engine.outcome) =
  List.equal firing_equal a.Engine.firings b.Engine.firings
  && List.length a.Engine.derived_events = List.length b.Engine.derived_events
  && a.Engine.errors = b.Engine.errors

let final_time events = List.fold_left (fun acc e -> max acc (Event.time e)) 0 events + 10_000

(* alternate plain / consuming / conditional rules so the shared
   pipeline is projected through every per-rule hatch *)
let rules_of queries =
  List.mapi
    (fun i q ->
      let name = Printf.sprintf "r%d" i in
      let action = Action.insert ~doc:"/orders" (Construct.cel "row" [ Construct.ctext name ]) in
      match i mod 3 with
      | 0 -> Eca.make ~name ~on:q action
      | 1 -> Eca.make ~name ~on:q ~consume:true action
      | _ ->
          Eca.make ~name ~on:q
            ~if_:(Condition.In (Condition.Local "/orders", Qterm.el "row" []))
            action)
    queries

let shared_prop (queries, events) =
  let valid = List.filter (fun q -> Result.is_ok (Event_query.validate q)) queries in
  if valid = [] then QCheck.assume_fail ()
  else
    (* pair every query with its canonical (alpha-renamed) twin: the
       beta network must share the two pipelines and rename detections
       back into each rule's own variable names *)
    let twins = List.map (fun q -> fst (Event_query.canonicalize q)) valid in
    let rules = rules_of (valid @ twins) in
    let run ~index ~share =
      let engine = Engine.create_exn ~index ~share (Ruleset.make ~rules "p") in
      let store, ops = harness () in
      let env = Store.env store in
      let outcomes = List.map (fun e -> Engine.handle_event engine ~env ~ops e) events in
      let closing = Engine.advance engine ~env ~ops (final_time events) in
      (outcomes @ [ closing ], Option.get (Store.doc store "/orders"))
    in
    let oracle, doc_o = run ~index:false ~share:false in
    let same (a, da) =
      List.length a = List.length oracle
      && List.for_all2 outcome_equal a oracle
      && Term.equal da doc_o
    in
    List.for_all
      (fun index ->
        same (run ~index ~share:true)
        || QCheck.Test.fail_reportf "shared/unshared divergence (index=%b) on %d rules, %d events"
             index (List.length rules) (List.length events))
      [ false; true ]

let queries_arb =
  QCheck.make
    ~print:(fun qs -> Fmt.str "%a" Fmt.(list ~sep:cut Event_query.pp) qs)
    QCheck.Gen.(list_size (int_range 1 4) Gen.event_query_gen)

let stream_arb =
  QCheck.make
    ~print:(fun evs -> Fmt.str "%a" Fmt.(list ~sep:cut Event.pp) evs)
    (Gen.event_stream_gen ~labels:[ "a"; "b"; "c" ] ~max_len:20 ~max_gap:15)

let prop_shared_modes =
  QCheck.Test.make ~name:"Engine: shared beta = per-rule pipelines (both dispatch paths)"
    ~count:200
    (QCheck.pair queries_arb stream_arb)
    shared_prop

(* ---- building blocks for the unit pins ------------------------------- *)

let on_ l v = Event_query.on ~label:l (Qterm.var v)
let pair_q v1 v2 = Event_query.conj [ on_ "a" v1; on_ "b" v2 ]

let ev ?id ~t ~label payload = Event.make ?id ~occurred_at:t ~label payload

(* ---- the sharing key ------------------------------------------------ *)

let test_sharing_key () =
  let net = Beta.create () in
  let nodes () = cells (Beta.metrics net) "beta.nodes" in
  let sub ?ctx q =
    let (_ : Beta.node * Incremental.subtree_matcher) = Option.get (Beta.subscribe net ~ctx q) in
    nodes ()
  in
  ignore (sub (pair_q "X" "Y"));
  (* variable names have no sharing semantics: alpha-equivalent
     subtrees share one pipeline *)
  Alcotest.(check int) "alpha-equivalent queries share" 1 (sub (pair_q "P" "Q"));
  (* everything that changes evaluation gets its own pipeline *)
  Alcotest.(check int) "join structure distinguishes" 2 (sub (pair_q "X" "X"));
  Alcotest.(check int) "operator distinguishes" 3
    (sub (Event_query.seq [ on_ "a" "X"; on_ "b" "Y" ]));
  Alcotest.(check int) "window is part of the key" 4 (sub (Event_query.within (pair_q "X" "Y") 10));
  Alcotest.(check int) "a different window too" 5 (sub (Event_query.within (pair_q "X" "Y") 20));
  Alcotest.(check int) "enclosing window context distinguishes" 6
    (sub ~ctx:10 (pair_q "X" "Y"));
  Alcotest.(check int) "an equal key shares" 6 (sub (Event_query.within (pair_q "U" "V") 10));
  Alcotest.(check int) "every subscription counted" 8
    (cells (Beta.metrics net) "beta.registrations")

(* Every composite subtree of a query, the query included. *)
let rec subtrees (q : Event_query.t) =
  q
  ::
  (match q with
  | Event_query.Atomic _ -> []
  | Event_query.And qs | Event_query.Or qs | Event_query.Seq qs -> List.concat_map subtrees qs
  | Event_query.Within (q, _) | Event_query.Times (_, q, _) -> subtrees q
  | Event_query.Absent (q1, q2, _) -> subtrees q1 @ subtrees q2
  | Event_query.Agg spec -> subtrees spec.Event_query.over
  | Event_query.Rises spec -> subtrees spec.Event_query.r_over)

(* a subscription shares exactly when its canonical subtree and its
   context equal an earlier accepted one *)
let prop_one_node_per_key =
  let arb =
    QCheck.make
      ~print:(fun (qs, horizon) ->
        Fmt.str "%a@ horizon %a"
          Fmt.(list ~sep:cut (pair ~sep:sp Event_query.pp (option int)))
          qs
          Fmt.(option int)
          horizon)
      QCheck.Gen.(
        pair
          (list_size (int_range 1 4) (pair Gen.event_query_gen (opt (oneofl [ 10; 40 ]))))
          (opt (oneofl [ 30; 100 ])))
  in
  QCheck.Test.make ~name:"Beta: one pipeline per distinct key" ~count:200 arb
    (fun (qs, horizon) ->
      let net = Beta.create ?horizon () in
      let subs =
        List.concat_map
          (fun (q, ctx) ->
            if Result.is_error (Event_query.validate q) then []
            else
              List.concat_map
                (fun s -> [ (s, ctx); (fst (Event_query.canonicalize s), ctx) ])
                (subtrees q))
          qs
      in
      let accepted =
        List.filter (fun (q, ctx) -> Option.is_some (Beta.subscribe net ~ctx q)) subs
      in
      let keys =
        List.sort_uniq compare
          (List.map (fun (q, ctx) -> (fst (Event_query.canonicalize q), ctx)) accepted)
      in
      let s = cells (Beta.metrics net) in
      s "beta.nodes" = List.length keys && s "beta.registrations" = List.length accepted)

(* ---- the shareability gate ------------------------------------------- *)

let test_shareability_gate () =
  let net = Beta.create () in
  let sub q = Beta.subscribe net ~ctx:None q in
  Alcotest.(check bool) "atomic declined (alpha's job)" true (sub (on_ "a" "X") = None);
  Alcotest.(check bool) "timer-bearing subtree declined" true
    (sub (Event_query.absent (on_ "a" "X") ~then_absent:(on_ "b" "X") ~for_:10) = None);
  let agg =
    Event_query.Agg
      { Event_query.over = on_ "a" "V"; var = "V"; window = 2; op = Construct.Avg; bind = "A" }
  in
  Alcotest.(check bool) "accumulator declined" true (sub agg = None);
  Alcotest.(check bool) "plain join accepted" true (sub (pair_q "X" "Y") <> None);
  (* with an engine horizon, only window-bounded subtrees share *)
  let net_h = Beta.create ~horizon:100 () in
  Alcotest.(check bool) "unbounded subtree declined under horizon" true
    (Beta.subscribe net_h ~ctx:None (pair_q "X" "Y") = None);
  Alcotest.(check bool) "window-bounded subtree shares under horizon" true
    (Beta.subscribe net_h ~ctx:None (Event_query.within (pair_q "X" "Y") 50) <> None);
  Alcotest.(check bool) "window wider than the horizon declined" true
    (Beta.subscribe net_h ~ctx:None (Event_query.within (pair_q "X" "Y") 500) = None)

(* ---- sharing, memo and fanout accounting ------------------------------ *)

let test_sharing_and_fanout () =
  let net = Beta.create () in
  let _, m1 = Option.get (Beta.subscribe net ~ctx:None (pair_q "X" "Y")) in
  let _, m2 = Option.get (Beta.subscribe net ~ctx:None (pair_q "P" "Q")) in
  let s = cells (Beta.metrics net) in
  Alcotest.(check int) "one node" 1 (s "beta.nodes");
  Alcotest.(check int) "two registrations" 2 (s "beta.registrations");
  Beta.begin_batch net;
  let ea = ev ~t:1 ~label:"a" (Term.text "x") in
  Alcotest.(check int) "half a pair (first asker)" 0 (List.length (m1 ea));
  Alcotest.(check int) "half a pair (memo)" 0 (List.length (m2 ea));
  let s = cells (Beta.metrics net) in
  Alcotest.(check int) "stepped once" 1 (s "beta.steps");
  Alcotest.(check int) "served once from memo" 1 (s "beta.hits");
  Beta.begin_batch net;
  let eb = ev ~t:2 ~label:"b" (Term.text "y") in
  let r1 = m1 eb and r2 = m2 eb in
  Alcotest.(check int) "pair completed" 1 (List.length r1);
  Alcotest.(check int) "pair completed for the twin" 1 (List.length r2);
  (* each subscriber sees its OWN variable names on the same detection *)
  let binding m i = Option.get (Subst.find m (List.hd i).Instance.subst) in
  Alcotest.(check bool) "renamed to X" true (Term.equal (binding "X" r1) (Term.text "x"));
  Alcotest.(check bool) "renamed to Q" true (Term.equal (binding "Q" r2) (Term.text "y"));
  let s = cells (Beta.metrics net) in
  Alcotest.(check int) "stepped once per event" 2 (s "beta.steps");
  Alcotest.(check int) "memo hit per event" 2 (s "beta.hits");
  Alcotest.(check int) "fanout counts every delivered instance" 2 (s "beta.fanout");
  (* re-asking within the batch is a memo hit, never a re-step (a
     re-step would double-apply the event to the shared join state) *)
  let r1' = m1 eb in
  Alcotest.(check int) "re-ask served" 1 (List.length r1');
  let s = cells (Beta.metrics net) in
  Alcotest.(check int) "no extra step" 2 (s "beta.steps");
  Alcotest.(check int) "extra hit" 3 (s "beta.hits")

(* ---- engine wiring: ECA and derivation subtrees share one network ---- *)

let test_engine_beta_stats () =
  let rules =
    List.mapi
      (fun i (v1, v2) ->
        Eca.make ~name:(Printf.sprintf "r%d" i)
          ~on:(pair_q v1 v2)
          (Action.insert ~doc:"/orders" (Construct.cel "row" [ Construct.cvar v1 ])))
      [ ("X", "Y"); ("P", "Q"); ("U", "V") ]
  in
  let derivation =
    Deductive_event.rule ~name:"pair" ~derives:"paired" ~trigger:(pair_q "L" "R")
      ~payload:(Construct.cel "e" [ Construct.cvar "L" ])
  in
  let rs = Ruleset.make ~rules ~event_rules:[ derivation ] "p" in
  let engine = Engine.create_exn ~share:true rs in
  let store, ops = harness () in
  let env = Store.env store in
  let s = cells (Engine.metrics engine) in
  (* 3 ECA subtrees + 1 derivation subtree, all alpha-equivalent *)
  Alcotest.(check int) "one shared pipeline" 1 (s "beta.nodes");
  Alcotest.(check int) "four registrations" 4 (s "beta.registrations");
  ignore (Engine.handle_event engine ~env ~ops (ev ~t:1 ~label:"a" (Term.text "x")));
  let outcome = Engine.handle_event engine ~env ~ops (ev ~t:2 ~label:"b" (Term.text "y")) in
  Alcotest.(check int) "all rules fired" 3 (List.length outcome.Engine.firings);
  Alcotest.(check int) "derivation ran" 1 (List.length outcome.Engine.derived_events);
  let s = cells (Engine.metrics engine) in
  (* the derivation rule steps the node on both inputs, and the rest of
     [b]'s batch, the event [b] derives, is stepped by whoever reads it
     first — the terminal-node dispatcher, or on the full scan the first
     rule fed: three events, each stepped once on both paths *)
  Alcotest.(check int) "each event stepped once" 3 (s "beta.steps");
  (* dispatch: the dispatcher's read of [a] and of [b], then three
     rules reading both events of [b]'s batch; the full scan: three
     rules reading [a], then [b] and the derived event, less the one
     step *)
  Alcotest.(check int) "other readers served from memo" 8 (s "beta.hits");
  (* the derivation rule is fed each input (1 + 1); the full scan feeds
     every ECA rule every event of both batches (3 + 6), dispatch feeds
     the node's rules only on [b]'s batch, the one in which it detected
     something *)
  Alcotest.(check int) "rules fed" (if Escape.no_subindex then 11 else 8) (s "engine.rules_fed");
  (* the unshared engine reports no network at all *)
  let plain = Engine.create_exn ~share:false rs in
  Alcotest.(check bool) "no beta cells unshared" false
    (List.exists
       (fun (x : Obs.Metrics.sample) -> String.starts_with ~prefix:"beta." x.Obs.Metrics.name)
       (Obs.Metrics.snapshot (Engine.metrics plain)))

(* ---- terminal-node dispatch with every kind of subscriber ------------- *)

(* One shared subtree, four subscribers: the whole query of a plain rule
   and of a consuming First rule (terminal: dispatch reaches them
   through the node), a child of an [Or] (the [Or] is unbounded, so
   under a horizon it is declined and the rule keeps its own dispatch
   registration), and a derivation trigger (reached through its own
   atoms, like the [Or] rule). *)
let test_mixed_subscribers () =
  let shared v1 v2 = Event_query.within (pair_q v1 v2) 8 in
  let row name = Action.insert ~doc:"/orders" (Construct.cel "row" [ Construct.ctext name ]) in
  let rules =
    [
      Eca.make ~name:"plain" ~on:(shared "X" "Y") (row "plain");
      Eca.make ~name:"first" ~consume:true ~selection:Incremental.First ~on:(shared "P" "Q")
        (row "first");
      Eca.make ~name:"either" ~on:(Event_query.disj [ shared "U" "V"; on_ "c" "W" ]) (row "either");
      Eca.make ~name:"derived" ~on:(on_ "paired" "D") (row "derived");
    ]
  in
  let derivation =
    Deductive_event.rule ~name:"pair" ~derives:"paired" ~trigger:(shared "L" "R")
      ~payload:(Construct.cel "e" [ Construct.cvar "L" ])
  in
  let rs = Ruleset.make ~rules ~event_rules:[ derivation ] "p" in
  let events =
    [
      ev ~t:1 ~label:"a" (Term.text "x");
      ev ~t:2 ~label:"b" (Term.text "y");
      (* [b@2] is out of the window: the node detects nothing *)
      ev ~t:20 ~label:"a" (Term.text "z");
      ev ~t:22 ~label:"b" (Term.text "w");
      ev ~t:23 ~label:"c" (Term.text "c");
      (* pairs with [a@20], which [first] consumed at [b@22] *)
      ev ~t:24 ~label:"b" (Term.text "v");
    ]
  in
  let run ~index ~share =
    let engine = Engine.create_exn ~horizon:100 ~index ~share rs in
    let store, ops = harness () in
    let env = Store.env store in
    let fed = ref [] in
    let outcomes =
      List.map
        (fun e ->
          let o = Engine.handle_event engine ~env ~ops e in
          fed := cells (Engine.metrics engine) "engine.rules_fed" :: !fed;
          o)
        events
    in
    (outcomes, Option.get (Store.doc store "/orders"), List.rev !fed, cells (Engine.metrics engine))
  in
  let shared_o, doc_s, fed, s = run ~index:true ~share:true in
  let oracle, doc_o, _, _ = run ~index:false ~share:false in
  Alcotest.(check bool) "same firings, in order" true (List.for_all2 outcome_equal shared_o oracle);
  Alcotest.(check bool) "same store" true (Term.equal doc_s doc_o);
  let names o = List.map (fun (f : Eca.firing) -> f.Eca.rule) o.Engine.firings in
  Alcotest.(check (list string))
    "the consumed pair is gone for [first] only" [ "plain"; "either"; "derived" ]
    (names (List.nth shared_o 5));
  Alcotest.(check int) "one shared node" 1 (s "beta.nodes");
  Alcotest.(check int) "two terminal node atoms, four rule atoms and two derivation atoms indexed"
    8 (s "subindex.entries");
  (* the derivation trigger reads every [a] and [b], the [Or] rule reads
     [c] too, and the three derived events ride in batches that reach
     the node: once each *)
  Alcotest.(check int) "one step per event" 9 (s "beta.steps");
  (* [a@20]: only [either] and the derivation rule, through their own
     atoms; the terminal subscribers are not fed *)
  Alcotest.(check int) "no terminal subscriber fed without a detection" 2
    (List.nth fed 2 - List.nth fed 1)

(* A derivation rule is dispatched like an ECA rule: an event none of
   its trigger's atoms can match neither feeds it nor steps the node its
   trigger shares. *)
let test_derivation_dispatch () =
  let pair =
    Deductive_event.rule ~name:"pair" ~derives:"paired"
      ~trigger:(Event_query.within (pair_q "X" "Y") 8)
      ~payload:(Construct.cel "e" [ Construct.cvar "X" ])
  in
  let engine =
    Engine.create_exn ~index:true ~share:true (Ruleset.make ~event_rules:[ pair ] "p")
  in
  let store, ops = harness () in
  let env = Store.env store in
  let after e =
    ignore (Engine.handle_event engine ~env ~ops e);
    let s = cells (Engine.metrics engine) in
    (s "beta.steps", s "engine.rules_fed")
  in
  Alcotest.(check (pair int int)) "[c] reaches nothing" (0, 0)
    (after (ev ~t:1 ~label:"c" (Term.text "c")));
  Alcotest.(check (pair int int)) "[a] is fed and steps the node" (1, 1)
    (after (ev ~t:2 ~label:"a" (Term.text "x")))

(* ---- consumption through the shared pipeline -------------------------- *)

let test_consumption_equivalence () =
  (* two consuming rules over alpha-equivalent joins: each rule must
     burn only ITS OWN constituents, even though the join state is one
     shared pipeline (per-rule id filters, never store purges) *)
  let rules =
    [
      Eca.make ~name:"c1" ~consume:true ~on:(pair_q "X" "Y")
        (Action.insert ~doc:"/orders" (Construct.cel "row" [ Construct.ctext "c1" ]));
      Eca.make ~name:"c2" ~consume:true ~on:(pair_q "P" "Q")
        (Action.insert ~doc:"/orders" (Construct.cel "row" [ Construct.ctext "c2" ]));
    ]
  in
  let events =
    [
      ev ~t:1 ~label:"a" (Term.text "x");
      ev ~t:2 ~label:"b" (Term.text "y");
      ev ~t:3 ~label:"b" (Term.text "z");
      ev ~t:4 ~label:"a" (Term.text "w");
    ]
  in
  let run ~share =
    let engine = Engine.create_exn ~share (Ruleset.make ~rules "p") in
    let store, ops = harness () in
    let env = Store.env store in
    let outs = List.map (fun e -> Engine.handle_event engine ~env ~ops e) events in
    (outs, Option.get (Store.doc store "/orders"))
  in
  let shared, doc_s = run ~share:true in
  let unshared, doc_u = run ~share:false in
  Alcotest.(check bool) "same firings" true (List.for_all2 outcome_equal shared unshared);
  Alcotest.(check bool) "same store" true (Term.equal doc_s doc_u);
  (* sanity: consumption actually bit — the (a@1, b@3) pair is burned *)
  let total = List.fold_left (fun acc o -> acc + List.length o.Engine.firings) 0 shared in
  Alcotest.(check int) "each rule fired twice" 4 total

(* ---- crash/recovery: WAL replay re-primes the shared pipelines ------- *)

let wal_rule name q row vars =
  Eca.make ~name ~on:q
    (Action.insert ~doc:"/pairs" (Construct.cel row (List.map Construct.cvar vars)))

let p1 = wal_rule "p1" (pair_q "X" "Y") "row" [ "X"; "Y" ]

(* alpha-equivalent twins *)
let beta_wal_rules =
  Ruleset.make ~rules:[ p1; wal_rule "p2" (pair_q "P" "Q") "mirror" [ "Q" ] ] "betawal"

(* a derivation rule sharing [p1]'s pipeline, and a rule reacting to the
   events it derives: re-priming derives events too, and their ids must
   not collide with those the replay derives *)
let beta_wal_derived =
  Ruleset.make
    ~rules:[ p1; wal_rule "d1" (on_ "paired" "D") "derived" [ "D" ] ]
    ~event_rules:
      [
        Deductive_event.rule ~name:"pair" ~derives:"paired" ~trigger:(pair_q "L" "R")
          ~payload:(Construct.cel "e" [ Construct.cvar "L"; Construct.cvar "R" ]);
      ]
    "betawal-derived"

let canon_doc t =
  String.concat "|" (List.sort compare (List.map Xml.to_string (Term.children (Term.strip_ids t))))

let run_beta_crash ~crash rules =
  Event.reset_ids ();
  Message.reset_ids ();
  let n = node_exn ~host:"a.example" rules in
  Store.add_doc (Node.store n) "/pairs" (Term.elem ~ord:Term.Unordered "pairs" []);
  Node.checkpoint n ~at:Clock.origin;
  let net = Network.create () in
  Network.add_node_exn net n;
  (match crash with
  | None -> ()
  | Some (at, recover_at) -> Network.schedule_crash net ~host:"a.example" ~at ~recover_at ());
  (* snapshots the node took on its own before the crash (the genesis
     checkpoint aside), read at the last tick before it *)
  let automatic = ref 0 in
  for i = 1 to 8 do
    Network.run net ~until:(i * 10);
    (match crash with
    | Some (at, _) when i * 10 < at ->
        automatic :=
          int_of_float (Obs.Metrics.total (Obs.Metrics.snapshot (Node.metrics n)) "wal.snapshots")
          - 1
    | _ -> ());
    Network.inject net ~to_:"a.example"
      ~label:(if i mod 2 = 1 then "a" else "b")
      (Term.elem "v" [ Term.int i ])
  done;
  ignore (Network.run_until_quiet net ());
  (Node.firings n, canon_doc (Option.get (Store.doc (Node.store n) "/pairs")), !automatic)

let test_crash_recover_identity () =
  if Escape.no_wal then () (* amnesic hatch: nothing to recover from *)
  else begin
    List.iter
      (fun rules ->
        let name s = Fmt.str "%s: %s" rules.Ruleset.name s in
        let f0, d0, _ = run_beta_crash ~crash:None rules in
        (* the crash lands mid-stream: join state built before it must be
           re-primed from WAL replay for the post-recovery pairs to fire *)
        let f1, d1, automatic = run_beta_crash ~crash:(Some (35, 55)) rules in
        Alcotest.(check bool)
          (name (Fmt.str "automatic snapshots before the crash (%d)" automatic))
          true (automatic >= 1);
        Alcotest.(check int) (name "firings converge") f0 f1;
        Alcotest.(check string) (name "stores converge") d0 d1;
        Alcotest.(check bool) (name "pairs actually fired") true (f0 > 0))
      [ beta_wal_rules; beta_wal_derived ]
  end

let suite =
  ( "beta",
    [
      QCheck_alcotest.to_alcotest ~long:true prop_shared_modes;
      QCheck_alcotest.to_alcotest prop_one_node_per_key;
      Alcotest.test_case "sharing key is canonical subtree" `Quick test_sharing_key;
      Alcotest.test_case "shareability gate" `Quick test_shareability_gate;
      Alcotest.test_case "sharing, memo and fanout accounting" `Quick test_sharing_and_fanout;
      Alcotest.test_case "engine shares ECA and derivation subtrees" `Quick test_engine_beta_stats;
      Alcotest.test_case "terminal dispatch with mixed subscribers" `Quick test_mixed_subscribers;
      Alcotest.test_case "derivation rules are dispatched" `Quick test_derivation_dispatch;
      Alcotest.test_case "consumption stays per-rule" `Quick test_consumption_equivalence;
      Alcotest.test_case "crash/recover re-primes shared pipelines" `Quick
        test_crash_recover_identity;
    ] )
