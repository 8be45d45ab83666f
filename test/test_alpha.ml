(* The shared alpha network must be a pure acceleration (HACKING.md
   "Cross-rule sharing"): deduplicating atomic matchers across the rule
   base — and memoizing their runs — may never change which rules fire,
   with which bindings, in which order.  Shared and unshared engines are
   compared end to end under both dispatch paths; unit pins cover the
   sharing mechanics themselves (digest canonicality, collision safety,
   fanout accounting, node shedding on rule removal, and the production
   engine's generation-guarded condition cache). *)

open Xchange

(* A registry's cells at this instant: name -> value, 0 when absent. *)
let cells m =
  let samples = Obs.Metrics.snapshot m in
  fun name -> int_of_float (Obs.Metrics.total samples name)

(* ---- Engine: shared alpha = per-rule matchers, both dispatch paths ---- *)

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

let rules_of queries =
  List.mapi
    (fun i q ->
      let name = Printf.sprintf "r%d" i in
      let action = Action.insert ~doc:"/orders" (Construct.cel "row" [ Construct.ctext name ]) in
      if i mod 2 = 0 then Eca.make ~name ~on:q action
      else
        Eca.make ~name ~on:q
          ~if_:(Condition.In (Condition.Local "/orders", Qterm.el "row" []))
          action)
    queries

let shared_prop (queries, events) =
  let valid = List.filter (fun q -> Result.is_ok (Event_query.validate q)) queries in
  if valid = [] then QCheck.assume_fail ()
  else
    (* duplicate every query so the alpha network has atoms to share *)
    let rules = rules_of (valid @ valid) in
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
  QCheck.Test.make ~name:"Engine: shared alpha = per-rule matchers (both dispatch paths)"
    ~count:200
    (QCheck.pair queries_arb stream_arb)
    shared_prop

(* ---- digest canonicality ---- *)

let test_digest_canonical () =
  let q_ab =
    Qterm.el "r" ~attrs:[ ("a", Qterm.A_is "1"); ("b", Qterm.A_var "V") ]
      [ Qterm.pos (Qterm.var "X") ]
  in
  let q_ba =
    Qterm.el "r" ~attrs:[ ("b", Qterm.A_var "V"); ("a", Qterm.A_is "1") ]
      [ Qterm.pos (Qterm.var "X") ]
  in
  (* attribute order has no matching semantics: same digest *)
  Alcotest.(check string) "attr order canonicalised" (Qterm.digest q_ab) (Qterm.digest q_ba);
  (* everything that changes matching changes the digest *)
  let base = Qterm.el "r" [ Qterm.pos (Qterm.var "X") ] in
  let distinct =
    [
      Qterm.el "s" [ Qterm.pos (Qterm.var "X") ];  (* label *)
      Qterm.el "r" [ Qterm.pos (Qterm.var "Y") ];  (* variable name *)
      Qterm.el "r" [ Qterm.without (Qterm.var "X") ];  (* polarity *)
      Qterm.el "r" ~spec:Qterm.Total [ Qterm.pos (Qterm.var "X") ];  (* spec *)
      Qterm.el "r" ~ord:Term.Ordered [ Qterm.pos (Qterm.var "X") ];  (* order *)
      Qterm.el "r" ~attrs:[ ("a", Qterm.A_any) ] [ Qterm.pos (Qterm.var "X") ];
    ]
  in
  List.iteri
    (fun i q ->
      Alcotest.(check bool)
        (Printf.sprintf "variant %d digests differently" i)
        false
        (String.equal (Qterm.digest base) (Qterm.digest q)))
    distinct;
  (* the atomic digest also covers the envelope *)
  let atom ?label ?sender p : Event_query.atomic =
    match Event_query.on ?label ?sender p with
    | Event_query.Atomic a -> a
    | _ -> assert false
  in
  Alcotest.(check bool) "label part of atomic digest" false
    (String.equal
       (Event_query.atomic_digest (atom ~label:"a" base))
       (Event_query.atomic_digest (atom ~label:"b" base)));
  Alcotest.(check string) "atomic digest deterministic"
    (Event_query.atomic_digest (atom ~label:"a" base))
    (Event_query.atomic_digest (atom ~label:"a" base))

(* ---- alpha network mechanics ---- *)

let atom ?label pattern : Event_query.atomic =
  match Event_query.on ?label pattern with Event_query.Atomic a -> a | _ -> assert false

let pat_x = Qterm.el "p" [ Qterm.pos (Qterm.var "X") ]

let ev ?(t = 1) payload = Event.make ~occurred_at:t ~label:"t" payload

let test_sharing_and_fanout () =
  let net = Alpha.create () in
  let a = atom ~label:"t" pat_x in
  let m1 = Alpha.subscribe net a in
  let m2 = Alpha.subscribe net a in
  let m3 = Alpha.subscribe net a in
  let s = cells (Alpha.metrics net) in
  Alcotest.(check int) "one node" 1 (s "alpha.nodes");
  Alcotest.(check int) "three registrations" 3 (s "alpha.registrations");
  let e = ev (Term.elem "p" [ Term.text "v" ]) in
  let r1 = m1 e and r2 = m2 e and r3 = m3 e in
  Alcotest.(check bool) "same substitutions" true
    (List.equal Subst.equal r1 r2 && List.equal Subst.equal r2 r3);
  Alcotest.(check int) "one answer" 1 (List.length r1);
  let s = cells (Alpha.metrics net) in
  Alcotest.(check int) "evaluated once" 1 (s "alpha.evaluations");
  Alcotest.(check int) "served twice from memo" 2 (s "alpha.hits");
  Alcotest.(check int) "fanout counts every delivery" 3 (s "alpha.fanout");
  (* envelope mismatch is refuted before the memo: no counters move *)
  let off = Event.make ~occurred_at:2 ~label:"other" (Term.elem "p" [ Term.text "v" ]) in
  Alcotest.(check int) "wrong label rejected" 0 (List.length (m1 off));
  let s = cells (Alpha.metrics net) in
  Alcotest.(check int) "no extra evaluation" 1 (s "alpha.evaluations");
  Alcotest.(check int) "no extra hit" 2 (s "alpha.hits")

let test_collision_safety () =
  (* every atom hashes to the same bucket: structural equality inside
     the bucket must keep the nodes distinct and the answers correct *)
  let net = Alpha.create ~digest:(fun _ -> "collide") () in
  let m_p = Alpha.subscribe net (atom ~label:"t" pat_x) in
  let m_q = Alpha.subscribe net (atom ~label:"t" (Qterm.el "q" [ Qterm.pos (Qterm.var "X") ])) in
  let s = cells (Alpha.metrics net) in
  Alcotest.(check int) "collision keeps nodes distinct" 2 (s "alpha.nodes");
  let e = ev (Term.elem "p" [ Term.text "v" ]) in
  Alcotest.(check int) "p matches" 1 (List.length (m_p e));
  Alcotest.(check int) "q refutes" 0 (List.length (m_q e));
  (* and an equal atom still shares despite the collision *)
  let (_ : Incremental.atom_matcher) = Alpha.subscribe net (atom ~label:"t" pat_x) in
  Alcotest.(check int) "still two nodes" 2 (cells (Alpha.metrics net) "alpha.nodes")

let test_memo_lru_retention () =
  (* the memo is a bounded LRU: a burst of fresh event ids past the cap
     evicts only the coldest entries.  The old reset-on-cap wipe
     discarded the whole table, hot ids included — this pin fails on
     that implementation *)
  let net = Alpha.create () in
  let m = Alpha.subscribe net (atom ~label:"t" pat_x) in
  let hot = Event.make ~id:1000 ~occurred_at:1 ~label:"t" (Term.elem "p" [ Term.text "v" ]) in
  ignore (m hot);
  Alcotest.(check int) "hot id evaluated once" 1 (cells (Alpha.metrics net) "alpha.evaluations");
  (* 100 distinct ids (cap is 64), touching the hot id every 10 *)
  for i = 1 to 100 do
    ignore (m (Event.make ~id:i ~occurred_at:2 ~label:"t" (Term.elem "p" [ Term.text "w" ])));
    if i mod 10 = 0 then ignore (m hot)
  done;
  let evals = cells (Alpha.metrics net) "alpha.evaluations" in
  Alcotest.(check int) "each fresh id evaluated exactly once" 101 evals;
  ignore (m hot);
  Alcotest.(check int) "hot id survived the burst" evals
    (cells (Alpha.metrics net) "alpha.evaluations")

let test_release_sheds_nodes () =
  let net = Alpha.create () in
  let a = atom ~label:"t" pat_x in
  let h1 = Alpha.register net a in
  let h2 = Alpha.register net a in
  Alcotest.(check int) "shared while alive" 1 (cells (Alpha.metrics net) "alpha.nodes");
  Alpha.release net h1;
  Alcotest.(check int) "survives first release" 1 (cells (Alpha.metrics net) "alpha.nodes");
  Alcotest.(check int) "registration count drops" 1
    (cells (Alpha.metrics net) "alpha.registrations");
  Alpha.release net h2;
  Alcotest.(check int) "last release sheds the node" 0 (cells (Alpha.metrics net) "alpha.nodes");
  Alcotest.check_raises "double release rejected"
    (Invalid_argument "Alpha.release: handle already released") (fun () ->
      Alpha.release net h2);
  (* re-registering after shedding builds a fresh node *)
  let _ = Alpha.register net a in
  Alcotest.(check int) "fresh node" 1 (cells (Alpha.metrics net) "alpha.nodes")

(* ---- engine wiring: ECA and derivation atoms share one network ---- *)

let test_engine_alpha_stats () =
  let on_order = Event_query.on ~label:"order" pat_x in
  let rules =
    List.map
      (fun name ->
        Eca.make ~name ~on:on_order
          (Action.insert ~doc:"/orders" (Construct.cel "row" [ Construct.cvar "X" ])))
      [ "a"; "b"; "c" ]
  in
  let derivation =
    Deductive_event.rule ~name:"echo" ~derives:"echoed" ~trigger:(Event_query.on ~label:"order" pat_x)
      ~payload:(Construct.cel "e" [ Construct.cvar "X" ])
  in
  let rs = Ruleset.make ~rules ~event_rules:[ derivation ] "p" in
  let engine = Engine.create_exn ~share:true rs in
  let store, ops = harness () in
  let env = Store.env store in
  let s = cells (Engine.metrics engine) in
  (* 3 ECA atoms + 1 derivation atom, structurally identical *)
  Alcotest.(check int) "one shared node" 1 (s "alpha.nodes");
  Alcotest.(check int) "four registrations" 4 (s "alpha.registrations");
  let outcome =
    Engine.handle_event engine ~env ~ops
      (Event.make ~occurred_at:1 ~label:"order" (Term.elem "p" [ Term.text "v" ]))
  in
  Alcotest.(check int) "all rules fired" 3 (List.length outcome.Engine.firings);
  Alcotest.(check int) "derivation ran" 1 (List.length outcome.Engine.derived_events);
  let s = cells (Engine.metrics engine) in
  Alcotest.(check int) "occurrence evaluated once" 1 (s "alpha.evaluations");
  Alcotest.(check int) "other subscribers served from memo" 3 (s "alpha.hits");
  Alcotest.(check int) "fanout = one delivery per subscriber" 4 (s "alpha.fanout");
  (* the unshared engine reports no network at all *)
  let plain = Engine.create_exn ~share:false rs in
  Alcotest.(check bool) "no alpha cells unshared" false
    (List.exists
       (fun (x : Obs.Metrics.sample) -> String.starts_with ~prefix:"alpha." x.Obs.Metrics.name)
       (Obs.Metrics.snapshot (Engine.metrics plain)))

(* ---- production rules: generation-guarded condition cache ---- *)

let log_cond = Condition.In (Condition.Local "/log", Qterm.el "row" [ Qterm.pos (Qterm.var "X") ])

let production_harness () =
  let store = Store.create () in
  Store.add_doc store "/log"
    (Term.elem ~ord:Term.Unordered "log" [ Term.elem "row" [ Term.text "a" ] ]);
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

let no_procs _ = None

let test_production_condition_cache () =
  let rules =
    [
      { Production.name = "w"; condition = log_cond; action = Action.Nop };
      { Production.name = "r"; condition = log_cond; action = Action.Nop };
    ]
  in
  let engine = Production.create ~share:true rules in
  let store, ops = production_harness () in
  let poll () = Production.poll ~env:(Store.env store) ~ops ~procs:no_procs engine in
  (* cycle 1: both rules see the fresh answer and fire; the firings
     start new generations, so both evaluate *)
  Alcotest.(check int) "both fire on the new answer" 2 (List.length (poll ()));
  (* cycle 2: nothing fresh, no action runs: the second rule is served
     from the shared group's cache *)
  Alcotest.(check int) "quiet cycle" 0 (List.length (poll ()));
  let s = cells (Production.metrics engine) in
  Alcotest.(check int) "three evaluations" 3 (s "production.condition_evaluations");
  Alcotest.(check int) "one cache hit" 1 (s "production.condition_hits");
  Alcotest.(check int) "two firings" 2 (s "production.firings");
  (* unshared: same firings, every rule pays its own evaluation *)
  let plain = Production.create ~share:false rules in
  let store2, ops2 = production_harness () in
  let poll2 () = Production.poll ~env:(Store.env store2) ~ops:ops2 ~procs:no_procs plain in
  Alcotest.(check int) "unshared fires the same" 2 (List.length (poll2 ()));
  Alcotest.(check int) "unshared quiet cycle" 0 (List.length (poll2 ()));
  let s2 = cells (Production.metrics plain) in
  Alcotest.(check int) "four evaluations" 4 (s2 "production.condition_evaluations");
  Alcotest.(check int) "no hits" 0 (s2 "production.condition_hits")

let test_production_share_equivalence () =
  (* rule [w] mutates what the shared condition reads; rule [r] polled
     after it must observe the post-action answers, exactly as when
     evaluating privately *)
  let rules =
    [
      {
        Production.name = "w";
        condition = log_cond;
        action = Action.insert ~doc:"/log" (Construct.cel "row" [ Construct.ctext "w" ]);
      };
      { Production.name = "r"; condition = log_cond; action = Action.Nop };
    ]
  in
  let run share =
    let engine = Production.create ~share rules in
    let store, ops = production_harness () in
    let fired = ref [] in
    for _ = 1 to 3 do
      fired := !fired @ Production.poll ~env:(Store.env store) ~ops ~procs:no_procs engine
    done;
    (!fired, Option.get (Store.doc store "/log"))
  in
  let fired_s, doc_s = run true in
  let fired_u, doc_u = run false in
  Alcotest.(check int) "same firing count" (List.length fired_u) (List.length fired_s);
  Alcotest.(check bool) "same firings" true
    (List.for_all2
       (fun (n1, s1) (n2, s2) -> String.equal n1 n2 && Subst.equal s1 s2)
       fired_s fired_u);
  Alcotest.(check bool) "same final store" true (Term.equal doc_s doc_u);
  Alcotest.(check bool) "writer rule saw stale cache never" true
    (List.exists (fun (n, _) -> String.equal n "r") fired_s)

let suite =
  ( "alpha",
    [
      QCheck_alcotest.to_alcotest ~long:true prop_shared_modes;
      Alcotest.test_case "digest is canonical" `Quick test_digest_canonical;
      Alcotest.test_case "sharing, memo and fanout accounting" `Quick test_sharing_and_fanout;
      Alcotest.test_case "digest collisions stay correct" `Quick test_collision_safety;
      Alcotest.test_case "memo LRU keeps hot ids past the cap" `Quick test_memo_lru_retention;
      Alcotest.test_case "release sheds shared nodes" `Quick test_release_sheds_nodes;
      Alcotest.test_case "engine shares ECA and derivation atoms" `Quick test_engine_alpha_stats;
      Alcotest.test_case "production condition cache accounting" `Quick
        test_production_condition_cache;
      Alcotest.test_case "production sharing = private evaluation" `Quick
        test_production_share_equivalence;
    ] )
