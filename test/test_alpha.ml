(* The shared alpha network must be a pure acceleration (HACKING.md
   "Cross-rule sharing"): deduplicating atomic matchers across the rule
   base — and memoizing their runs — may never change which rules fire,
   with which bindings, in which order.  Shared and unshared engines are
   compared end to end under both dispatch paths; unit pins cover the
   sharing mechanics themselves (the sharing key, memo and fanout
   accounting, engine wiring). *)

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

(* ---- the sharing key ---- *)

let atom ?label ?sender pattern : Event_query.atomic =
  match Event_query.on ?label ?sender pattern with
  | Event_query.Atomic a -> a
  | _ -> assert false

let test_sharing_key () =
  let net = Alpha.create () in
  let nodes () = cells (Alpha.metrics net) "alpha.nodes" in
  let base () = Qterm.el "r" [ Qterm.pos (Qterm.var "X") ] in
  let (_ : Incremental.atom_matcher) = Alpha.subscribe net (atom ~label:"a" (base ())) in
  (* everything that changes matching gets its own node *)
  let distinct =
    [
      atom ~label:"b" (base ());  (* envelope: event label *)
      atom ~label:"a" ~sender:"s.example" (base ());  (* envelope: sender *)
      atom ~label:"a" (Qterm.el "s" [ Qterm.pos (Qterm.var "X") ]);  (* label *)
      atom ~label:"a" (Qterm.el "r" [ Qterm.pos (Qterm.var "Y") ]);  (* variable name *)
      atom ~label:"a" (Qterm.el "r" [ Qterm.without (Qterm.var "X") ]);  (* polarity *)
      atom ~label:"a" (Qterm.el "r" ~spec:Qterm.Total [ Qterm.pos (Qterm.var "X") ]);  (* spec *)
      atom ~label:"a" (Qterm.el "r" ~ord:Term.Ordered [ Qterm.pos (Qterm.var "X") ]);  (* order *)
      atom ~label:"a"
        (Qterm.el "r" ~attrs:[ ("a", Qterm.A_any) ] [ Qterm.pos (Qterm.var "X") ]);
    ]
  in
  List.iteri
    (fun i a ->
      let (_ : Incremental.atom_matcher) = Alpha.subscribe net a in
      Alcotest.(check int) (Printf.sprintf "variant %d gets its own node" i) (i + 2) (nodes ()))
    distinct;
  (* an equal atom, built afresh, shares *)
  let (_ : Incremental.atom_matcher) = Alpha.subscribe net (atom ~label:"a" (base ())) in
  Alcotest.(check int) "equal atom shares" (List.length distinct + 1) (nodes ());
  Alcotest.(check int) "every subscription counted" (List.length distinct + 2)
    (cells (Alpha.metrics net) "alpha.registrations")

(* every subscription of a structurally-equal atom lands on one node *)
let prop_one_node_per_atom =
  QCheck.Test.make ~name:"Alpha: one node per distinct atom" ~count:200 queries_arb
    (fun queries ->
      let atoms = List.concat_map Event_query.atoms queries in
      let net = Alpha.create () in
      List.iter
        (fun a -> ignore (Alpha.subscribe net a : Incremental.atom_matcher))
        (atoms @ atoms);
      let s = cells (Alpha.metrics net) in
      s "alpha.nodes" = List.length (List.sort_uniq compare atoms)
      && s "alpha.registrations" = 2 * List.length atoms)

(* ---- alpha network mechanics ---- *)

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

let test_reused_id_evaluated_afresh () =
  (* the memo lives one engine batch: a later batch that reuses an
     event id with another payload is evaluated afresh, never served
     the first payload's bindings *)
  let rule = Eca.make ~name:"echo" ~on:(Event_query.on ~label:"t" pat_x) Action.Nop in
  let engine = Engine.create_exn ~share:true (Ruleset.make ~rules:[ rule ] "p") in
  let store, ops = harness () in
  let env = Store.env store in
  let bindings v =
    let e = Event.make ~id:1000 ~occurred_at:1 ~label:"t" (Term.elem "p" [ Term.text v ]) in
    List.map
      (fun (f : Eca.firing) -> Option.map Term.to_string (Subst.find "X" f.Eca.bindings))
      (Engine.handle_event engine ~env ~ops e).Engine.firings
  in
  let x = Alcotest.(list (option string)) in
  Alcotest.check x "first payload" [ Some (Term.to_string (Term.text "v")) ] (bindings "v");
  Alcotest.check x "second payload, same id" [ Some (Term.to_string (Term.text "w")) ]
    (bindings "w");
  Alcotest.(check int) "one evaluation per batch" 2
    (cells (Engine.metrics engine) "alpha.evaluations")

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

let suite =
  ( "alpha",
    [
      QCheck_alcotest.to_alcotest ~long:true prop_shared_modes;
      QCheck_alcotest.to_alcotest prop_one_node_per_atom;
      Alcotest.test_case "sharing key is the atom" `Quick test_sharing_key;
      Alcotest.test_case "sharing, memo and fanout accounting" `Quick test_sharing_and_fanout;
      Alcotest.test_case "a reused id is evaluated afresh" `Quick test_reused_id_evaluated_afresh;
      Alcotest.test_case "engine shares ECA and derivation atoms" `Quick test_engine_alpha_stats;
    ] )
