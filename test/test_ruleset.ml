open Xchange

let nop_rule name =
  Eca.make ~name ~on:(Event_query.on (Qterm.var "E")) Action.Nop

let call_rule name proc =
  Eca.make ~name ~on:(Event_query.on (Qterm.var "E")) (Action.call proc [])

let proc name = (name, { Action.params = []; body = Action.Nop })

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_qualified_names () =
  let child = Ruleset.make ~rules:[ nop_rule "inner" ] "billing" in
  let root = Ruleset.make ~rules:[ nop_rule "outer" ] ~children:[ child ] "shop" in
  let names = List.map (fun (n, _, _) -> n) (Ruleset.scoped_rules root) in
  Alcotest.(check (list string)) "qualified" [ "shop.outer"; "shop.billing.inner" ] names;
  Alcotest.(check int) "count" 2 (Ruleset.rule_count root);
  Alcotest.(check bool) "find by qualified name" true
    (Ruleset.find_rule root "shop.billing.inner" <> None);
  Alcotest.(check bool) "unknown name" true (Ruleset.find_rule root "shop.nope" = None)

let test_lexical_scoping () =
  let child =
    Ruleset.make ~rules:[ call_rule "r" "ship" ] ~procedures:[ proc "ship" ] "inner"
  in
  let root =
    Ruleset.make
      ~procedures:[ ("ship", { Action.params = [ "X" ]; body = Action.Nop }); proc "audit" ]
      ~children:[ child ] "outer"
  in
  let scopes = Ruleset.scoped_rules root in
  let _, scope, _ = List.hd scopes in
  (* inner 'ship' (0 params) shadows the outer one (1 param) *)
  (match Ruleset.lookup_procedure scope "ship" with
  | Some p -> Alcotest.(check int) "inner shadows outer" 0 (List.length p.Action.params)
  | None -> Alcotest.fail "ship not resolved");
  (* ancestors remain visible *)
  Alcotest.(check bool) "ancestor visible" true
    (Ruleset.lookup_procedure scope "audit" <> None);
  Alcotest.(check bool) "unknown rejected" true (Ruleset.lookup_procedure scope "ufo" = None)

let test_name_clash_isolation () =
  (* sibling rule sets may reuse names without interference (Thesis 9:
     scopes alleviate name clashes) *)
  let a = Ruleset.make ~rules:[ call_rule "r" "go" ] ~procedures:[ proc "go" ] "a" in
  let b =
    Ruleset.make ~rules:[ call_rule "r" "go" ]
      ~procedures:[ ("go", { Action.params = [ "X"; "Y" ]; body = Action.Nop }) ]
      "b"
  in
  let root = Ruleset.make ~children:[ a; b ] "root" in
  (match Ruleset.validate root with Ok () -> () | Error e -> Alcotest.fail e);
  let scope_of rule_name =
    let _, scope, _ =
      List.find (fun (n, _, _) -> n = rule_name) (Ruleset.scoped_rules root)
    in
    scope
  in
  let pa = Option.get (Ruleset.lookup_procedure (scope_of "root.a.r") "go") in
  let pb = Option.get (Ruleset.lookup_procedure (scope_of "root.b.r") "go") in
  Alcotest.(check bool) "each sees its own" true
    (List.length pa.Action.params <> List.length pb.Action.params)

let test_validate_duplicates () =
  let dup_rules = Ruleset.make ~rules:[ nop_rule "r"; nop_rule "r" ] "s" in
  (match Ruleset.validate dup_rules with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate rule names accepted");
  let dup_procs = Ruleset.make ~procedures:[ proc "p"; proc "p" ] "s" in
  (match Ruleset.validate dup_procs with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate procedure names accepted");
  (* sibling sets with the same name collide in qualified-id space:
     their rules would shadow each other silently (find_rule, stats and
     removal all address rules by qualified name), so validation must
     reject the tree before the engine builds it *)
  let twin () = Ruleset.make ~rules:[ nop_rule "r" ] "twin" in
  let root = Ruleset.make ~children:[ twin (); twin () ] "root" in
  (match Ruleset.validate root with
  | Error e ->
      Alcotest.(check bool) "names the colliding id" true (contains e "root.twin.r")
  | Ok () -> Alcotest.fail "duplicate qualified rule ids accepted");
  match Engine.create root with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "engine built over shadowed rules"

let test_validate_unknown_procedure () =
  let rs = Ruleset.make ~rules:[ call_rule "r" "ghost" ] "s" in
  (match Ruleset.validate rs with
  | Error e -> Alcotest.(check bool) "mentions the callee" true (contains e "ghost")
  | Ok () -> Alcotest.fail "unknown procedure accepted");
  (* procedure bodies are checked too *)
  let rs2 =
    Ruleset.make
      ~procedures:[ ("p", { Action.params = []; body = Action.call "ghost" [] }) ]
      "s"
  in
  match Ruleset.validate rs2 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown procedure in body accepted"

(* ---- Engine ---- *)

let shop_ruleset () =
  let on_order =
    Event_query.on ~label:"order" (Qterm.el "order" [ Qterm.pos (Qterm.el "item" [ Qterm.pos (Qterm.var "I") ]) ])
  in
  let record = Action.insert ~doc:"/orders" (Construct.cel "row" [ Construct.cvar "I" ]) in
  Ruleset.make ~rules:[ Eca.make ~name:"record-order" ~on:on_order record ] "shop"

let engine_harness () =
  let store = Store.create () in
  Store.add_doc store "/orders" (Term.elem ~ord:Term.Unordered "orders" []);
  let sent = ref [] in
  let ops =
    {
      Action.update = (fun u -> Result.map fst (Store.apply store u));
      txn_update = (fun u -> Result.map fst (Store.apply store u));
      send = (fun ~recipient ~label ~ttl:_ ~delay:_ payload -> sent := (recipient, label, payload) :: !sent);
      log = (fun _ -> ());
      now = (fun () -> 0);
      checkpoint = (fun () -> fun () -> ());
    }
  in
  (store, sent, ops)

let test_engine_fires_and_updates () =
  let engine = Engine.create_exn (shop_ruleset ()) in
  let store, _, ops = engine_harness () in
  let env = Store.env store in
  let order item =
    Event.make ~occurred_at:1 ~label:"order" (Term.elem "order" [ Term.elem "item" [ Term.text item ] ])
  in
  let outcome = Engine.handle_event engine ~env ~ops (order "ball") in
  Alcotest.(check int) "fired" 1 (List.length outcome.Engine.firings);
  Alcotest.(check int) "no errors" 0 (List.length outcome.Engine.errors);
  let outcome2 = Engine.handle_event engine ~env ~ops (order "shoe") in
  Alcotest.(check int) "fired again" 1 (List.length outcome2.Engine.firings);
  Alcotest.(check int) "both rows" 2
    (List.length (Term.children (Option.get (Store.doc store "/orders"))));
  Alcotest.(check (float 0.)) "events seen" 2.
    (Obs.Metrics.total (Obs.Metrics.snapshot (Engine.metrics engine)) "engine.events_seen")

let test_engine_rejects_invalid () =
  let bad = Ruleset.make ~rules:[ call_rule "r" "ghost" ] "s" in
  (match Engine.create bad with Error _ -> () | Ok _ -> Alcotest.fail "invalid ruleset accepted");
  let bad_query =
    Ruleset.make ~rules:[ Eca.make ~name:"r" ~on:(Event_query.conj []) Action.Nop ] "s"
  in
  match Engine.create bad_query with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "invalid event query accepted"

let test_engine_expired_events_dropped () =
  let engine = Engine.create_exn (shop_ruleset ()) in
  let store, _, ops = engine_harness () in
  let env = Store.env store in
  let stale =
    Event.make ~occurred_at:(-100) ~ttl:10 ~label:"order"
      (Term.elem "order" [ Term.elem "item" [ Term.text "x" ] ])
  in
  let outcome = Engine.handle_event engine ~env ~ops stale in
  Alcotest.(check int) "expired event ignored" 0 (List.length outcome.Engine.firings)

let test_engine_views_in_conditions () =
  let view =
    Deductive.rule ~view:"items"
      ~head:(Construct.cel "it" [ Construct.cvar "I" ])
      ~body:(Condition.In (Condition.Local "/orders", Qterm.el "row" [ Qterm.pos (Qterm.var "I") ]))
  in
  let rule =
    Eca.make ~name:"check" ~on:(Event_query.on ~label:"probe" (Qterm.var "E"))
      ~if_:(Condition.In (Condition.View "items", Qterm.el "it" [ Qterm.pos (Qterm.var "I") ]))
      (Action.log "have %s" [ Builtin.ovar "I" ])
  in
  let rs = Ruleset.make ~rules:[ rule ] ~views:[ view ] "s" in
  let engine = Engine.create_exn rs in
  let store, _, ops = engine_harness () in
  ignore
    (Store.apply store
       (Action.U_insert { doc = "/orders"; selector = []; at = None; content = Term.elem "row" [ Term.text "ball" ] }));
  let env = Store.env store in
  let outcome =
    Engine.handle_event engine ~env ~ops (Event.make ~occurred_at:1 ~label:"probe" (Term.text "?"))
  in
  Alcotest.(check int) "view answered the condition" 1 (List.length outcome.Engine.firings)

let test_engine_load_ruleset () =
  let engine = Engine.create_exn (shop_ruleset ()) in
  let extra = Ruleset.make ~rules:[ nop_rule "added" ] "patch" in
  match Engine.load_ruleset engine extra with
  | Error e -> Alcotest.fail e
  | Ok engine2 ->
      Alcotest.(check int) "rule added" 2 (List.length (Engine.rule_names engine2));
      Alcotest.(check int) "original untouched" 1 (List.length (Engine.rule_names engine))

let suite =
  ( "ruleset-engine",
    [
      Alcotest.test_case "qualified rule names" `Quick test_qualified_names;
      Alcotest.test_case "lexical procedure scoping" `Quick test_lexical_scoping;
      Alcotest.test_case "sibling name clashes are harmless" `Quick test_name_clash_isolation;
      Alcotest.test_case "duplicate names rejected" `Quick test_validate_duplicates;
      Alcotest.test_case "unresolved procedure calls rejected" `Quick test_validate_unknown_procedure;
      Alcotest.test_case "engine fires rules and updates stores" `Quick test_engine_fires_and_updates;
      Alcotest.test_case "engine rejects invalid rule sets" `Quick test_engine_rejects_invalid;
      Alcotest.test_case "expired events dropped on arrival" `Quick test_engine_expired_events_dropped;
      Alcotest.test_case "deductive views usable in conditions" `Quick test_engine_views_in_conditions;
      Alcotest.test_case "rule sets loadable at runtime (Thesis 11)" `Quick test_engine_load_ruleset;
    ] )
