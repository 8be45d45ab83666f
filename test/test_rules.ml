open Xchange

let term = Alcotest.testable Term.pp Term.equal
let mk l = Option.get (Subst.of_list l)

(* An in-memory host for actions: a mutable doc table, an outbox, a log. *)
type harness = {
  docs : (string, Term.t) Hashtbl.t;
  mutable sent : (string * string * Term.t) list;  (** (recipient, label, payload) *)
  mutable logged : string list;
  mutable time : Clock.time;
}

let harness ?(docs = []) () =
  let h = { docs = Hashtbl.create 8; sent = []; logged = []; time = 0 } in
  List.iter (fun (name, d) -> Hashtbl.replace h.docs name d) docs;
  h

let ops_of h =
  let apply u =
    (* route through a Store for full fidelity *)
    let store = Store.create () in
    Hashtbl.iter (fun name d -> Store.add_doc store name d) h.docs;
    match Store.apply store u with
    | Error e -> Error e
    | Ok (n, _) ->
        Hashtbl.reset h.docs;
        List.iter (fun name -> Hashtbl.replace h.docs name (Option.get (Store.doc store name))) (Store.doc_names store);
        Ok n
  in
  {
    Action.update = apply;
    txn_update = apply;
    send = (fun ~recipient ~label ~ttl:_ ~delay:_ payload -> h.sent <- (recipient, label, payload) :: h.sent);
    log = (fun line -> h.logged <- line :: h.logged);
    now = (fun () -> h.time);
    checkpoint = (fun () -> fun () -> ());
  }

let env_of h =
  Condition.env_of_docs (Hashtbl.fold (fun name d acc -> (name, d) :: acc) h.docs [])

let no_procs _ = None

let exec ?(procs = no_procs) ?(subst = Subst.empty) h action =
  Action.exec ~env:(env_of h) ~ops:(ops_of h) ~procs ~subst ~answers:[ subst ] action

let test_insert () =
  let h = harness ~docs:[ ("/d", Term.elem "root" []) ] () in
  (match exec h (Action.insert ~doc:"/d" (Construct.cel "x" [])) with
  | Ok o -> Alcotest.(check int) "one update" 1 o.Action.updates
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "child added" 1 (List.length (Term.children (Hashtbl.find h.docs "/d")))

let test_insert_with_bindings () =
  let h = harness ~docs:[ ("/d", Term.elem "root" []) ] () in
  let subst = mk [ ("V", Term.text "hello") ] in
  (match exec ~subst h (Action.insert ~doc:"/d" (Construct.cel "x" [ Construct.cvar "V" ])) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.check term "instantiated content"
    (Term.elem "root" [ Term.elem "x" [ Term.text "hello" ] ])
    (Term.strip_ids (Hashtbl.find h.docs "/d"))

let test_delete_matching_seeded () =
  let doc =
    Term.elem "jar"
      [
        Term.elem "cookie" [ Term.text "a" ];
        Term.elem "cookie" [ Term.text "b" ];
      ]
  in
  let h = harness ~docs:[ ("/d", doc) ] () in
  let subst = mk [ ("N", Term.text "a") ] in
  let action =
    Action.delete ~doc:"/d" ~pattern:(Qterm.el "cookie" [ Qterm.pos (Qterm.var "N") ]) ()
  in
  (match exec ~subst h action with Ok _ -> () | Error e -> Alcotest.fail e);
  Alcotest.check term "only a deleted"
    (Term.elem "jar" [ Term.elem "cookie" [ Term.text "b" ] ])
    (Term.strip_ids (Hashtbl.find h.docs "/d"))

let test_replace_at_selector () =
  let doc = Term.elem "r" [ Term.elem "old" [] ] in
  let h = harness ~docs:[ ("/d", doc) ] () in
  let sel = Result.get_ok (Path.parse_selector "/old") in
  (match exec h (Action.replace ~doc:"/d" ~selector:sel (Construct.cel "new" [])) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.check term "replaced" (Term.elem "r" [ Term.elem "new" [] ])
    (Term.strip_ids (Hashtbl.find h.docs "/d"))

let test_raise () =
  let h = harness () in
  let subst = mk [ ("Dest", Term.text "ware.example/in") ] in
  let action =
    Action.raise_event_to ~to_:(Builtin.ovar "Dest") ~label:"pick" (Construct.cel "pick" [])
  in
  (match exec ~subst h action with
  | Ok o -> Alcotest.(check int) "event sent" 1 o.Action.events_sent
  | Error e -> Alcotest.fail e);
  match h.sent with
  | [ (recipient, label, _) ] ->
      Alcotest.(check string) "recipient computed" "ware.example/in" recipient;
      Alcotest.(check string) "label" "pick" label
  | _ -> Alcotest.fail "expected one message"

let test_make_persistent () =
  (* Thesis 4: volatile event data must be persisted explicitly *)
  let h = harness () in
  let subst = mk [ ("E", Term.elem "snapshot" [ Term.text "v" ]) ] in
  (match exec ~subst h (Action.make_persistent ~doc:"/archive" "E") with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.check term "event payload persisted" (Term.elem "snapshot" [ Term.text "v" ])
    (Term.strip_ids (Hashtbl.find h.docs "/archive"))

let test_seq_fail_fast () =
  let h = harness ~docs:[ ("/d", Term.elem "r" []) ] () in
  let action =
    Action.seq
      [
        Action.insert ~doc:"/d" (Construct.cel "one" []);
        Action.Fail "boom";
        Action.insert ~doc:"/d" (Construct.cel "two" []);
      ]
  in
  (match exec h action with Error _ -> () | Ok _ -> Alcotest.fail "failure swallowed");
  (* no rollback, but nothing after the failure runs *)
  Alcotest.(check int) "first insert applied" 1 (List.length (Term.children (Hashtbl.find h.docs "/d")))

let test_alt () =
  let h = harness ~docs:[ ("/d", Term.elem "r" []) ] () in
  let action =
    Action.alt
      [ Action.Fail "no"; Action.insert ~doc:"/d" (Construct.cel "ok" []); Action.Fail "never" ]
  in
  (match exec h action with Ok _ -> () | Error e -> Alcotest.fail e);
  Alcotest.(check int) "second alternative ran" 1
    (List.length (Term.children (Hashtbl.find h.docs "/d")));
  match exec h (Action.alt [ Action.Fail "a"; Action.Fail "b" ]) with
  | Error msg -> Alcotest.(check bool) "all failures reported" true (String.length msg > 10)
  | Ok _ -> Alcotest.fail "empty alternatives succeeded"

let test_if_branching () =
  let h = harness ~docs:[ ("/d", Term.elem "r" [ Term.elem "flag" [] ]) ] () in
  let cond = Condition.In (Condition.Local "/d", Qterm.el "flag" []) in
  let action = Action.If (cond, Action.log "yes" [], Action.log "no" []) in
  (match exec h action with Ok _ -> () | Error e -> Alcotest.fail e);
  Alcotest.(check (list string)) "then branch" [ "yes" ] h.logged

let test_call_procedure () =
  let h = harness ~docs:[ ("/d", Term.elem "r" []) ] () in
  let procs name =
    if name = "store" then
      Some
        {
          Action.params = [ "What" ];
          body = Action.insert ~doc:"/d" (Construct.cel "item" [ Construct.cvar "What" ]);
        }
    else None
  in
  let subst = mk [ ("X", Term.text "ball"); ("Secret", Term.text "hidden") ] in
  (match exec ~procs ~subst h (Action.call "store" [ Builtin.ovar "X" ]) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.check term "parameter passed"
    (Term.elem "r" [ Term.elem "item" [ Term.text "ball" ] ])
    (Term.strip_ids (Hashtbl.find h.docs "/d"));
  (* lexical isolation: the body must not see caller bindings *)
  let leaky name =
    if name = "leak" then
      Some { Action.params = []; body = Action.insert ~doc:"/d" (Construct.cel "x" [ Construct.cvar "Secret" ]) }
    else None
  in
  match exec ~procs:leaky ~subst h (Action.call "leak" []) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "procedure saw caller bindings"

let test_call_arity () =
  let procs _ = Some { Action.params = [ "A"; "B" ]; body = Action.Nop } in
  let h = harness () in
  match exec ~procs h (Action.call "p" [ Builtin.onum 1. ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "arity mismatch accepted"

let test_log_interpolation () =
  let h = harness () in
  let subst = mk [ ("N", Term.text "franz"); ("Q", Term.int 3) ] in
  (match exec ~subst h (Action.log "%s ordered %s items" [ Builtin.ovar "N"; Builtin.ovar "Q" ]) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check (list string)) "interpolated" [ "franz ordered 3 items" ] h.logged

(* ---- ECA rules ---- *)

let fire_rule ?(docs = []) rule detection =
  let h = harness ~docs () in
  let results = Eca.fire ~env:(env_of h) ~ops:(ops_of h) ~procs:no_procs rule detection in
  (h, results)

let detection subst = Instance.atomic subst 100 1

let test_eca_branch_per_answer () =
  let docs =
    [
      ( "/stock",
        Term.elem ~ord:Term.Unordered "stock"
          [ Term.elem "unit" [ Term.text "u1" ]; Term.elem "unit" [ Term.text "u2" ] ] );
    ]
  in
  let rule =
    Eca.make ~name:"r" ~on:(Event_query.on (Qterm.var "E"))
      ~if_:(Condition.In (Condition.Local "/stock", Qterm.el "unit" [ Qterm.pos (Qterm.var "U") ]))
      (Action.log "unit %s" [ Builtin.ovar "U" ])
  in
  let h, results = fire_rule ~docs rule (detection (mk [ ("E", Term.text "x") ])) in
  Alcotest.(check int) "one firing per answer" 2 (List.length results);
  Alcotest.(check int) "two log lines" 2 (List.length h.logged)

let test_ecaa_else () =
  let rule =
    Eca.make ~name:"r" ~on:(Event_query.on (Qterm.var "E")) ~if_:Condition.False
      (Action.log "then" []) ~else_:(Action.log "else" [])
  in
  let h, results = fire_rule rule (detection Subst.empty) in
  Alcotest.(check int) "one firing" 1 (List.length results);
  Alcotest.(check (list string)) "else branch ran" [ "else" ] h.logged;
  match results with
  | [ Ok [ f ] ] -> Alcotest.(check (option int)) "branch None = else" None f.Eca.branch
  | _ -> Alcotest.fail "unexpected firing shape"

let test_ecnan_first_match () =
  let rule =
    Eca.make_ecnan ~name:"r" ~on:(Event_query.on (Qterm.var "E"))
      [
        { Eca.condition = Condition.False; action = Action.log "b0" [] };
        { Eca.condition = Condition.True; action = Action.log "b1" [] };
        { Eca.condition = Condition.True; action = Action.log "b2" [] };
      ]
  in
  let h, _ = fire_rule rule (detection Subst.empty) in
  Alcotest.(check (list string)) "first holding branch only" [ "b1" ] h.logged

let test_eca_stats () =
  let evaluations = Obs.Metrics.(counter (create ()) "engine.condition_evaluations") in
  (* the first branch fails, so each detection evaluates both *)
  let rule =
    Eca.make_ecnan ~name:"r" ~on:(Event_query.on (Qterm.var "E"))
      [
        { Eca.condition = Condition.False; action = Action.Nop };
        { Eca.condition = Condition.True; action = Action.Nop };
      ]
  in
  let h = harness () in
  let fire () =
    Eca.fire ~evaluations ~env:(env_of h) ~ops:(ops_of h) ~procs:no_procs rule
      (detection Subst.empty)
  in
  let results = fire () @ fire () in
  Alcotest.(check int) "condition evals" 4 (Obs.Metrics.Counter.value evaluations);
  Alcotest.(check int) "firings" 2 (List.length (List.filter Result.is_ok results))

(* ---- production rules (Thesis 1, footnote 4) ---- *)

let test_production_transition_semantics () =
  let store = Store.create () in
  Store.add_doc store "/d" (Term.elem ~ord:Term.Unordered "r" []);
  let fired = ref 0 in
  let ops =
    {
      Action.update = (fun u -> Result.map fst (Store.apply store u));
      txn_update = (fun u -> Result.map fst (Store.apply store u));
      send = (fun ~recipient:_ ~label:_ ~ttl:_ ~delay:_ _ -> ());
      log = (fun _ -> incr fired);
      now = (fun () -> 0);
      checkpoint = (fun () -> fun () -> ());
    }
  in
  let env () = Store.env store in
  let rule =
    {
      Production.name = "p";
      condition = Condition.In (Condition.Local "/d", Qterm.el "flag" [ Qterm.pos (Qterm.var "V") ]);
      action = Action.log "hit" [];
    }
  in
  let engine = Production.create [ rule ] in
  let poll () = Production.poll ~env:(env ()) ~ops ~procs:no_procs engine in
  Alcotest.(check int) "condition false: no firing" 0 (List.length (poll ()));
  ignore (Store.apply store (Action.U_insert { doc = "/d"; selector = []; at = None; content = Term.elem "flag" [ Term.text "a" ] }));
  Alcotest.(check int) "becomes true: fires once" 1 (List.length (poll ()));
  Alcotest.(check int) "stays true: no refiring" 0 (List.length (poll ()));
  ignore (Store.apply store (Action.U_insert { doc = "/d"; selector = []; at = None; content = Term.elem "flag" [ Term.text "b" ] }));
  Alcotest.(check int) "new answer fires" 1 (List.length (poll ()));
  ignore (Store.apply store (Action.U_delete { doc = "/d"; selector = []; pattern = Some (Qterm.el "flag" [ Qterm.pos (Qterm.txt "a") ]) }));
  Alcotest.(check int) "answer removal is silent" 0 (List.length (poll ()));
  ignore (Store.apply store (Action.U_insert { doc = "/d"; selector = []; at = None; content = Term.elem "flag" [ Term.text "a" ] }));
  Alcotest.(check int) "reappearing answer fires again" 1 (List.length (poll ()));
  Alcotest.(check (float 0.)) "cycles counted" 6.
    (Obs.Metrics.total (Obs.Metrics.snapshot (Production.metrics engine)) "production.cycles")

let test_footnote4_nonequivalence () =
  (* "on true if C do A" fires on EVERY event while C holds; the
     production rule fires once when C becomes true. *)
  let docs = [ ("/d", Term.elem "r" [ Term.elem "flag" [] ]) ] in
  let eca =
    Eca.make ~name:"naive" ~on:(Event_query.on (Qterm.var "E"))
      ~if_:(Condition.In (Condition.Local "/d", Qterm.el "flag" []))
      (Action.log "fire" [])
  in
  let h = harness ~docs () in
  let fire e = ignore (Eca.fire ~env:(env_of h) ~ops:(ops_of h) ~procs:no_procs eca (detection (mk [ ("E", Term.text e) ]))) in
  fire "e1";
  fire "e2";
  fire "e3";
  Alcotest.(check int) "ECA fired on every event" 3 (List.length h.logged)

(* ---- derivation of ECA from production rules ---- *)

let test_derive_eca () =
  let prod =
    {
      Production.name = "watch";
      condition = Condition.In (Condition.Local "/d", Qterm.el "flag" []);
      action = Action.log "hit" [];
    }
  in
  (match Derive.eca_of_production ~update_labels:[] prod with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty labels accepted");
  match Derive.eca_of_production ~update_labels:[ "update" ] prod with
  | Error e -> Alcotest.fail e
  | Ok eca ->
      Alcotest.(check string) "derived name" "watch:as-eca" eca.Eca.name;
      let docs = [ ("/d", Term.elem "r" [ Term.elem "flag" [] ]) ] in
      let h, results = fire_rule ~docs eca (detection (mk [ ("_update", Term.text "u") ])) in
      Alcotest.(check int) "derived rule fires on update event" 1 (List.length results);
      ignore h

let test_derive_auto () =
  let prod =
    {
      Production.name = "watch";
      condition =
        Condition.And
          [
            Condition.In (Condition.Local "/stock", Qterm.el "low" []);
            Condition.Not (Condition.In (Condition.Local "/orders", Qterm.el "pending" []));
            Condition.In (Condition.Remote "other.example/x", Qterm.el "y" []);
          ];
      action = Action.log "hit" [];
    }
  in
  Alcotest.(check (list string)) "condition docs found (local only, through Not)"
    [ "/orders"; "/stock" ]
    (Derive.condition_docs prod.Production.condition);
  (match Derive.eca_of_production_auto prod with
  | Error e -> Alcotest.fail e
  | Ok eca ->
      (* fires on updates of /stock but not of /elsewhere *)
      let fire doc =
        let subst =
          Instance.atomic Subst.empty 1 1
        in
        ignore subst;
        let payload = Term.elem "update" ~attrs:[ ("doc", doc); ("kind", "insert") ] [] in
        let engine = Incremental.create_exn eca.Eca.event in
        let e = Event.make ~occurred_at:1 ~label:"update" payload in
        List.length (Incremental.feed engine e)
      in
      Alcotest.(check int) "triggered by /stock updates" 1 (fire "/stock");
      Alcotest.(check int) "triggered by /orders updates" 1 (fire "/orders");
      Alcotest.(check int) "not triggered by unrelated docs" 0 (fire "/elsewhere"));
  let no_docs =
    { Production.name = "p"; condition = Condition.True; action = Action.Nop }
  in
  match Derive.eca_of_production_auto no_docs with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "derivation without local reads accepted"

let suite =
  ( "rules",
    [
      Alcotest.test_case "insert" `Quick test_insert;
      Alcotest.test_case "insert with bindings" `Quick test_insert_with_bindings;
      Alcotest.test_case "delete matching (seeded pattern)" `Quick test_delete_matching_seeded;
      Alcotest.test_case "replace at selector" `Quick test_replace_at_selector;
      Alcotest.test_case "raise with computed recipient" `Quick test_raise;
      Alcotest.test_case "make_persistent bridges Thesis 4" `Quick test_make_persistent;
      Alcotest.test_case "sequences fail fast" `Quick test_seq_fail_fast;
      Alcotest.test_case "alternatives" `Quick test_alt;
      Alcotest.test_case "conditional actions" `Quick test_if_branching;
      Alcotest.test_case "procedures with lexical isolation" `Quick test_call_procedure;
      Alcotest.test_case "procedure arity checked" `Quick test_call_arity;
      Alcotest.test_case "log interpolation" `Quick test_log_interpolation;
      Alcotest.test_case "ECA fires once per answer" `Quick test_eca_branch_per_answer;
      Alcotest.test_case "ECAA else branch" `Quick test_ecaa_else;
      Alcotest.test_case "ECnAn first-match" `Quick test_ecnan_first_match;
      Alcotest.test_case "rule statistics" `Quick test_eca_stats;
      Alcotest.test_case "production rules: transition semantics" `Quick test_production_transition_semantics;
      Alcotest.test_case "footnote 4: on-true ECA is not a CA rule" `Quick test_footnote4_nonequivalence;
      Alcotest.test_case "derive ECA from production rule" `Quick test_derive_eca;
      Alcotest.test_case "automatic derivation from condition reads" `Quick test_derive_auto;
    ] )
