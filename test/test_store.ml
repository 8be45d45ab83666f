open Xchange

let term = Alcotest.testable Term.pp Term.equal

let fresh_store () =
  let s = Store.create () in
  Store.add_doc s "/news"
    (Term.elem ~ord:Term.Unordered "news"
       [
         Term.elem "article" [ Term.elem "title" [ Term.text "rain" ]; Term.elem "body" [ Term.text "wet" ] ];
         Term.elem "article" [ Term.elem "title" [ Term.text "sun" ]; Term.elem "body" [ Term.text "dry" ] ];
       ]);
  s

let apply s u = match Store.apply s u with Ok r -> r | Error e -> Alcotest.fail e

let test_docs () =
  let s = fresh_store () in
  Alcotest.(check (list string)) "names" [ "/news" ] (Store.doc_names s);
  Alcotest.(check bool) "oids assigned" true
    (Term.elem_id (Option.get (Store.doc s "/news")) <> Term.no_id);
  Alcotest.(check bool) "remove" true (Store.remove_doc s "/news");
  Alcotest.(check bool) "remove twice" false (Store.remove_doc s "/news")

let test_insert_notification () =
  let s = fresh_store () in
  let n, notifications =
    apply s (Action.U_insert { doc = "/news"; selector = []; at = None; content = Term.elem "article" [] })
  in
  Alcotest.(check int) "one insertion point" 1 n;
  (match notifications with
  | [ { Store.doc; summary } ] ->
      Alcotest.(check string) "doc named" "/news" doc;
      Alcotest.(check (option string)) "kind attr" (Some "insert") (Term.attr "kind" summary)
  | _ -> Alcotest.fail "expected one notification");
  Alcotest.(check int) "3 articles" 3 (List.length (Term.children (Option.get (Store.doc s "/news"))))

let test_insert_missing_doc () =
  let s = fresh_store () in
  match Store.apply s (Action.U_insert { doc = "/none"; selector = []; at = None; content = Term.text "x" }) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "insert into missing doc accepted"

let test_delete_pattern () =
  let s = fresh_store () in
  let rain = Qterm.el "article" [ Qterm.pos (Qterm.el "title" [ Qterm.pos (Qterm.txt "rain") ]) ] in
  let n, _ = apply s (Action.U_delete { doc = "/news"; selector = []; pattern = Some rain }) in
  Alcotest.(check int) "one node affected" 1 n;
  Alcotest.(check int) "one article left" 1
    (List.length (Term.children (Option.get (Store.doc s "/news"))))

(* one pattern delete removes several children: the survivors keep
   their order and surrogate ids, the kept digest follows the deleted
   children, and a nested selection keeps its deeper deletions *)
let test_delete_pattern_many () =
  let s = Store.create () in
  let item k = Term.elem "item" [ Term.elem (if k mod 3 = 0 then "gone" else "kept") []; Term.int k ] in
  Store.add_doc s "/items" (Term.elem ~ord:Term.Unordered "items" (List.init 10 item));
  ignore (Store.query s ~doc:"/items" (Qterm.var "X")) (* computes the version digest *);
  let ids_of doc ks =
    List.filter_map
      (fun c -> if List.mem (Term.children c |> List.rev |> List.hd) ks then Some (Term.elem_id c) else None)
      (Term.children doc)
  in
  let survivors = List.map Term.int [ 1; 2; 4; 5; 7; 8 ] in
  let ids0 = ids_of (Option.get (Store.doc s "/items")) survivors in
  let gone = Qterm.el "item" [ Qterm.pos (Qterm.el "gone" []) ] in
  let n, _ = apply s (Action.U_delete { doc = "/items"; selector = []; pattern = Some gone }) in
  Alcotest.(check int) "one selected node rewritten" 1 n;
  let doc = Option.get (Store.doc s "/items") in
  Alcotest.(check (list term)) "survivors in order"
    (List.map (fun k -> Term.strip_ids (item k)) [ 1; 2; 4; 5; 7; 8 ])
    (List.map Term.strip_ids (Term.children doc));
  Alcotest.(check (list int)) "survivor ids kept" ids0 (ids_of doc survivors);
  Alcotest.(check (option int)) "kept digest follows the deletes" (Some (Term.digest doc))
    (Store.version_digest s "/items");
  let box kids = Term.elem "box" kids in
  let x = Term.elem "x" [] and y = Term.elem "y" [] in
  Store.add_doc s "/boxes" (Term.elem "root" [ box [ x; box [ x; y; x ]; x; y ] ]);
  let sel = Result.get_ok (Path.parse_selector "//box") in
  let n, _ =
    apply s (Action.U_delete { doc = "/boxes"; selector = sel; pattern = Some (Qterm.el "x" []) })
  in
  Alcotest.(check int) "both boxes rewritten" 2 n;
  Alcotest.(check term) "nested deletions kept"
    (Term.elem "root" [ box [ box [ y ]; y ] ])
    (Term.strip_ids (Option.get (Store.doc s "/boxes")))

let test_replace_keeps_surrogate_identity () =
  let s = fresh_store () in
  let doc = Option.get (Store.doc s "/news") in
  let first_oid = Term.elem_id (List.hd (Term.children doc)) in
  let sel = Result.get_ok (Path.parse_selector "/article") in
  (* replace ALL articles; each replacement inherits the oid it replaces *)
  let n, _ =
    apply s (Action.U_replace { doc = "/news"; selector = sel; content = Term.elem "article" [ Term.text "new" ] })
  in
  Alcotest.(check int) "two replaced" 2 n;
  let doc' = Option.get (Store.doc s "/news") in
  let oids' = List.map Term.elem_id (Term.children doc') in
  Alcotest.(check bool) "identity preserved across value change" true (List.mem first_oid oids')

let test_rdf_updates () =
  let s = Store.create () in
  let t = { Rdf.s = Rdf.Iri "a"; p = "p"; o = Rdf.Lit "x" } in
  let n, _ = apply s (Action.U_rdf_assert { doc = "/g"; triple = t }) in
  Alcotest.(check int) "asserted" 1 n;
  let n2, notifs = apply s (Action.U_rdf_assert { doc = "/g"; triple = t }) in
  Alcotest.(check int) "duplicate is a no-op" 0 n2;
  Alcotest.(check int) "no notification for no-op" 0 (List.length notifs);
  let n3, _ = apply s (Action.U_rdf_retract { doc = "/g"; triple = t }) in
  Alcotest.(check int) "retracted" 1 n3;
  match Store.apply s (Action.U_rdf_retract { doc = "/none"; triple = t }) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "retract from missing graph accepted"

let test_env () =
  let s = fresh_store () in
  let env = Store.env s in
  Alcotest.(check int) "local fetch" 1 (List.length (env.Condition.fetch (Condition.Local "/news")));
  Alcotest.(check int) "remote fetch by path" 1
    (List.length (env.Condition.fetch (Condition.Remote "anyhost.example/news")));
  Alcotest.(check int) "views not resolved here" 0
    (List.length (env.Condition.fetch (Condition.View "v")))

(* ---- Thesis 10: watches ---- *)

let article_path store title =
  let doc = Option.get (Store.doc store "/news") in
  let hits =
    Path.select doc [ (Path.Child, Path.Tag "article") ]
    |> List.filter (fun (_, a) ->
           Simulate.holds (Qterm.el "article" [ Qterm.pos (Qterm.el "title" [ Qterm.pos (Qterm.txt title) ]) ]) a)
  in
  match hits with (p, _) :: _ -> p | [] -> Alcotest.fail ("article not found: " ^ title)

let test_surrogate_watch_survives_change () =
  let s = fresh_store () in
  let p = article_path s "rain" in
  let w = Result.get_ok (Store.watch_surrogate s ~doc:"/news" p) in
  Alcotest.(check bool) "initially unchanged" true (Store.poll_watch s w = `Unchanged);
  (* change the article's value through a replace that keeps identity *)
  let sel = Result.get_ok (Path.parse_selector "/article") in
  ignore
    (apply s
       (Action.U_replace { doc = "/news"; selector = sel; content = Term.elem "article" [ Term.text "v2" ] }));
  (match Store.poll_watch s w with
  | `Changed t -> Alcotest.check term "new value visible" (Term.elem "article" [ Term.text "v2" ]) (Term.strip_ids t)
  | `Unchanged -> Alcotest.fail "change missed"
  | `Lost -> Alcotest.fail "surrogate identity lost on value change");
  (* steady state again *)
  Alcotest.(check bool) "quiet after change" true (Store.poll_watch s w = `Unchanged)

let test_surrogate_watch_lost_on_delete () =
  let s = fresh_store () in
  let p = article_path s "rain" in
  let w = Result.get_ok (Store.watch_surrogate s ~doc:"/news" p) in
  let rain = Qterm.el "article" [ Qterm.pos (Qterm.el "title" [ Qterm.pos (Qterm.txt "rain") ]) ] in
  ignore (apply s (Action.U_delete { doc = "/news"; selector = []; pattern = Some rain }));
  Alcotest.(check bool) "deletion loses the object" true (Store.poll_watch s w = `Lost)

let test_extensional_watch_lost_on_change () =
  let s = fresh_store () in
  let doc = Option.get (Store.doc s "/news") in
  let rain_article = List.hd (Term.children doc) in
  let w = Result.get_ok (Store.watch_extensional s ~doc:"/news" (Term.strip_ids rain_article)) in
  Alcotest.(check bool) "initially present" true (Store.poll_watch s w = `Unchanged);
  let sel = Result.get_ok (Path.parse_selector "/article") in
  ignore
    (apply s
       (Action.U_replace { doc = "/news"; selector = sel; content = Term.elem "article" [ Term.text "v2" ] }));
  (* the Thesis 10 point: when the value changes, extensional identity
     cannot find the object any more *)
  Alcotest.(check bool) "identity lost with value" true (Store.poll_watch s w = `Lost)

let test_watch_errors () =
  let s = fresh_store () in
  (match Store.watch_surrogate s ~doc:"/none" [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "watch on missing doc accepted");
  match Store.watch_extensional s ~doc:"/news" (Term.text "not-there") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "watch on absent value accepted"

let suite =
  ( "store",
    [
      Alcotest.test_case "document management" `Quick test_docs;
      Alcotest.test_case "insert + notification" `Quick test_insert_notification;
      Alcotest.test_case "insert into missing doc fails" `Quick test_insert_missing_doc;
      Alcotest.test_case "delete by pattern" `Quick test_delete_pattern;
      Alcotest.test_case "delete several children at once" `Quick test_delete_pattern_many;
      Alcotest.test_case "replace preserves surrogate identity" `Quick test_replace_keeps_surrogate_identity;
      Alcotest.test_case "RDF assert/retract" `Quick test_rdf_updates;
      Alcotest.test_case "query environment" `Quick test_env;
      Alcotest.test_case "surrogate watch survives value change" `Quick test_surrogate_watch_survives_change;
      Alcotest.test_case "surrogate watch lost on deletion" `Quick test_surrogate_watch_lost_on_delete;
      Alcotest.test_case "extensional watch lost on change" `Quick test_extensional_watch_lost_on_change;
      Alcotest.test_case "watch error cases" `Quick test_watch_errors;
    ] )
