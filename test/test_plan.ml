(* Compiled query plans (lib/query/plan.ml) must be a pure acceleration
   of the interpreting matcher: every property here runs the compiled
   path against the interpreter ([~plan:false], the reference
   implementation) on randomly generated queries x documents over the
   whole query surface — ordered/unordered x total/partial x optional x
   without x As/Desc/regex/label-var/attrs — and demands identical
   answers.  See HACKING.md "Query compilation". *)

open Xchange

let subst_sets_equal a b = List.equal Subst.equal a b

let pp_set = Fmt.str "%a" Subst.pp_set

let seed_x = Option.get (Subst.of_list [ ("X", Term.text "x") ])

(* ---- differential: compiled plan = interpreter ---- *)

let root_prop ~seed (q, t) =
  let interp = Simulate.matches ~plan:false ~seed q t in
  let compiled = Simulate.matches ~plan:true ~seed q t in
  if subst_sets_equal interp compiled then true
  else
    QCheck.Test.fail_reportf "query %a@.doc %s@.interp: %s@.plan: %s" Qterm.pp q
      (Term.to_string t) (pp_set interp) (pp_set compiled)

let prop_plan_root =
  QCheck.Test.make ~name:"plan: matches = interpreter" ~count:2000
    (QCheck.pair Gen.qterm_full_arb Gen.term_full_arb)
    (root_prop ~seed:Subst.empty)

let prop_plan_root_seeded =
  QCheck.Test.make ~name:"plan: matches = interpreter (seeded)" ~count:500
    (QCheck.pair Gen.qterm_full_arb Gen.term_full_arb)
    (root_prop ~seed:seed_x)

let anywhere_prop (q, t) =
  let interp = Simulate.matches_anywhere ~plan:false q t in
  let compiled = Simulate.matches_anywhere ~plan:true q t in
  if subst_sets_equal interp compiled then true
  else
    QCheck.Test.fail_reportf "query %a@.doc %s@.interp: %s@.plan: %s" Qterm.pp q
      (Term.to_string t) (pp_set interp) (pp_set compiled)

let prop_plan_anywhere =
  QCheck.Test.make ~name:"plan: matches_anywhere = interpreter" ~count:2000
    (QCheck.pair Gen.qterm_full_arb Gen.term_full_arb)
    anywhere_prop

(* ---- label-grouped shapes ----
   Element patterns whose children are all required and exactly
   labelled take the plan's per-label search.  Labels repeat among the
   patterns and among the data children, and data children mix leaves
   with same-label elements, so per-label counts, leaf refutation under
   Total and document order inside a label all matter. *)

let group_label = QCheck.Gen.oneofl [ "a"; "b"; "c" ]

let group_query_gen =
  let open QCheck.Gen in
  let var_name = oneofl [ "X"; "Y"; "Z" ] in
  let leaf = oneof [ map Qterm.var var_name; map Qterm.txt (oneofl [ "x"; "y" ]) ] in
  let child =
    map3
      (fun label inner as_var ->
        let q = Qterm.el label (List.map Qterm.pos inner) in
        match as_var with Some v -> Qterm.As (v, q) | None -> q)
      group_label (list_size (int_bound 1) leaf)
      (opt ~ratio:0.2 var_name)
  in
  map3
    (fun (ord, spec) children root ->
      Qterm.El
        { Qterm.label = Qterm.L root; attrs = []; ord; spec; children = List.map Qterm.pos children })
    (pair Gen.ordering (oneofl [ Qterm.Total; Qterm.Partial ]))
    (list_size (int_range 1 4) child)
    (oneofl [ "r"; "a" ])

let group_term_gen =
  let open QCheck.Gen in
  let leaf = map Term.text (oneofl [ "x"; "y" ]) in
  let child =
    frequency
      [
        (1, leaf);
        (4, map2 (fun label inner -> Term.elem label inner) group_label (list_size (int_bound 1) leaf));
      ]
  in
  map3
    (fun ord root children -> Term.elem ~ord root children)
    Gen.ordering (oneofl [ "r"; "a" ])
    (list_size (int_bound 5) child)

let prop_plan_label_groups =
  QCheck.Test.make ~name:"plan: label-grouped shapes = interpreter" ~count:1000
    (QCheck.pair
       (QCheck.make ~print:(Fmt.str "%a" Qterm.pp) group_query_gen)
       (QCheck.make ~print:Term.to_string group_term_gen))
    (fun (q, t) -> root_prop ~seed:Subst.empty (q, t) && anywhere_prop (q, t))

(* ---- fingerprint pruning: fires, and prunes only true rejections ---- *)

let test_fingerprint_prune () =
  (* decoys carry the right label but cannot contain the required child
     labels — the fingerprint refutes them before any descent *)
  let hit i =
    Term.elem ~ord:Term.Unordered "rec"
      [
        Term.elem "name" [ Term.text (Printf.sprintf "n%d" i) ];
        Term.elem "price" [ Term.int i ];
      ]
  in
  let decoy i =
    Term.elem ~ord:Term.Unordered "rec"
      [ Term.elem "name" [ Term.text (Printf.sprintf "d%d" i) ]; Term.elem "qty" [ Term.int i ] ]
  in
  let doc =
    Term.elem ~ord:Term.Unordered "db"
      (List.init 20 (fun i -> if i mod 2 = 0 then hit i else decoy i))
  in
  let q =
    Qterm.el ~ord:Term.Unordered "rec"
      [
        Qterm.pos (Qterm.el "name" [ Qterm.pos (Qterm.var "N") ]);
        Qterm.pos (Qterm.el "price" [ Qterm.pos (Qterm.var "P") ]);
      ]
  in
  let before = Plan.fingerprint_pruned () in
  let compiled = Simulate.matches_anywhere ~plan:true q doc in
  let pruned = Plan.fingerprint_pruned () - before in
  let interp = Simulate.matches_anywhere ~plan:false q doc in
  Alcotest.(check bool) "answers equal" true (subst_sets_equal interp compiled);
  Alcotest.(check int) "10 hits" 10 (List.length compiled);
  Alcotest.(check int) "10 decoys fingerprint-pruned" 10 pruned

(* ---- plan cache: second evaluation hits ---- *)

let test_plan_cache () =
  let q = Qterm.el "cache-probe" [ Qterm.pos (Qterm.var "X") ] in
  let doc = Term.elem "cache-probe" [ Term.text "v" ] in
  let hits_of () =
    match Obs.Metrics.find (Obs.Metrics.snapshot Simulate.metrics) "query.plan_cache_hits" with
    | Some (Obs.Metrics.Int n) -> n
    | _ -> Alcotest.fail "plan_cache_hits cell missing"
  in
  (* [~plan:true] so the test also runs under XCHANGE_NO_PLAN=1 *)
  let (_ : Subst.set) = Simulate.matches ~plan:true q doc in
  let h0 = hits_of () in
  let (_ : Subst.set) = Simulate.matches ~plan:true q doc in
  Alcotest.(check bool) "second evaluation hits the plan cache" true (hits_of () > h0)

(* ---- store coherence: document mutation yields fresh answers ---- *)

let test_store_mutation () =
  let store = Store.create () in
  Store.add_doc store "/db" (Term.elem "db" [ Term.elem "item" [ Term.text "a" ] ]);
  let q = Qterm.el "item" [ Qterm.pos (Qterm.var "X") ] in
  let a1 = Store.query store ~doc:"/db" q in
  Alcotest.(check int) "one answer before mutation" 1 (List.length a1);
  (match
     Store.apply store
       (Action.U_insert
          {
            doc = "/db";
            selector = [];
            at = None;
            content = Term.elem "item" [ Term.text "b" ];
          })
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let a2 = Store.query store ~doc:"/db" q in
  Alcotest.(check int) "two answers after mutation" 2 (List.length a2);
  (* and they match a fresh interpreter evaluation of the new version *)
  let fresh =
    Simulate.matches_anywhere ~plan:false q (Option.get (Store.doc store "/db"))
  in
  Alcotest.(check bool) "cached+plan = fresh interpreter" true (subst_sets_equal fresh a2)

(* ---- anchored regex: whole-leaf semantics on both paths ---- *)

let test_regex_anchored () =
  let q = Qterm.el "a" [ Qterm.pos (Qterm.regex "gold|red") ] in
  let yes = Term.elem "a" [ Term.text "red" ] in
  let no = Term.elem "a" [ Term.text "reddish" ] in
  List.iter
    (fun plan ->
      Alcotest.(check bool) "alternation matches whole leaf" true (Simulate.holds ~plan q yes);
      Alcotest.(check bool) "substring match rejected" false (Simulate.holds ~plan q no))
    [ true; false ]

let suite =
  ( "plan",
    [
      QCheck_alcotest.to_alcotest ~long:true prop_plan_root;
      QCheck_alcotest.to_alcotest prop_plan_root_seeded;
      QCheck_alcotest.to_alcotest ~long:true prop_plan_anywhere;
      QCheck_alcotest.to_alcotest prop_plan_label_groups;
      Alcotest.test_case "fingerprint pruning" `Quick test_fingerprint_prune;
      Alcotest.test_case "plan cache hits" `Quick test_plan_cache;
      Alcotest.test_case "store mutation coherence" `Quick test_store_mutation;
      Alcotest.test_case "anchored regex semantics" `Quick test_regex_anchored;
    ] )
