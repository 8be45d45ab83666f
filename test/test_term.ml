open Xchange

let term = Alcotest.testable Term.pp Term.equal

let test_constructors () =
  let t = Term.elem "a" ~attrs:[ ("k", "v") ] [ Term.text "x"; Term.int 3 ] in
  Alcotest.(check (option string)) "label" (Some "a") (Term.label t);
  Alcotest.(check (option string)) "attr" (Some "v") (Term.attr "k" t);
  Alcotest.(check (option string)) "missing attr" None (Term.attr "z" t);
  Alcotest.(check int) "children" 2 (List.length (Term.children t));
  Alcotest.(check int) "size" 3 (Term.size t);
  Alcotest.(check int) "depth" 2 (Term.depth t)

let test_duplicate_attr () =
  Alcotest.check_raises "duplicate attribute"
    (Invalid_argument "Term.elem: duplicate attribute k")
    (fun () -> ignore (Term.elem "a" ~attrs:[ ("k", "1"); ("k", "2") ] []))

let test_attr_sorted () =
  let t = Term.elem "a" ~attrs:[ ("z", "1"); ("a", "2") ] [] in
  match t with
  | Term.Elem e -> Alcotest.(check (list (pair string string))) "sorted" [ ("a", "2"); ("z", "1") ] e.Term.attrs
  | _ -> Alcotest.fail "not an element"

let test_unordered_equality () =
  let a = Term.elem ~ord:Term.Unordered "s" [ Term.text "x"; Term.text "y" ] in
  let b = Term.elem ~ord:Term.Unordered "s" [ Term.text "y"; Term.text "x" ] in
  Alcotest.check term "permutation equal" a b;
  let c = Term.elem ~ord:Term.Ordered "s" [ Term.text "y"; Term.text "x" ] in
  Alcotest.(check bool) "ordered differs from unordered" false (Term.equal a c)

let test_ordered_inequality () =
  let a = Term.elem "s" [ Term.text "x"; Term.text "y" ] in
  let b = Term.elem "s" [ Term.text "y"; Term.text "x" ] in
  Alcotest.(check bool) "order significant" false (Term.equal a b)

let test_ids_ignored () =
  let a = Term.elem "a" [ Term.text "x" ] in
  let b = Term.with_id 42 (Term.elem "a" [ Term.text "x" ]) in
  Alcotest.check term "ids extensionally invisible" a b;
  Alcotest.(check int) "digest agrees" (Term.digest a) (Term.digest b);
  Alcotest.(check int) "id readable" 42 (Term.elem_id b);
  Alcotest.(check int) "strip resets" Term.no_id (Term.elem_id (Term.strip_ids b))

let test_as_num () =
  Alcotest.(check (option (float 1e-9))) "num leaf" (Some 3.5) (Term.as_num (Term.num 3.5));
  Alcotest.(check (option (float 1e-9))) "text coerces" (Some 42.) (Term.as_num (Term.text " 42 "));
  Alcotest.(check (option (float 1e-9))) "bool coerces" (Some 1.) (Term.as_num (Term.bool_ true));
  Alcotest.(check (option (float 1e-9))) "elem is not a number" None (Term.as_num (Term.elem "a" []))

let test_as_text () =
  Alcotest.(check (option string)) "int renders without dot" (Some "3") (Term.as_text (Term.int 3));
  Alcotest.(check (option string)) "bool" (Some "true") (Term.as_text (Term.bool_ true));
  Alcotest.(check (option string)) "elem none" None (Term.as_text (Term.elem "a" []))

let test_traversal () =
  let t = Term.elem "a" [ Term.elem "b" [ Term.text "x" ]; Term.text "y" ] in
  Alcotest.(check int) "subterms count" 4 (List.length (Term.subterms t));
  let texts = Term.find_all (fun s -> Term.as_text s <> None) t in
  Alcotest.(check int) "two leaves" 2 (List.length texts);
  let upper =
    Term.map_elements (fun e -> { e with Term.label = String.uppercase_ascii e.Term.label }) t
  in
  Alcotest.(check (option string)) "mapped label" (Some "A") (Term.label upper)

let prop_equal_refl =
  QCheck.Test.make ~name:"equal is reflexive" ~count:200 Gen.term_arb (fun t -> Term.equal t t)

let prop_compare_antisym =
  QCheck.Test.make ~name:"compare antisymmetric" ~count:200
    (QCheck.pair Gen.term_arb Gen.term_arb) (fun (a, b) ->
      let c1 = Term.compare a b and c2 = Term.compare b a in
      (c1 = 0 && c2 = 0) || (c1 > 0 && c2 < 0) || (c1 < 0 && c2 > 0))

let prop_digest_consistent =
  let copies =
    QCheck.Gen.(
      let* t = Gen.digest_term_gen in
      let+ copy = Gen.equal_copy_gen t in
      (t, copy))
  in
  QCheck.Test.make ~name:"equal terms share digest" ~count:500
    (QCheck.make ~print:QCheck.Print.(pair Term.to_string Term.to_string) copies)
    (fun (t, copy) -> Term.equal t copy && Term.digest t = Term.digest copy)

let prop_digest_iff_equal =
  QCheck.Test.make ~name:"digest equal iff terms equal" ~count:1000 Gen.digest_pair_arb
    (fun (a, b) -> Term.equal a b = (Term.digest a = Term.digest b))

(* Multisets whose raw values sum alike, or whose members do: a plain
   sum of unmixed hashes would confuse each pair. *)
let test_digest_separates () =
  let set children = Term.elem ~ord:Term.Unordered "s" children in
  let ints l = set (List.map Term.int l) and texts l = set (List.map Term.text l) in
  let items = [ Term.elem "item" [ Term.text "x" ]; Term.int 2; Term.text "y" ] in
  List.iter
    (fun (name, a, b) ->
      Alcotest.(check bool) (name ^ ": unequal") false (Term.equal a b);
      Alcotest.(check bool) (name ^ ": digests differ") false (Term.digest a = Term.digest b))
    [
      ("{1, 4} vs {2, 3}", ints [ 1; 4 ], ints [ 2; 3 ]);
      ("{x, x} vs {y, z}", texts [ "x"; "x" ], texts [ "y"; "z" ]);
      ("a multiset vs one child duplicated", set items, set (List.hd items :: items));
    ];
  List.iter
    (fun (name, a, b) ->
      Alcotest.(check bool) (name ^ ": equal") true (Term.equal a b);
      Alcotest.(check int) (name ^ ": digests equal") (Term.digest a) (Term.digest b))
    [
      ("0. vs -0.", Term.num 0., Term.num (-0.));
      ("nan vs -nan", Term.num Float.nan, Term.num (-.Float.nan));
    ]

let prop_size_positive =
  QCheck.Test.make ~name:"size >= 1 and >= depth" ~count:200 Gen.term_arb (fun t ->
      Term.size t >= 1 && Term.size t >= Term.depth t)

let suite =
  ( "term",
    [
      Alcotest.test_case "constructors and accessors" `Quick test_constructors;
      Alcotest.test_case "duplicate attributes rejected" `Quick test_duplicate_attr;
      Alcotest.test_case "attributes sorted" `Quick test_attr_sorted;
      Alcotest.test_case "unordered children compare as multisets" `Quick test_unordered_equality;
      Alcotest.test_case "ordered children order-sensitive" `Quick test_ordered_inequality;
      Alcotest.test_case "surrogate ids are extensionally invisible" `Quick test_ids_ignored;
      Alcotest.test_case "numeric coercions" `Quick test_as_num;
      Alcotest.test_case "textual coercions" `Quick test_as_text;
      Alcotest.test_case "traversal helpers" `Quick test_traversal;
      QCheck_alcotest.to_alcotest prop_equal_refl;
      QCheck_alcotest.to_alcotest prop_compare_antisym;
      QCheck_alcotest.to_alcotest prop_digest_consistent;
      QCheck_alcotest.to_alcotest prop_size_positive;
      Alcotest.test_case "digest separates multisets with equal raw sums" `Quick
        test_digest_separates;
      QCheck_alcotest.to_alcotest prop_digest_iff_equal;
    ] )
