(* QCheck generators shared by the property suites. *)

open Xchange

let small_label = QCheck.Gen.oneofl [ "a"; "b"; "c"; "item"; "price"; "news" ]
let small_text = QCheck.Gen.oneofl [ "x"; "y"; "z"; "gold"; "red"; "" ]
let var_name = QCheck.Gen.oneofl [ "X"; "Y"; "Z"; "V"; "W" ]

let ordering = QCheck.Gen.oneofl [ Term.Ordered; Term.Unordered ]

(* data terms, size-bounded *)
let term_gen : Term.t QCheck.Gen.t =
  let open QCheck.Gen in
  sized_size (int_bound 12) @@ fix (fun self n ->
      if n <= 0 then
        oneof
          [
            map Term.text small_text;
            map (fun i -> Term.int i) (int_bound 100);
            map Term.bool_ bool;
          ]
      else
        frequency
          [
            (1, map Term.text small_text);
            (1, map (fun i -> Term.int i) (int_bound 100));
            ( 3,
              map3
                (fun label ord children -> Term.elem ~ord label children)
                small_label ordering
                (list_size (int_bound 3) (self (n / 2))) );
          ])

let term_arb = QCheck.make ~print:Term.to_string term_gen

(* terms that are valid XML roots (element at top) *)
let xml_term_gen =
  QCheck.Gen.(
    map3
      (fun label ord children -> Term.elem ~ord label children)
      small_label ordering
      (list_size (int_bound 4) term_gen))

let xml_term_arb = QCheck.make ~print:Term.to_string xml_term_gen

(* query terms *)
let leaf_pat_gen =
  QCheck.Gen.oneof
    [
      QCheck.Gen.return Qterm.Leaf_any;
      QCheck.Gen.map (fun s -> Qterm.Text_is s) small_text;
      QCheck.Gen.map (fun i -> Qterm.Num_is (float_of_int i)) (QCheck.Gen.int_bound 100);
      QCheck.Gen.map (fun b -> Qterm.Bool_is b) QCheck.Gen.bool;
    ]

let qterm_gen : Qterm.t QCheck.Gen.t =
  let open QCheck.Gen in
  sized_size (int_bound 8) @@ fix (fun self n ->
      if n <= 0 then
        oneof [ map (fun v -> Qterm.Var v) var_name; map (fun p -> Qterm.Leaf p) leaf_pat_gen ]
      else
        frequency
          [
            (1, map (fun v -> Qterm.Var v) var_name);
            (1, map (fun p -> Qterm.Leaf p) leaf_pat_gen);
            (1, map2 (fun v q -> Qterm.As (v, q)) var_name (self (n / 2)));
            (1, map (fun q -> Qterm.Desc q) (self (n / 2)));
            ( 4,
              let spec = oneofl [ Qterm.Total; Qterm.Partial ] in
              let child =
                frequency
                  [
                    (4, map Qterm.pos (self (n / 2)));
                    (1, map Qterm.without (self (n / 2)));
                    (1, map Qterm.opt (self (n / 2)));
                  ]
              in
              map3
                (fun label (spec, ord) children ->
                  Qterm.El { Qterm.label = Qterm.L label; attrs = []; ord; spec; children })
                small_label (pair spec ordering)
                (list_size (int_bound 3) child) );
          ])

let qterm_arb = QCheck.make ~print:(Fmt.str "%a" Qterm.pp) qterm_gen

(* ---- full-surface generators (plan differential suite) ----------------
   The compiled-plan oracle test needs the whole query surface: regex
   leaves, label variables / wildcards, attribute patterns — and data
   terms that carry attributes for them to hit. *)

let attr_key = QCheck.Gen.oneofl [ "k"; "id"; "lang" ]

(* all anchored-matchable; "gold|red" exercises whole-string alternation *)
let safe_regex = QCheck.Gen.oneofl [ "x"; "[a-z]+"; "p[0-9]+"; ".*"; "gold|red" ]

let attrs_gen =
  QCheck.Gen.(
    map
      (fun kvs ->
        (* Term.elem rejects duplicate keys *)
        List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) kvs)
      (list_size (int_bound 2) (pair attr_key small_text)))

(* data terms with attributes, size-bounded *)
let term_full_gen : Term.t QCheck.Gen.t =
  let open QCheck.Gen in
  sized_size (int_bound 12) @@ fix (fun self n ->
      if n <= 0 then
        oneof
          [
            map Term.text small_text;
            map (fun i -> Term.int i) (int_bound 100);
            map Term.bool_ bool;
          ]
      else
        frequency
          [
            (1, map Term.text small_text);
            (1, map (fun i -> Term.int i) (int_bound 100));
            ( 3,
              map3
                (fun label (ord, attrs) children -> Term.elem ~ord ~attrs label children)
                small_label (pair ordering attrs_gen)
                (list_size (int_bound 3) (self (n / 2))) );
          ])

let term_full_arb = QCheck.make ~print:Term.to_string term_full_gen

(* ---- digest generators -------------------------------------------------
   [Term.digest] must follow [Term.equal] exactly, so these terms add
   what [term_gen] leaves out: non-integer floats, both zeros, NaNs of
   either sign, attributes and surrogate ids.  Small integers keep
   equal leaves (and so equal multiset sums of raw values) frequent. *)

let float_gen =
  QCheck.Gen.oneofl [ 0.; -0.; Float.nan; -.Float.nan; 0.1; 1.5; -2.25; 1e300; 1.; 4. ]

let digest_term_gen : Term.t QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map Term.text small_text;
        map (fun i -> Term.int i) (int_bound 5);
        map Term.num float_gen;
        map Term.bool_ bool;
      ]
  in
  sized_size (int_bound 12) @@ fix (fun self n ->
      if n <= 0 then leaf
      else
        frequency
          [
            (2, leaf);
            ( 3,
              map3
                (fun label (ord, attrs) (id, children) ->
                  Term.with_id id (Term.elem ~ord ~attrs label children))
                small_label (pair ordering attrs_gen)
                (pair (int_bound 5) (list_size (int_bound 4) (self (n / 2)))) );
          ])

(* An extensionally equal copy: unordered children shuffled, fresh
   surrogate ids, zeros and NaNs with either sign. *)
let rec equal_copy_gen t =
  let open QCheck.Gen in
  match t with
  | Term.Num f when f = 0. || Float.is_nan f ->
      map (fun neg -> Term.num (if neg then -.f else f)) bool
  | Term.Elem e ->
      let* children = flatten_l (List.map equal_copy_gen e.Term.children) in
      let* children =
        match e.Term.ord with Term.Unordered -> shuffle_l children | Term.Ordered -> return children
      in
      let+ id = int_bound 5 in
      Term.Elem { e with Term.children; id }
  | Term.Text _ | Term.Num _ | Term.Bool _ -> return t

(* [t] with its [n]th subterm (pre-order) rewritten by [f]. *)
let rewrite_nth t n f =
  let i = ref (-1) in
  let rec go t =
    incr i;
    if !i = n then f t
    else
      match t with
      | Term.Elem e -> Term.Elem { e with Term.children = List.map go e.Term.children }
      | Term.Text _ | Term.Num _ | Term.Bool _ -> t
  in
  go t

(* Pairs that are often equal and often differ by little: a term and
   an equal copy of itself with one subterm replaced by a random term,
   or with one element's first child duplicated or dropped; and
   independent pairs. *)
let digest_pair_gen =
  let open QCheck.Gen in
  let edit t =
    let* n = int_bound (Term.size t - 1) in
    let* fresh = digest_term_gen in
    let+ op = int_bound 3 in
    rewrite_nth t n (fun sub ->
        match (op, sub) with
        | 1, Term.Elem ({ Term.children = c :: _; _ } as e) ->
            Term.Elem { e with Term.children = c :: e.Term.children }
        | 2, Term.Elem ({ Term.children = _ :: cs; _ } as e) ->
            Term.Elem { e with Term.children = cs }
        | 3, _ -> sub
        | _ -> fresh)
  in
  frequency
    [
      (1, pair digest_term_gen digest_term_gen);
      ( 3,
        let* a = digest_term_gen in
        let* b = edit a in
        let+ b = equal_copy_gen b in
        (a, b) );
    ]

let digest_pair_arb =
  QCheck.make ~print:QCheck.Print.(pair Term.to_string Term.to_string) digest_pair_gen

let label_pat_gen =
  QCheck.Gen.frequency
    [
      (4, QCheck.Gen.map (fun l -> Qterm.L l) small_label);
      (1, QCheck.Gen.return Qterm.L_any);
      (1, QCheck.Gen.map (fun v -> Qterm.L_var v) var_name);
    ]

let attr_pat_gen =
  QCheck.Gen.(
    pair attr_key
      (oneof
         [
           map (fun s -> Qterm.A_is s) small_text;
           map (fun v -> Qterm.A_var v) var_name;
           return Qterm.A_any;
         ]))

let leaf_pat_full_gen =
  QCheck.Gen.frequency
    [ (4, leaf_pat_gen); (1, QCheck.Gen.map (fun r -> Qterm.Regex r) safe_regex) ]

(* query terms over the whole surface: ordered/unordered x total/partial
   x optional x without x As/Desc/regex/label-var/attrs *)
let qterm_full_gen : Qterm.t QCheck.Gen.t =
  let open QCheck.Gen in
  sized_size (int_bound 8) @@ fix (fun self n ->
      if n <= 0 then
        oneof
          [ map (fun v -> Qterm.Var v) var_name; map (fun p -> Qterm.Leaf p) leaf_pat_full_gen ]
      else
        frequency
          [
            (1, map (fun v -> Qterm.Var v) var_name);
            (1, map (fun p -> Qterm.Leaf p) leaf_pat_full_gen);
            (1, map2 (fun v q -> Qterm.As (v, q)) var_name (self (n / 2)));
            (1, map (fun q -> Qterm.Desc q) (self (n / 2)));
            ( 4,
              let spec = oneofl [ Qterm.Total; Qterm.Partial ] in
              let child =
                frequency
                  [
                    (4, map Qterm.pos (self (n / 2)));
                    (1, map Qterm.without (self (n / 2)));
                    (1, map Qterm.opt (self (n / 2)));
                  ]
              in
              map3
                (fun label ((spec, ord), attrs) children ->
                  Qterm.El { Qterm.label; attrs; ord; spec; children })
                label_pat_gen
                (pair (pair spec ordering)
                   (map
                      (List.sort_uniq (fun (a, _) (b, _) -> String.compare a b))
                      (list_size (int_bound 2) attr_pat_gen)))
                (list_size (int_bound 3) child) );
          ])

let qterm_full_arb = QCheck.make ~print:(Fmt.str "%a" Qterm.pp) qterm_full_gen

(* event streams: (time, label, payload) with non-decreasing times *)
let event_stream_gen ~labels ~max_len ~max_gap : Event.t list QCheck.Gen.t =
  let open QCheck.Gen in
  let item =
    triple (int_bound max_gap) (oneofl labels) term_gen
  in
  map
    (fun items ->
      let _, events =
        List.fold_left
          (fun (t, acc) (gap, label, payload) ->
            let t = t + 1 + gap in
            (t, Event.make ~occurred_at:t ~label payload :: acc))
          (0, []) items
      in
      List.rev events)
    (list_size (int_bound max_len) item)

(* small event queries over the labels of [event_stream_gen] *)
let event_query_gen : Event_query.t QCheck.Gen.t =
  let open QCheck.Gen in
  let atomic =
    map2
      (fun label q -> Event_query.on ~label q)
      (oneofl [ "a"; "b"; "c" ])
      (oneof
         [
           return (Qterm.var "P");
           map (fun l -> Qterm.el l [ Qterm.pos (Qterm.var "X") ]) small_label;
           map (fun l -> Qterm.el l []) small_label;
         ])
  in
  sized_size (int_bound 4) @@ fix (fun self n ->
      if n <= 0 then atomic
      else
        frequency
          [
            (2, atomic);
            (1, map (fun qs -> Event_query.And qs) (list_size (int_range 1 2) (self (n / 2))));
            (1, map (fun qs -> Event_query.Or qs) (list_size (int_range 1 2) (self (n / 2))));
            (1, map (fun qs -> Event_query.Seq qs) (list_size (int_range 1 2) (self (n / 2))));
            ( 1,
              map2
                (fun q w -> Event_query.Within (q, 1 + w))
                (self (n / 2)) (int_bound 50) );
            ( 1,
              map3
                (fun q1 q2 w -> Event_query.Absent (q1, q2, 1 + w))
                atomic atomic (int_bound 30) );
            (* absence over a composite start: exercises late-completing
               starts against stored blockers *)
            ( 1,
              map3
                (fun q1 q2 w ->
                  Event_query.Absent (Event_query.And [ q1; q2 ], q1, 1 + w))
                atomic atomic (int_bound 30) );
            ( 1,
              map2 (fun q w -> Event_query.Times (2, q, 1 + w)) atomic (int_bound 50) );
            (* repetition over a composite *)
            ( 1,
              map3
                (fun q1 q2 w ->
                  Event_query.Times (2, Event_query.Within (Event_query.And [ q1; q2 ], 1 + w), 40))
                atomic atomic (int_bound 20) );
          ])

let event_query_arb = QCheck.make ~print:(Fmt.str "%a" Event_query.pp) event_query_gen
