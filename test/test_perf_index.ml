(* The hot-path accelerators (sub-index dispatch, query cache, dedup)
   must be pure accelerations: every property here pits an indexed or
   memoized evaluation against the naive reference and demands identical
   answers.  See HACKING.md "Performance architecture". *)

open Xchange

let subst_sets_equal a b = List.equal Subst.equal a b

let pp_set = Fmt.str "%a" Subst.pp_set

let seed_x = Option.get (Subst.of_list [ ("X", Term.text "x") ])

(* ---- Subst.dedup: bucketed fast path = reference sort_uniq ---- *)

let subst_gen =
  QCheck.Gen.(
    map
      (fun l -> match Subst.of_list l with Some s -> s | None -> Subst.empty)
      (list_size (int_bound 3) (pair Gen.var_name Gen.term_gen)))

let prop_dedup =
  QCheck.Test.make ~name:"Subst.dedup = sort_uniq Subst.compare" ~count:1000
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_bound 60) subst_gen))
    (fun l -> subst_sets_equal (Subst.dedup l) (List.sort_uniq Subst.compare l))

(* ---- Engine: sub-index dispatch = full scan ---- *)

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
        (* conditional rules exercise the store-memoized condition path *)
        Eca.make ~name ~on:q
          ~if_:(Condition.In (Condition.Local "/orders", Qterm.el "row" []))
          action)
    queries

let dispatch_prop (queries, events) =
  let valid = List.filter (fun q -> Result.is_ok (Event_query.validate q)) queries in
  if valid = [] then QCheck.assume_fail ()
  else
    let run index =
      let engine = Engine.create_exn ~index (Ruleset.make ~rules:(rules_of valid) "p") in
      let store, ops = harness () in
      let env = Store.env store in
      let outcomes = List.map (fun e -> Engine.handle_event engine ~env ~ops e) events in
      let closing = Engine.advance engine ~env ~ops (final_time events) in
      (outcomes @ [ closing ], Option.get (Store.doc store "/orders"))
    in
    let indexed, doc_i = run true in
    let naive, doc_n = run false in
    if List.length indexed = List.length naive
       && List.for_all2 outcome_equal indexed naive
       && Term.equal doc_i doc_n
    then true
    else QCheck.Test.fail_reportf "dispatch divergence on %d rules, %d events"
           (List.length valid) (List.length events)

let queries_arb =
  QCheck.make
    ~print:(fun qs -> Fmt.str "%a" Fmt.(list ~sep:cut Event_query.pp) qs)
    QCheck.Gen.(list_size (int_range 1 4) Gen.event_query_gen)

let stream_arb =
  QCheck.make
    ~print:(fun evs -> Fmt.str "%a" Fmt.(list ~sep:cut Event.pp) evs)
    (Gen.event_stream_gen ~labels:[ "a"; "b"; "c" ] ~max_len:20 ~max_gap:15)

let prop_dispatch =
  QCheck.Test.make ~name:"Engine: dispatch table = full rule scan" ~count:300
    (QCheck.pair queries_arb stream_arb)
    dispatch_prop

(* ---- Engine: skipped rules stay exact under interleaved advances ----

   Random scripts interleave events and clock advances (times never go
   back, as on a node's timeline) over rule bases with absence timers,
   timer-driven event derivations, consumption and First/Last
   selection, accumulators over windowed joins, with and without an
   engine horizon, shared or not.  The dispatching engine skips rules on
   events and advances alike; every outcome, in order, and the final
   store must equal the full scan's. *)

type step = Feed of Event.t | Advance of Clock.time

type case = {
  queries : Event_query.t list;
  derivations : int;  (** how many of [derivation_rules] the program has *)
  horizon : Clock.span option;
  share : bool;
  script : step list;
}

(* [Within (Agg (And ...))]: the window prunes the join, but the
   accumulator sees the join's tuples before the window's span check.
   The second atom binds nothing, so all tuples share one group. *)
let counted (l1, l2) inner window w =
  Event_query.Within
    ( Event_query.Agg
        {
          Event_query.over =
            Event_query.And
              [
                Event_query.on ~label:l1 (Qterm.el inner [ Qterm.pos (Qterm.var "X") ]);
                Event_query.on ~label:l2 (Qterm.el inner []);
              ];
          var = "X";
          window;
          op = Construct.Count;
          bind = "N";
        },
      w )

let accumulated_gen =
  QCheck.Gen.(
    map3
      (fun labels (inner, window) w -> counted labels inner window (1 + w))
      (pair (oneofl [ "a"; "b"; "c" ]) (oneofl [ "a"; "b"; "c" ]))
      (pair (oneofl [ "item"; "price" ]) (int_range 2 3))
      (int_bound 15))

(* random terms, and small numeric records the accumulator atoms match *)
let payload_gen =
  QCheck.Gen.(
    frequency
      [
        (2, Gen.term_gen);
        (1, map2 (fun l n -> Term.elem l [ Term.int n ]) (oneofl [ "item"; "price" ]) (int_bound 3));
      ])

(* both derive label "c", which ECA rules also react to; the first fires
   on clock advances (an [a] not followed by a matching [b]) *)
let derivation_rules =
  let on l v = Event_query.on ~label:l (Qterm.var v) in
  [
    Deductive_event.rule ~name:"late" ~derives:"c"
      ~trigger:(Event_query.Absent (on "a" "P", on "b" "P", 7))
      ~payload:(Construct.cel "late" [ Construct.cvar "P" ]);
    Deductive_event.rule ~name:"pair" ~derives:"c"
      ~trigger:(Event_query.within (Event_query.seq [ on "b" "P"; on "a" "Q" ]) 10)
      ~payload:(Construct.cel "pair" [ Construct.cvar "Q" ]);
  ]

(* steps carry gaps; times are made absolute once, so both engines see
   the very same events (ids included) *)
let script_gen =
  QCheck.Gen.(
    map
      (fun steps ->
        let _, rev =
          List.fold_left
            (fun (t, acc) step ->
              match step with
              | `Feed (gap, label, payload) ->
                  let t = t + gap in
                  (t, Feed (Event.make ~occurred_at:t ~label payload) :: acc)
              | `Advance gap ->
                  let t = t + gap in
                  (t, Advance t :: acc))
            (0, []) steps
        in
        List.rev rev)
      (list_size (int_bound 25)
         (frequency
            [
              ( 3,
                map3
                  (fun gap label payload -> `Feed (gap, label, payload))
                  (int_bound 12) (oneofl [ "a"; "b"; "c" ]) payload_gen );
              (1, map (fun gap -> `Advance gap) (int_bound 40));
            ])))

let case_gen =
  QCheck.Gen.(
    map3
      (fun (queries, derivations) (horizon, share) script ->
        { queries; derivations; horizon; share; script })
      (pair
         (list_size (int_range 1 4)
            (frequency [ (4, Gen.event_query_gen); (1, accumulated_gen) ]))
         (int_bound 2))
      (pair (opt (oneofl [ 20; 60 ])) bool)
      script_gen)

let print_case c =
  Fmt.str "queries:@.%a@.derivations: %d, horizon: %a, share: %b@.script:@.%a"
    Fmt.(list ~sep:(any "@\n") Event_query.pp)
    c.queries c.derivations
    Fmt.(option ~none:(any "none") int)
    c.horizon c.share
    Fmt.(
      list ~sep:(any "@\n") (fun ppf -> function
        | Feed e -> Event.pp ppf e | Advance t -> Fmt.pf ppf "advance %d" t))
    c.script

(* per-rule policies vary by position: plain, consuming First, Last,
   consuming Each *)
let policy_rules queries =
  List.mapi
    (fun i q ->
      let name = Printf.sprintf "r%d" i in
      let selection =
        match i mod 3 with 1 -> Incremental.First | 2 -> Incremental.Last | _ -> Incremental.Each
      in
      Eca.make ~consume:(i mod 2 = 1) ~selection ~name ~on:q
        (Action.insert ~doc:"/orders" (Construct.cel "row" [ Construct.ctext name ])))
    queries

let interleave_prop c =
  let valid = List.filter (fun q -> Result.is_ok (Event_query.validate q)) c.queries in
  if valid = [] then QCheck.assume_fail ()
  else
    let run index =
      let ruleset =
        Ruleset.make ~rules:(policy_rules valid)
          ~event_rules:(List.filteri (fun i _ -> i < c.derivations) derivation_rules)
          "p"
      in
      let engine =
        Engine.create_exn ?horizon:c.horizon ~index ~share:c.share ruleset
      in
      let store, ops = harness () in
      let env = Store.env store in
      let outcomes =
        List.map
          (function
            | Feed e -> Engine.handle_event engine ~env ~ops e
            | Advance t -> Engine.advance engine ~env ~ops t)
          c.script
      in
      let last =
        List.fold_left
          (fun acc -> function Feed e -> max acc (Event.time e) | Advance t -> max acc t)
          0 c.script
      in
      let closing = Engine.advance engine ~env ~ops (last + 10_000) in
      (outcomes @ [ closing ], Option.get (Store.doc store "/orders"))
    in
    let indexed, doc_i = run true in
    let naive, doc_n = run false in
    if List.for_all2 outcome_equal indexed naive && Term.equal doc_i doc_n then true
    else
      QCheck.Test.fail_reportf "divergence between dispatch and full scan on %d rules"
        (List.length valid)

(* A case random scripts rarely hit: the non-matching [c] at 42 prunes
   [b@24] under the full scan.  Kept by a skipping dispatcher, it would
   join [b@50] into a tuple the window rejects, but only after the count
   has buffered it, shifting which three tuples the next aggregate
   spans. *)
let test_accumulator_observes_time () =
  let feed t label payload = Feed (Event.make ~occurred_at:t ~label payload) in
  let item children = Term.elem "item" children in
  let case =
    {
      queries = [ counted ("b", "b") "item" 3 16; Event_query.on ~label:"c" (Qterm.var "P") ];
      derivations = 0;
      horizon = None;
      share = true;
      script =
        [
          feed 24 "b" (item [ Term.int 1 ]);
          feed 33 "c" (item [ Term.int 2 ]);
          feed 36 "b" (item [ Term.int 3 ]);
          feed 42 "c" (Term.text "x");
          feed 50 "b" (item []);
        ];
    }
  in
  Alcotest.(check bool) "dispatch = full scan" true (interleave_prop case)

(* [Term.equal] identifies 0. with -0. and any NaN with any other, so a
   join on them fires on the indexed path as on the full scan: the
   indexed join tables partition by [Subst.hash], that is by
   [Term.digest]. *)
let test_join_on_signed_zero_and_nan () =
  let atom l = Event_query.on ~label:l (Qterm.el l [ Qterm.pos (Qterm.var "X") ]) in
  let pair =
    Eca.make ~name:"pair"
      ~on:(Event_query.within (Event_query.conj [ atom "a"; atom "b" ]) 100)
      Action.Nop
  in
  let firings ~index (x, y) =
    let engine = Engine.create_exn ~index (Ruleset.make ~rules:[ pair ] "z") in
    let store, ops = harness () in
    let env = Store.env store in
    let feed t l v =
      (Engine.handle_event engine ~env ~ops
         (Event.make ~occurred_at:t ~label:l (Term.elem l [ Term.num v ])))
        .Engine.firings
    in
    List.length (feed 1 "a" x @ feed 2 "b" y)
  in
  List.iter
    (fun ((x, y) as values) ->
      List.iter
        (fun index ->
          Alcotest.(check int)
            (Printf.sprintf "a{%h}, b{%h}, ~index:%b" x y index)
            1 (firings ~index values))
        [ false; true ])
    [ (0., -0.); (Float.nan, -.Float.nan) ]

let prop_interleave =
  QCheck.Test.make ~name:"Engine: dispatch = full scan across events and advances" ~count:500
    (QCheck.make ~print:print_case case_gen)
    interleave_prop

(* ---- Store.query: memoized answers stay coherent across updates ---- *)

(* Scripts interleave queries (drawn from a small pool so the cache gets
   hits) with every kind of document mutation the store offers,
   including the ones that bring an earlier version back (rollbacks,
   reloading the store's own snapshot, re-adding an equal document),
   whose cached answers are then served again.  After every step the
   cached answer must equal a fresh uncached evaluation of the store's
   current document, and after every mutation the digest the store
   kept for the query key (if it kept one) must equal a fresh
   [Term.digest]: root-child inserts and pattern deletes update it
   instead of dropping it. *)
let cache_case_gen =
  QCheck.Gen.(
    pair Gen.xml_term_gen
      (pair
         (array_size (return 3) Gen.qterm_gen)
         (list_size (int_bound 25) (pair (int_bound 12) Gen.term_gen))))

let cache_prop (doc0, (pool, script)) =
  let store = Store.create ~cache_capacity:8 () in
  Store.add_doc store "/d" doc0;
  let check ~seed q =
    let got = Store.query store ~doc:"/d" ~seed q in
    let want = Simulate.matches_anywhere ~seed q (Option.get (Store.doc store "/d")) in
    if subst_sets_equal got want then true
    else
      QCheck.Test.fail_reportf "query %a@.cached: %s@.fresh: %s" Qterm.pp q (pp_set got)
        (pp_set want)
  in
  let check_all () =
    Array.for_all (check ~seed:Subst.empty) pool && check ~seed:seed_x pool.(0)
  in
  let check_digest () =
    let fresh = Term.digest (Option.get (Store.doc store "/d")) in
    match Store.version_digest store "/d" with
    | Some kept when kept <> fresh ->
        QCheck.Test.fail_reportf "kept digest %d, fresh %d of %a" kept fresh Term.pp
          (Option.get (Store.doc store "/d"))
    | Some _ | None -> true
  in
  let insert term = Action.U_insert { doc = "/d"; selector = []; at = None; content = term } in
  let mutate tag term =
    match tag with
    | 4 -> ignore (Store.apply store (insert term))
    | 5 ->
        ignore
          (Store.apply store
             (Action.U_replace
                { doc = "/d"; selector = [ (Path.Descendant, Path.Tag "item") ]; content = term }))
    | 6 ->
        ignore
          (Store.apply store (Action.U_delete { doc = "/d"; selector = []; pattern = Some pool.(1) }))
    | 7 ->
        ignore
          (Store.apply store
             (Action.U_delete
                { doc = "/d"; selector = [ (Path.Descendant, Path.Any) ]; pattern = Some pool.(2) }))
    | 8 ->
        (* the second update selects nothing: the whole batch rolls back *)
        ignore
          (Store.apply_txn store
             [
               insert term;
               Action.U_insert
                 { doc = "/d"; selector = [ (Path.Child, Path.Tag "absent") ]; at = None; content = term };
             ])
    | 9 ->
        (* a version queried between backup and rollback must not
           outlive it ([check] fails the property itself) *)
        let b = Store.backup store in
        ignore (Store.apply store (insert term));
        ignore (check ~seed:Subst.empty pool.(0));
        Store.rollback store b
    | 10 -> Result.get_ok (Store.load_snapshot store (Store.snapshot store))
    | 11 ->
        let d = Option.get (Store.doc store "/d") in
        ignore (Store.remove_doc store "/d");
        Store.add_doc store "/d" (Term.strip_ids d)
    | _ -> ignore (Store.replace_at store ~doc:"/d" [ 0 ] term)
  in
  List.for_all
    (fun (tag, term) ->
      match tag with
      | 0 | 1 | 2 -> check ~seed:Subst.empty pool.(tag)
      | 3 -> check ~seed:seed_x pool.(0)
      | _ ->
          mutate tag term;
          check_digest () && check_all ())
    script

let prop_cache_coherent =
  QCheck.Test.make ~name:"Store.query: cache = fresh evaluation across updates" ~count:400
    (QCheck.make cache_case_gen)
    cache_prop

(* ---- units: LRU mechanics and observability counters ---- *)

let test_lru () =
  let module L = Lru.Make (String) in
  let l = L.create ~cap:2 in
  L.add l "a" 1;
  L.add l "b" 2;
  Alcotest.(check (option int)) "a hit" (Some 1) (L.find l "a");
  L.add l "c" 3;
  (* "b" was least recently used *)
  Alcotest.(check (option int)) "b evicted" None (L.find l "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (L.find l "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (L.find l "c");
  Alcotest.(check int) "bounded" 2 (L.length l);
  Alcotest.(check int) "capacity" 2 (L.capacity l);
  Alcotest.(check int) "evictions" 1 (L.evictions l);
  Alcotest.(check int) "hits" 3 (L.hits l);
  Alcotest.(check int) "misses" 1 (L.misses l);
  L.clear l;
  Alcotest.(check int) "cleared" 0 (L.length l)

(* A registry's cells at this instant: name -> value, 0 when absent. *)
let cells m =
  let samples = Obs.Metrics.snapshot m in
  fun name -> int_of_float (Obs.Metrics.total samples name)

let test_store_counters () =
  let s = Store.create () in
  Store.add_doc s "/d" (Term.elem "d" [ Term.elem "item" [ Term.text "x" ] ]);
  let q = Qterm.el "item" [ Qterm.pos (Qterm.var "X") ] in
  let r1 = Store.query s ~doc:"/d" q in
  let r2 = Store.query s ~doc:"/d" q in
  Alcotest.(check bool) "hit = miss answers" true (subst_sets_equal r1 r2);
  Alcotest.(check int) "one answer" 1 (List.length r1);
  let st = cells (Store.metrics s) in
  Alcotest.(check int) "one miss" 1 (st "store.query_cache_misses");
  Alcotest.(check int) "one hit" 1 (st "store.query_cache_hits");
  (* a mutation changes the version digest in the key *)
  let before = Store.snapshot s in
  ignore
    (Store.apply s
       (Action.U_insert
          { doc = "/d"; selector = []; at = None; content = Term.elem "item" [ Term.text "y" ] }));
  let r3 = Store.query s ~doc:"/d" q in
  Alcotest.(check int) "new version answers" 2 (List.length r3);
  let st = cells (Store.metrics s) in
  Alcotest.(check int) "second miss" 2 (st "store.query_cache_misses");
  (* reloading the earlier contents (as crash recovery does) brings its
     digest, and so its cached answers, back *)
  Result.get_ok (Store.load_snapshot s before);
  let r4 = Store.query s ~doc:"/d" q in
  Alcotest.(check bool) "restored version answers" true (subst_sets_equal r1 r4);
  let st = cells (Store.metrics s) in
  Alcotest.(check int) "no third miss" 2 (st "store.query_cache_misses");
  Alcotest.(check int) "restored version hits" 2 (st "store.query_cache_hits")

let counter engine = cells (Engine.metrics engine)

(* Both dispatch paths in every environment: the sub-index reaches one
   rule and advances none of the timerless rules, the full scan feeds
   and advances all three. *)
let test_engine_counters () =
  let rule l =
    Eca.make ~name:("r-" ^ l) ~on:(Event_query.on ~label:l (Qterm.var "P")) Action.Nop
  in
  let check ~index ~atoms ~fed ~skipped ~advanced =
    let engine =
      Engine.create_exn ~index (Ruleset.make ~rules:[ rule "a"; rule "b"; rule "c" ] "s")
    in
    let store, ops = harness () in
    let env = Store.env store in
    let outcome =
      Engine.handle_event engine ~env ~ops (Event.make ~occurred_at:1 ~label:"a" (Term.text "x"))
    in
    ignore (Engine.advance engine ~env ~ops 10);
    let name s = Printf.sprintf "~index:%b: %s" index s in
    Alcotest.(check int) (name "only r-a fires") 1 (List.length outcome.Engine.firings);
    Alcotest.(check int) (name "one lookup") 1 (counter engine "engine.dispatch_lookups");
    Alcotest.(check int) (name "atoms indexed") atoms (counter engine "subindex.entries");
    Alcotest.(check int) (name "rules fed") fed (counter engine "engine.rules_fed");
    Alcotest.(check int) (name "rules skipped") skipped (counter engine "engine.rules_skipped");
    Alcotest.(check int) (name "rules advanced") advanced (counter engine "engine.rules_advanced")
  in
  check ~index:true ~atoms:3 ~fed:1 ~skipped:2 ~advanced:0;
  check ~index:false ~atoms:0 ~fed:3 ~skipped:0 ~advanced:3;
  (* an advance on which a derivation rule's absence trigger derives a
     [c] event that r-c matches: the derivation rule counts its feed and
     its advance, the ECA rules count no feed or skip on an advance *)
  let timeout =
    Deductive_event.rule ~name:"timeout" ~derives:"c"
      ~trigger:
        (Event_query.absent
           (Event_query.on ~label:"a" (Qterm.var "P"))
           ~then_absent:(Event_query.on ~label:"z" (Qterm.var "P"))
           ~for_:5)
      ~payload:(Construct.cel "late" [ Construct.cvar "P" ])
  in
  let check_advance ~index ~fed ~skipped ~advanced =
    let engine =
      Engine.create_exn ~index
        (Ruleset.make ~rules:[ rule "a"; rule "b"; rule "c" ] ~event_rules:[ timeout ] "s")
    in
    let store, ops = harness () in
    let env = Store.env store in
    ignore
      (Engine.handle_event engine ~env ~ops (Event.make ~occurred_at:1 ~label:"a" (Term.text "x")));
    let fired = Engine.advance engine ~env ~ops 10 in
    let name s = Printf.sprintf "~index:%b, derived on advance: %s" index s in
    Alcotest.(check (list string)) (name "r-c fires on the derived event") [ "r-c" ]
      (List.map (fun (f : Eca.firing) -> f.Eca.rule) fired.Engine.firings);
    Alcotest.(check int) (name "one lookup") 1 (counter engine "engine.dispatch_lookups");
    Alcotest.(check int) (name "rules fed") fed (counter engine "engine.rules_fed");
    Alcotest.(check int) (name "rules skipped") skipped (counter engine "engine.rules_skipped");
    Alcotest.(check int) (name "rules advanced") advanced (counter engine "engine.rules_advanced")
  in
  check_advance ~index:true ~fed:2 ~skipped:2 ~advanced:1;
  check_advance ~index:false ~fed:4 ~skipped:0 ~advanced:4

(* A batch looks each of its events up in the sub-index once, and the
   derivation rules and the ECA rules share the keys. *)
let test_one_lookup_per_event () =
  let on l v = Event_query.on ~label:l (Qterm.el l [ Qterm.pos (Qterm.var v) ]) in
  let rule = Eca.make ~name:"r-b" ~on:(on "b" "Y") Action.Nop in
  let derivation =
    Deductive_event.rule ~name:"a-to-b" ~derives:"b" ~trigger:(on "a" "X")
      ~payload:(Construct.cel "b" [ Construct.cvar "X" ])
  in
  let engine =
    Engine.create_exn ~index:true (Ruleset.make ~rules:[ rule ] ~event_rules:[ derivation ] "s")
  in
  let store, ops = harness () in
  let env = Store.env store in
  let ev l = Event.make ~occurred_at:1 ~label:l (Term.elem l [ Term.text "x" ]) in
  let out = Engine.handle_event engine ~env ~ops (ev "c") in
  Alcotest.(check int) "nothing reacts to c" 0 (List.length out.Engine.firings);
  Alcotest.(check int) "one lookup for a batch of one event" 1 (counter engine "subindex.lookups");
  let out = Engine.handle_event engine ~env ~ops (ev "a") in
  Alcotest.(check int) "r-b fires on the derived b" 1 (List.length out.Engine.firings);
  Alcotest.(check int) "one lookup per event of the batch a, b" 3
    (counter engine "subindex.lookups");
  Alcotest.(check int) "two batches routed" 2 (counter engine "engine.dispatch_lookups")

(* Engine work per advance follows the rules that observe time, not the
   rule count.  [~index:true] pins the fast path: the full scan advances
   every rule. *)
let test_advance_scales_with_clocked_rules () =
  let rules =
    List.init 10_000 (fun i ->
        Eca.make ~name:(Printf.sprintf "r%d" i)
          ~on:(Event_query.on ~label:(Printf.sprintf "l%d" (i mod 16)) (Qterm.var "P"))
          Action.Nop)
  in
  let engine = Engine.create_exn ~index:true (Ruleset.make ~rules "big") in
  let store, ops = harness () in
  let env = Store.env store in
  ignore (Engine.advance engine ~env ~ops 100);
  Alcotest.(check int) "timerless rules not advanced" 0 (counter engine "engine.rules_advanced");
  Alcotest.(check (option int)) "no deadline" None (Engine.next_deadline engine);
  let late =
    Eca.make ~name:"late"
      ~on:
        (Event_query.absent
           (Event_query.on ~label:"l0" (Qterm.var "P"))
           ~then_absent:(Event_query.on ~label:"l1" (Qterm.var "P"))
           ~for_:50)
      Action.Nop
  in
  let engine =
    Result.get_ok (Engine.load_ruleset engine (Ruleset.make ~rules:[ late ] "extra"))
  in
  ignore
    (Engine.handle_event engine ~env ~ops (Event.make ~occurred_at:110 ~label:"l0" (Term.text "x")));
  Alcotest.(check (option int)) "armed deadline" (Some 160) (Engine.next_deadline engine);
  let fired = Engine.advance engine ~env ~ops 200 in
  Alcotest.(check int) "only the absence rule advanced" 1 (counter engine "engine.rules_advanced");
  Alcotest.(check int) "absence fired" 1 (List.length fired.Engine.firings)

(* A rule set loaded at run time is compiled with the engine's horizon,
   exactly as if the engine had been created on the merged rule set:
   [a] at 0 has expired by the advance to 300, so [b] at 500 finds no
   partner. *)
let test_load_ruleset_keeps_horizon () =
  let atom l = Event_query.on ~label:l (Qterm.el l [ Qterm.pos (Qterm.var "K") ]) in
  let ab = Eca.make ~name:"ab" ~on:(Event_query.conj [ atom "a"; atom "b" ]) Action.Nop in
  let extra = Ruleset.make ~rules:[ ab ] "extra" in
  let run engine =
    let store, ops = harness () in
    let env = Store.env store in
    let ev t l = Event.make ~occurred_at:t ~label:l (Term.elem l [ Term.text "k" ]) in
    let a = Engine.handle_event engine ~env ~ops (ev 0 "a") in
    let tick = Engine.advance engine ~env ~ops 300 in
    let b = Engine.handle_event engine ~env ~ops (ev 500 "b") in
    let fired = List.concat_map (fun (o : Engine.outcome) -> o.Engine.firings) [ a; tick; b ] in
    let cell = counter engine in
    (List.length fired, cell "engine.live_instances", cell "engine.rules_advanced")
  in
  let merged = run (Engine.create_exn ~horizon:100 (Ruleset.make ~children:[ extra ] "base")) in
  let loaded =
    run
      (Result.get_ok
         (Engine.load_ruleset (Engine.create_exn ~horizon:100 (Ruleset.make "base")) extra))
  in
  let fired, _, _ = merged in
  Alcotest.(check int) "the horizon drops the stale partner" 0 fired;
  Alcotest.(check (triple int int int)) "loaded = created on the merged rule set" merged loaded

let suite =
  ( "perf-index",
    [
      QCheck_alcotest.to_alcotest prop_dedup;
      QCheck_alcotest.to_alcotest ~long:true prop_dispatch;
      QCheck_alcotest.to_alcotest prop_interleave;
      Alcotest.test_case "accumulated windowed join observes time" `Quick
        test_accumulator_observes_time;
      QCheck_alcotest.to_alcotest prop_cache_coherent;
      Alcotest.test_case "LRU bounds and counters" `Quick test_lru;
      Alcotest.test_case "store query-cache counters" `Quick test_store_counters;
      Alcotest.test_case "engine dispatch counters" `Quick test_engine_counters;
      Alcotest.test_case "one sub-index lookup per batch event" `Quick test_one_lookup_per_event;
      Alcotest.test_case "advance touches only clocked rules" `Quick
        test_advance_scales_with_clocked_rules;
      Alcotest.test_case "load_ruleset keeps the engine horizon" `Quick
        test_load_ruleset_keeps_horizon;
      Alcotest.test_case "joins on signed zeros and NaNs fire when indexed" `Quick
        test_join_on_signed_zero_and_nan;
    ] )
