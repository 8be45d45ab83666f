(* The subscription index must be a pure acceleration (HACKING.md
   "Subscription index"): candidate selection through the buckets plus
   plan confirmation has to produce exactly the answers of a linear
   scan over every registration — under churn, under labels, and when
   wired into [Pubsub.Registry].  [Engine] dispatch through the index
   is pinned against the full scan in [test_perf_index.ml]. *)

open Xchange

let subst_sets_equal a b = List.equal Subst.equal a b

(* ---- Sub_index.matching = linear Plan.matches scan, with churn ---- *)

let probe_labels = [ "a"; "b" ]

let entry_gen = QCheck.Gen.(pair (option (oneofl probe_labels)) Gen.qterm_gen)

let probe_gen = QCheck.Gen.(pair (option (oneofl probe_labels)) Gen.term_gen)

let case_print ((entries, probes) : _ * _) =
  Fmt.str "%d entries / %d probes:@.%a@.probes: %a"
    (List.length entries) (List.length probes)
    Fmt.(list ~sep:cut (pair (option string) Qterm.pp))
    entries
    Fmt.(list ~sep:cut (pair (option string) (of_to_string Term.to_string)))
    probes

let case_arb =
  QCheck.make ~print:case_print
    QCheck.Gen.(
      pair
        (list_size (int_range 1 8) entry_gen)
        (list_size (int_range 1 6) probe_gen))

(* every registration the label admits, confirmed by its own plan *)
let oracle entries lookup_label term =
  List.filter_map
    (fun (id, elabel, q) ->
      let label_ok =
        match (elabel, lookup_label) with
        | None, _ -> true
        | Some l, Some l' -> String.equal l l'
        | Some _, None -> false
      in
      if not label_ok then None
      else
        match Plan.matches (Simulate.plan_of q) term with
        | [] -> None
        | answers -> Some (id, answers))
    entries

let matching_agrees idx entries (lookup_label, term) =
  let got =
    Sub_index.matching idx ?label:lookup_label term
    |> List.map (fun (id, _, answers) -> (id, answers))
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let want = oracle entries lookup_label term in
  List.length got = List.length want
  && List.for_all2
       (fun (gi, ga) (wi, wa) -> gi = wi && subst_sets_equal ga wa)
       got want

let churn_prop (entries, probes) =
  let idx = Sub_index.create () in
  let registered =
    List.map (fun (l, q) -> (Sub_index.register idx ?label:l q q, l, q)) entries
  in
  let check live =
    List.for_all (matching_agrees idx live) probes
    || QCheck.Test.fail_reportf "index/oracle divergence over %d live entries"
         (List.length live)
  in
  (* full set, then remove every other entry, then register them again
     (fresh ids): lookups must track the live set exactly *)
  check registered
  &&
  let removed, kept =
    List.partition (fun (id, _, _) -> id mod 2 = 0) registered
  in
  List.iter (fun (id, _, _) -> assert (Sub_index.remove idx id)) removed;
  check kept
  &&
  let re =
    List.map (fun (_, l, q) -> (Sub_index.register idx ?label:l q q, l, q)) removed
  in
  check (kept @ re)

let prop_churn =
  QCheck.Test.make ~name:"Sub_index.matching = linear plan scan (churn)" ~count:500
    case_arb churn_prop

let seed_x = Option.get (Subst.of_list [ ("X", Term.text "x") ])

let prop_seeded =
  QCheck.Test.make ~name:"Sub_index.matching: seeded = seeded linear scan" ~count:300
    case_arb
    (fun (entries, probes) ->
      let idx = Sub_index.create () in
      let registered =
        List.map (fun (l, q) -> (Sub_index.register idx ?label:l q q, l, q)) entries
      in
      List.for_all
        (fun (lookup_label, term) ->
          let got =
            Sub_index.matching idx ?label:lookup_label ~seed:seed_x term
            |> List.map (fun (id, _, answers) -> (id, answers))
            |> List.sort (fun (a, _) (b, _) -> compare a b)
          in
          let want =
            List.filter_map
              (fun (id, elabel, q) ->
                let label_ok =
                  match (elabel, lookup_label) with
                  | None, _ -> true
                  | Some l, Some l' -> String.equal l l'
                  | Some _, None -> false
                in
                if not label_ok then None
                else
                  match Plan.matches ~seed:seed_x (Simulate.plan_of q) term with
                  | [] -> None
                  | answers -> Some (id, answers))
              registered
          in
          List.length got = List.length want
          && List.for_all2
               (fun (gi, ga) (wi, wa) -> gi = wi && subst_sets_equal ga wa)
               got want)
        probes)

(* ---- Pubsub: attached registry = plain document path, rule-driven ---- *)

let topics = [ "sport"; "news"; "w" ]
let hosts = [ "h1"; "h2"; "h3"; "h4" ]

type step =
  | Ev of (int -> Event.t)  (* subscribe / unsubscribe / publish at time t *)
  | Mut of Action.update  (* direct register mutation, possibly exotic *)

let ev label payload t = Event.make ~occurred_at:t ~label payload

let pair_entry t h =
  Term.elem "sub" [ Term.elem "topic" [ Term.text t ]; Term.elem "host" [ Term.text h ] ]

let root_insert content =
  Action.U_insert { doc = Pubsub.subscribers_doc; selector = []; at = None; content }

(* mutations the incremental mirror cannot interpret: it must degrade
   (dirty resync or exotic fallback) without changing any answer *)
let exotic_mutations =
  [
    (* non-text topic: the register is no longer a plain pair list *)
    root_insert
      (Term.elem "sub"
         [
           Term.elem "topic" [ Term.elem "nested" [] ];
           Term.elem "host" [ Term.text "h9" ];
         ]);
    (* inert junk between the entries *)
    root_insert (Term.text "junk");
    (* insert below the root: could extend an existing entry *)
    Action.U_insert
      {
        doc = Pubsub.subscribers_doc;
        selector = [ (Path.Child, Path.Tag "sub") ];
        at = None;
        content = Term.elem "note" [ Term.text "x" ];
      };
    (* ungrounded delete pattern *)
    Action.U_delete
      {
        doc = Pubsub.subscribers_doc;
        selector = [];
        pattern = Some (Qterm.el "sub" [ Qterm.pos (Qterm.var "Z") ]);
      };
  ]

let step_gen =
  QCheck.Gen.(
    let th = pair (oneofl topics) (oneofl hosts) in
    frequency
      [
        (5, map (fun (t, h) -> Ev (ev "subscribe" (Pubsub.subscribe ~topic:t ~host:h))) th);
        ( 3,
          map (fun (t, h) -> Ev (ev "unsubscribe" (Pubsub.unsubscribe ~topic:t ~host:h))) th
        );
        ( 4,
          map
            (fun t -> Ev (ev "publish" (Pubsub.publish ~topic:t (Term.text "b"))))
            (oneofl topics) );
        (1, map (fun (t, h) -> Mut (root_insert (pair_entry t h))) th);
        (1, oneofl (List.map (fun m -> Mut m) exotic_mutations));
      ])

let step_print = function
  | Ev mk -> Fmt.str "%a" Event.pp (mk 0)
  | Mut u -> Fmt.str "mut %s" (match u with Action.U_insert _ -> "insert" | _ -> "delete")

let steps_arb =
  QCheck.make
    ~print:(fun steps -> String.concat "; " (List.map step_print steps))
    QCheck.Gen.(list_size (int_range 1 25) step_gen)

let register_store () =
  let store = Store.create () in
  Store.add_doc store Pubsub.subscribers_doc (Pubsub.empty_register ());
  store

let run_pubsub ~attach steps =
  let store = register_store () in
  if attach then ignore (Pubsub.Registry.attach store);
  let sends = ref [] in
  let ops =
    {
      Action.update = (fun u -> Result.map fst (Store.apply store u));
      txn_update = (fun u -> Result.map fst (Store.apply store u));
      send =
        (fun ~recipient ~label ~ttl:_ ~delay:_ p -> sends := (recipient, label, p) :: !sends);
      log = (fun _ -> ());
      now = (fun () -> 0);
      checkpoint = (fun () -> fun () -> ());
    }
  in
  let engine = Engine.create_exn (Pubsub.publisher_ruleset ()) in
  let env = Store.env store in
  List.iteri
    (fun i step ->
      match step with
      | Ev mk -> ignore (Engine.handle_event engine ~env ~ops (mk (i + 1)))
      | Mut u -> ignore (Store.apply store u))
    steps;
  (List.rev !sends, store)

let send_equal (r1, l1, p1) (r2, l2, p2) =
  String.equal r1 r2 && String.equal l1 l2 && Term.equal p1 p2

let pubsub_prop steps =
  let sends_a, store_a = run_pubsub ~attach:true steps in
  let sends_p, store_p = run_pubsub ~attach:false steps in
  let doc s = Option.get (Store.doc s Pubsub.subscribers_doc) in
  (* identical notifications in identical order (the ECA engine fires
     once per answer, in answer order), identical final registers *)
  (List.equal send_equal sends_a sends_p
  || QCheck.Test.fail_reportf "notify divergence: %d indexed sends vs %d plain"
       (List.length sends_a) (List.length sends_p))
  && (Term.equal (doc store_a) (doc store_p)
     || QCheck.Test.fail_reportf "register divergence after %d steps" (List.length steps))
  && List.for_all
       (fun t ->
         List.equal String.equal
           (Pubsub.subscribers store_a ~topic:t)
           (Pubsub.subscribers store_p ~topic:t)
         || QCheck.Test.fail_reportf "subscriber divergence on topic %s" t)
       topics

let prop_pubsub =
  QCheck.Test.make ~name:"Pubsub: attached registry = document path (rule churn)"
    ~count:150 steps_arb pubsub_prop

(* ---- units ---- *)

let hosts_t = Alcotest.(list string)

(* unanchored registrations land in the wildcard buckets and are
   candidates for every lookup; anchored ones only where they can match *)
let test_wildcard_routing () =
  let idx = Sub_index.create () in
  let anchored = Qterm.el "order" [ Qterm.pos (Qterm.var "X") ] in
  let wild = Qterm.var "P" in
  let desc = Qterm.Desc (Qterm.el "item" []) in
  let id_a = Sub_index.register idx anchored "anchored" in
  let id_w = Sub_index.register idx wild "wild" in
  let id_d = Sub_index.register idx desc "desc" in
  let ids term = List.map fst (Sub_index.lookup idx term) in
  (* the descendant query still requires an [item] somewhere: the
     fingerprint refutes it even from the wildcard bucket *)
  Alcotest.(check (list int))
    "order element: anchored + wildcard" [ id_a; id_w ]
    (ids (Term.elem "order" [ Term.text "x" ]));
  Alcotest.(check (list int))
    "crate with item: wildcard + desc" [ id_w; id_d ]
    (ids (Term.elem "crate" [ Term.elem "item" [] ]));
  Alcotest.(check (list int)) "scalar: wildcard only" [ id_w ] (ids (Term.text "s"));
  (* a labelled registration is only a candidate under its own label *)
  let id_l = Sub_index.register idx ~label:"alpha" wild "labelled" in
  Alcotest.(check (list int))
    "same label sees it" [ id_w; id_l ]
    (List.map fst (Sub_index.lookup idx ~label:"alpha" (Term.text "s")));
  Alcotest.(check (list int))
    "other label does not" [ id_w ]
    (List.map fst (Sub_index.lookup idx ~label:"beta" (Term.text "s")))

(* entries sharing a bucket are refuted by the label fingerprint before
   any matcher runs; entries behind a different pivot are never visited *)
let test_fingerprint_refutation () =
  let idx = Sub_index.create () in
  let q_ab = Qterm.el "rec" [ Qterm.pos (Qterm.el "a" []); Qterm.pos (Qterm.el "b" []) ] in
  let q_ac = Qterm.el "rec" [ Qterm.pos (Qterm.el "a" []); Qterm.pos (Qterm.el "c" []) ] in
  let id_ab = Sub_index.register idx q_ab "ab" in
  let _id_ac = Sub_index.register idx q_ac "ac" in
  let term = Term.elem "rec" [ Term.elem "a" []; Term.elem "b" [] ] in
  Alcotest.(check (list int)) "only rec[a,b] survives" [ id_ab ]
    (List.map fst (Sub_index.lookup idx term));
  let s = Sub_index.stats idx in
  Alcotest.(check int) "one lookup" 1 s.Sub_index.lookups;
  Alcotest.(check int) "one candidate" 1 s.Sub_index.candidates;
  Alcotest.(check int) "rec[a,c] refuted in-bucket" 1 s.Sub_index.refuted;
  (* distinct pivot texts discriminate without visiting at all *)
  let idx2 = Sub_index.create () in
  let q_x = Qterm.el "rec" [ Qterm.pos (Qterm.el "k" [ Qterm.pos (Qterm.txt "x") ]) ] in
  let q_y = Qterm.el "rec" [ Qterm.pos (Qterm.el "k" [ Qterm.pos (Qterm.txt "y") ]) ] in
  let id_x = Sub_index.register idx2 q_x "x" in
  let _id_y = Sub_index.register idx2 q_y "y" in
  let term_x = Term.elem "rec" [ Term.elem "k" [ Term.text "x" ] ] in
  Alcotest.(check (list int)) "pivot x bucket only" [ id_x ]
    (List.map fst (Sub_index.lookup idx2 term_x));
  let s2 = Sub_index.stats idx2 in
  Alcotest.(check int) "y entry never visited" 0 s2.Sub_index.refuted;
  Alcotest.(check int) "exactly the x candidate" 1 s2.Sub_index.candidates

(* removal drops the bucket it empties — no tombstones *)
let test_remove_sheds_buckets () =
  let idx = Sub_index.create () in
  let empty_buckets = Sub_index.buckets idx in
  let q = Qterm.el "rec" [ Qterm.pos (Qterm.el "k" [ Qterm.pos (Qterm.txt "x") ]) ] in
  let id = Sub_index.register idx q "payload" in
  Alcotest.(check bool) "bucket added" true (Sub_index.buckets idx > empty_buckets);
  Alcotest.(check int) "one entry" 1 (Sub_index.size idx);
  Alcotest.(check bool) "remove" true (Sub_index.remove idx id);
  Alcotest.(check int) "empty" 0 (Sub_index.size idx);
  Alcotest.(check int) "bucket shed" empty_buckets (Sub_index.buckets idx);
  Alcotest.(check (list int)) "no candidates" []
    (List.map fst (Sub_index.lookup idx (Term.elem "rec" [ Term.elem "k" [ Term.text "x" ] ])));
  Alcotest.(check bool) "idempotent remove" false (Sub_index.remove idx id)

let cells m =
  let samples = Obs.Metrics.snapshot m in
  fun name -> int_of_float (Obs.Metrics.total samples name)

(* A query's analysis lives as long as its registrations: a publisher
   whose topics churn must not accumulate them. *)
let test_shapes_bounded () =
  let idx = Sub_index.create () in
  let shapes () = cells (Sub_index.metrics idx) "subindex.shapes" in
  let topic i = Printf.sprintf "t%d" i in
  let q i = Qterm.el "publish" [ Qterm.pos (Qterm.el "topic" [ Qterm.pos (Qterm.txt (topic i)) ]) ] in
  let ids = List.init 200 (fun i -> Sub_index.register idx (q i) i) in
  let twin = Sub_index.register idx (q 7) 7 in
  Alcotest.(check int) "one shape per distinct query" 200 (shapes ());
  Alcotest.(check (list int)) "matching compiles and confirms" [ 7; 7 ]
    (List.map (fun (_, p, _) -> p)
       (Sub_index.matching idx (Pubsub.publish ~topic:(topic 7) (Term.text "b"))));
  List.iter (fun id -> assert (Sub_index.remove idx id)) ids;
  Alcotest.(check int) "a shared shape outlives one removal" 1 (shapes ());
  assert (Sub_index.remove idx twin);
  Alcotest.(check int) "every shape dropped" 0 (shapes ())

(* An engine only calls [lookup], so its sub-index compiles no plans:
   the only plans are the shared alpha network's, one per distinct
   canonical atom.  The rules are shaped like the e2e [rules_dense]
   workload: And or Seq of two atoms over 16 shared subtrees, each rule
   with its own variable names. *)
let test_engine_compiles_no_plans () =
  let rules =
    List.init 200 (fun i ->
        let s = i mod 16 in
        let atom l v = Event_query.on ~label:l (Qterm.el "rec" [ Qterm.pos (Qterm.var v) ]) in
        let parts =
          [
            atom (Printf.sprintf "a%d" (s mod 8)) (Printf.sprintf "L%d" i);
            atom (Printf.sprintf "b%d" (s mod 8)) (Printf.sprintf "R%d" i);
          ]
        in
        let q = if s < 8 then Event_query.conj parts else Event_query.seq parts in
        Eca.make ~name:(Printf.sprintf "r%d" i) ~on:(Event_query.within q 8) Action.Nop)
  in
  let compiled () = cells Simulate.metrics "query.plans_compiled" in
  let before = compiled () in
  let engine =
    Engine.create_exn ~horizon:50 ~index:true ~share:true (Ruleset.make ~rules "dense")
  in
  let canonical_atoms = cells (Engine.metrics engine) "alpha.nodes" in
  Alcotest.(check int) "16 canonical atoms" 16 canonical_atoms;
  Alcotest.(check bool)
    (Printf.sprintf "%d plans compiled for %d canonical atoms" (compiled () - before)
       canonical_atoms)
    true
    (compiled () - before <= canonical_atoms)

let pair_delete t h =
  Action.U_delete
    {
      doc = Pubsub.subscribers_doc;
      selector = [];
      pattern =
        Some
          (Qterm.el "sub"
             [
               Qterm.pos (Qterm.el "topic" [ Qterm.pos (Qterm.txt t) ]);
               Qterm.pos (Qterm.el "host" [ Qterm.pos (Qterm.txt h) ]);
             ]);
    }

(* the mirror follows the register's change feed: a duplicate entry
   keeps one pair, a grounded delete removes it *)
let test_registry_unsubscribe () =
  let store = register_store () in
  let reg = Pubsub.Registry.attach store in
  let apply u = ignore (Store.apply store u) in
  Alcotest.(check int) "empty mirror" 0 (Pubsub.Registry.size reg);
  apply (root_insert (pair_entry "sport" "h1"));
  apply (root_insert (pair_entry "sport" "h1"));
  apply (root_insert (pair_entry "news" "h2"));
  Alcotest.check hosts_t "sport" [ "h1" ] (Pubsub.subscribers store ~topic:"sport");
  Alcotest.(check int) "two pairs" 2 (Pubsub.Registry.size reg);
  apply (pair_delete "sport" "h1");
  Alcotest.check hosts_t "unsubscribed" [] (Pubsub.subscribers store ~topic:"sport");
  Alcotest.(check int) "one pair left" 1 (Pubsub.Registry.size reg);
  apply (pair_delete "sport" "h1");
  Alcotest.(check int) "unknown pair" 1 (Pubsub.Registry.size reg);
  let s = Pubsub.Registry.stats reg in
  Alcotest.(check int) "registrations counted" 2 s.Sub_index.registrations;
  Alcotest.(check int) "removal counted" 1 s.Sub_index.removals

(* an attached registry degrades on exotic registers and recovers when
   the document is clean again — answers never change; the oracle is an
   unattached store given the same changes *)
let test_attach_exotic_recovery () =
  let store = register_store () and plain = register_store () in
  let reg = Pubsub.Registry.attach store in
  let apply u = List.iter (fun s -> ignore (Store.apply s u)) [ store; plain ] in
  let agree name topic =
    Alcotest.check hosts_t name
      (Pubsub.subscribers plain ~topic)
      (Pubsub.subscribers store ~topic)
  in
  apply (root_insert (pair_entry "sport" "h1"));
  Alcotest.check hosts_t "mirrored insert" [ "h1" ] (Pubsub.subscribers store ~topic:"sport");
  Alcotest.(check int) "mirror holds it" 1 (Pubsub.Registry.size reg);
  Alcotest.(check bool) "synced" true (Pubsub.Registry.synced reg);
  apply
    (root_insert
       (Term.elem "sub"
          [ Term.elem "topic" [ Term.elem "nested" [] ]; Term.elem "host" [ Term.text "h9" ] ]));
  agree "degraded but equal" "sport";
  Alcotest.(check bool) "exotic" true (Pubsub.Registry.exotic reg);
  (* replacing the document with a clean register recovers the mirror *)
  List.iter
    (fun s ->
      Store.add_doc s Pubsub.subscribers_doc
        (Term.elem ~ord:Term.Unordered "subscribers" [ pair_entry "news" "h2" ]))
    [ store; plain ];
  Alcotest.check hosts_t "recovered" [ "h2" ] (Pubsub.subscribers store ~topic:"news");
  agree "recovered and equal" "news";
  Alcotest.(check bool) "clean again" false (Pubsub.Registry.exotic reg);
  Alcotest.(check int) "one mirrored pair" 1 (Pubsub.Registry.size reg)

let suite =
  ( "subindex",
    [
      QCheck_alcotest.to_alcotest ~long:true prop_churn;
      QCheck_alcotest.to_alcotest prop_seeded;
      QCheck_alcotest.to_alcotest prop_pubsub;
      Alcotest.test_case "wildcard-bucket routing" `Quick test_wildcard_routing;
      Alcotest.test_case "fingerprint refutation counters" `Quick test_fingerprint_refutation;
      Alcotest.test_case "remove sheds empty buckets" `Quick test_remove_sheds_buckets;
      Alcotest.test_case "shapes bounded by live queries" `Quick test_shapes_bounded;
      Alcotest.test_case "engine sub-index compiles no plans" `Quick
        test_engine_compiles_no_plans;
      Alcotest.test_case "registry unsubscribe" `Quick test_registry_unsubscribe;
      Alcotest.test_case "attached registry: exotic and recovery" `Quick
        test_attach_exotic_recovery;
    ] )
