open Xchange

(* helpers used across the scenario tests *)
let ev t label payload = Event.make ~occurred_at:t ~label payload
let el = Term.elem
let txt = Term.text

let feed_all engine events ~until =
  let detections = List.concat_map (fun e -> Incremental.feed engine e) events in
  detections @ Incremental.advance_to engine until

let q_cancellation =
  Event_query.on ~label:"cancellation"
    (Qterm.el "cancellation" [ Qterm.pos (Qterm.el "passenger" [ Qterm.pos (Qterm.var "P") ]) ])

let q_rebooking =
  Event_query.on ~label:"rebooking"
    (Qterm.el "rebooking" [ Qterm.pos (Qterm.el "passenger" [ Qterm.pos (Qterm.var "P") ]) ])

let cancellation t p = ev t "cancellation" (el "cancellation" [ el "passenger" [ txt p ] ])
let rebooking t p = ev t "rebooking" (el "rebooking" [ el "passenger" [ txt p ] ])

(* ---- validation and analysis ---- *)

let test_validate () =
  let ok q = match Event_query.validate q with Ok () -> () | Error e -> Alcotest.fail e in
  let bad q = match Event_query.validate q with Error _ -> () | Ok () -> Alcotest.fail "accepted" in
  ok (Event_query.within (Event_query.conj [ q_cancellation; q_rebooking ]) 100);
  bad (Event_query.conj []);
  bad (Event_query.Times (0, q_cancellation, 100));
  bad (Event_query.Times (2, q_cancellation, 0));
  bad
    (Event_query.Agg
       { Event_query.over = q_cancellation; var = "NOPE"; window = 3; op = Construct.Avg; bind = "A" });
  bad
    (Event_query.Agg
       { Event_query.over = q_cancellation; var = "P"; window = 3; op = Construct.Avg; bind = "P" })

let test_vars () =
  let q =
    Event_query.Agg
      { Event_query.over = q_cancellation; var = "P"; window = 2; op = Construct.Avg; bind = "A" }
  in
  Alcotest.(check (list string)) "agg adds binder" [ "A"; "P" ] (Event_query.vars q)

let test_max_window () =
  Alcotest.(check (option int)) "atomic" (Some 0) (Event_query.max_window q_cancellation);
  Alcotest.(check (option int)) "bare and unbounded" None
    (Event_query.max_window (Event_query.conj [ q_cancellation; q_rebooking ]));
  Alcotest.(check (option int)) "within bounds" (Some 500)
    (Event_query.max_window
       (Event_query.within (Event_query.conj [ q_cancellation; q_rebooking ]) 500))

(* ---- the paper's flight scenario (Thesis 5) ---- *)

let test_flight_absence () =
  let two_hours = Clock.hours 2 in
  let q = Event_query.absent q_cancellation ~then_absent:q_rebooking ~for_:two_hours in
  let engine = Incremental.create_exn q in
  let events =
    [
      cancellation 0 "franz";
      rebooking (Clock.minutes 30) "franz";
      (* franz is rebooked: no alarm *)
      cancellation (Clock.hours 3) "mary";
      (* mary never rebooked: alarm at +5h *)
      cancellation (Clock.hours 4) "paul";
      rebooking (Clock.hours 10) "paul";
      (* too late for paul: alarm at +6h *)
    ]
  in
  let detections = feed_all engine events ~until:(Clock.hours 12) in
  let passengers =
    List.filter_map (fun (i : Instance.t) -> Option.bind (Subst.find "P" i.Instance.subst) Term.as_text) detections
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "mary and paul alarmed" [ "mary"; "paul" ] passengers;
  (* detection time is the deadline, not the final advance *)
  match List.find_opt (fun (i : Instance.t) -> Subst.find "P" i.Instance.subst = Some (txt "mary")) detections with
  | Some i -> Alcotest.(check int) "deadline timing" (Clock.hours 5) i.Instance.t_end
  | None -> Alcotest.fail "mary detection missing"

let test_absence_join_on_shared_vars () =
  (* a rebooking of ANOTHER passenger must not cancel the absence *)
  let q = Event_query.absent q_cancellation ~then_absent:q_rebooking ~for_:100 in
  let engine = Incremental.create_exn q in
  let detections =
    feed_all engine [ cancellation 0 "franz"; rebooking 50 "other" ] ~until:1000
  in
  Alcotest.(check int) "franz still alarmed" 1 (List.length detections)

(* ---- the paper's SLA scenario: 3 outages within 1 hour ---- *)

let outage t server = ev t "outage" (el "outage" [ el "server" [ txt server ] ])

let q_outages n =
  Event_query.times n
    (Event_query.on ~label:"outage" (Qterm.el "outage" [ Qterm.pos (Qterm.el "server" [ Qterm.pos (Qterm.var "S") ]) ]))
    (Clock.hours 1)

let test_sla_times () =
  let engine = Incremental.create_exn (q_outages 3) in
  let m = Clock.minutes in
  let events =
    [ outage (m 0) "web1"; outage (m 10) "web2"; outage (m 20) "web1"; outage (m 30) "web1" ]
  in
  let detections = feed_all engine events ~until:(Clock.hours 2) in
  (* only web1 reaches 3 outages, exactly one 3-subset *)
  Alcotest.(check int) "one detection" 1 (List.length detections);
  let s = Option.bind (Subst.find "S" (List.hd detections).Instance.subst) Term.as_text in
  Alcotest.(check (option string)) "server joined" (Some "web1") s

let test_times_window_excludes_old () =
  let engine = Incremental.create_exn (q_outages 3) in
  let events =
    [ outage 0 "w"; outage (Clock.minutes 10) "w"; outage (Clock.hours 2) "w" ]
  in
  let detections = feed_all engine events ~until:(Clock.hours 3) in
  Alcotest.(check int) "spread outages do not trigger" 0 (List.length detections)

(* ---- the paper's stock scenario: avg of last 5 rises by 5% ---- *)

let price t stock value =
  ev t "price" (el "price" [ el "stock" [ txt stock ]; el "value" [ Term.num value ] ])

let q_price =
  Event_query.on ~label:"price"
    (Qterm.el "price"
       [
         Qterm.pos (Qterm.el "stock" [ Qterm.pos (Qterm.var "S") ]);
         Qterm.pos (Qterm.el "value" [ Qterm.pos (Qterm.var "P") ]);
       ])

let test_stock_rises () =
  let q =
    Event_query.Rises
      { Event_query.r_over = q_price; r_var = "P"; r_window = 5; r_ratio = 1.05; r_bind = "A" }
  in
  let engine = Incremental.create_exn q in
  (* flat prices then a jump *)
  let values = [ 100.; 100.; 100.; 100.; 100.; 100.; 160. ] in
  let events = List.mapi (fun i v -> price (i * 1000) "ACME" v) values in
  let detections = feed_all engine events ~until:100_000 in
  Alcotest.(check int) "one rise detected" 1 (List.length detections);
  let d = List.hd detections in
  (* new avg = (100+100+100+100+160)/5 = 112 *)
  Alcotest.(check (option (float 1e-6))) "average bound" (Some 112.)
    (Option.bind (Subst.find "A" d.Instance.subst) Term.as_num);
  Alcotest.(check (option string)) "stock joined" (Some "ACME")
    (Option.bind (Subst.find "S" d.Instance.subst) Term.as_text)

let test_agg_groups_by_stock () =
  let q =
    Event_query.Agg
      { Event_query.over = q_price; var = "P"; window = 2; op = Construct.Avg; bind = "A" }
  in
  let engine = Incremental.create_exn q in
  let events =
    [ price 0 "A" 10.; price 1 "B" 100.; price 2 "A" 20.; price 3 "B" 200. ]
  in
  let detections = feed_all engine events ~until:10 in
  Alcotest.(check int) "one window per stock" 2 (List.length detections);
  let avg_of stock =
    List.find_map
      (fun (i : Instance.t) ->
        if Subst.find "S" i.Instance.subst = Some (txt stock) then
          Option.bind (Subst.find "A" i.Instance.subst) Term.as_num
        else None)
      detections
  in
  Alcotest.(check (option (float 1e-6))) "avg A" (Some 15.) (avg_of "A");
  Alcotest.(check (option (float 1e-6))) "avg B" (Some 150.) (avg_of "B")

(* ---- composition basics ---- *)

let qa = Event_query.on ~label:"a" (Qterm.el "a" [ Qterm.pos (Qterm.var "X") ])
let qb = Event_query.on ~label:"b" (Qterm.el "b" [ Qterm.pos (Qterm.var "Y") ])
let ea t v = ev t "a" (el "a" [ Term.int v ])
let eb t v = ev t "b" (el "b" [ Term.int v ])

let test_and_any_order () =
  let engine = Incremental.create_exn (Event_query.conj [ qa; qb ]) in
  let detections = feed_all engine [ eb 1 1; ea 2 2 ] ~until:10 in
  Alcotest.(check int) "b then a still detects and" 1 (List.length detections)

let test_seq_order_enforced () =
  let engine = Incremental.create_exn (Event_query.seq [ qa; qb ]) in
  Alcotest.(check int) "wrong order" 0 (List.length (feed_all engine [ eb 1 1; ea 2 2 ] ~until:10));
  let engine = Incremental.create_exn (Event_query.seq [ qa; qb ]) in
  Alcotest.(check int) "right order" 1 (List.length (feed_all engine [ ea 1 1; eb 2 2 ] ~until:10))

let test_within_filters () =
  let q = Event_query.within (Event_query.conj [ qa; qb ]) 10 in
  let engine = Incremental.create_exn q in
  Alcotest.(check int) "too far apart" 0 (List.length (feed_all engine [ ea 0 1; eb 100 2 ] ~until:200));
  let engine = Incremental.create_exn q in
  Alcotest.(check int) "inside window" 1 (List.length (feed_all engine [ ea 0 1; eb 10 2 ] ~until:200))

let test_or () =
  let engine = Incremental.create_exn (Event_query.disj [ qa; qb ]) in
  Alcotest.(check int) "both alternatives fire" 2 (List.length (feed_all engine [ ea 0 1; eb 1 2 ] ~until:10))

let test_sender_filter () =
  let q = Event_query.on ~sender:"good.example" ~label:"a" (Qterm.var "X") in
  let engine = Incremental.create_exn q in
  let from s = Event.make ~sender:s ~occurred_at:1 ~label:"a" (txt "x") in
  let detections =
    Incremental.feed engine (from "bad.example") @ Incremental.feed engine (from "good.example")
  in
  Alcotest.(check int) "sender filtered" 1 (List.length detections)

(* ---- consumption & selection (Thesis 5 / Zimmer-Unland) ---- *)

let test_consumption () =
  (* without consumption, each b pairs with the single a *)
  let engine = Incremental.create_exn (Event_query.conj [ qa; qb ]) in
  Alcotest.(check int) "unconsumed reuse" 2
    (List.length (feed_all engine [ ea 0 1; eb 1 2; eb 2 3 ] ~until:10));
  (* with consumption the a is used up by the first detection *)
  let engine = Incremental.create_exn ~consume:true (Event_query.conj [ qa; qb ]) in
  Alcotest.(check int) "consumed once" 1
    (List.length (feed_all engine [ ea 0 1; eb 1 2; eb 2 3 ] ~until:10))

let test_selection_first_last () =
  (* two a's, then one b: two simultaneous candidate detections *)
  let run selection =
    let engine = Incremental.create_exn ~selection (Event_query.conj [ qa; qb ]) in
    feed_all engine [ ea 0 1; ea 5 2; eb 10 3 ] ~until:20
  in
  Alcotest.(check int) "each reports both" 2 (List.length (run Incremental.Each));
  (match run Incremental.First with
  | [ d ] -> Alcotest.(check int) "first starts earliest" 0 d.Instance.t_start
  | _ -> Alcotest.fail "first must report one");
  match run Incremental.Last with
  | [ d ] -> Alcotest.(check int) "last starts latest" 5 d.Instance.t_start
  | _ -> Alcotest.fail "last must report one"

(* ---- garbage collection (Thesis 4) ---- *)

let test_gc_bounded_with_window () =
  let q = Event_query.within (Event_query.conj [ qa; qb ]) 10 in
  let engine = Incremental.create_exn q in
  for i = 0 to 999 do
    ignore (Incremental.feed engine (ea (i * 100) i))
  done;
  Alcotest.(check bool) "windowed state stays small" true (Incremental.live_instances engine < 20)

let test_unbounded_growth_without_window () =
  let q = Event_query.conj [ qa; qb ] in
  let engine = Incremental.create_exn q in
  for i = 0 to 999 do
    ignore (Incremental.feed engine (ea (i * 100) i))
  done;
  Alcotest.(check bool) "shadow web growth" true (Incremental.live_instances engine >= 1000)

let test_horizon_caps_unbounded () =
  let q = Event_query.conj [ qa; qb ] in
  let engine = Incremental.create_exn ~horizon:50 q in
  for i = 0 to 999 do
    ignore (Incremental.feed engine (ea (i * 100) i))
  done;
  Alcotest.(check bool) "horizon caps state" true (Incremental.live_instances engine < 20)

(* ---- derived events (Thesis 9) ---- *)

(* Derivation rules run in the rule engine: an engine over [rules] alone,
   and the events one input derives in it. *)
let derivation_engine ?share rules =
  Engine.create ?share (Ruleset.make ~event_rules:rules "derive")

let handle engine e =
  let ops =
    {
      Action.update = (fun _ -> Ok 0);
      txn_update = (fun _ -> Ok 0);
      send = (fun ~recipient:_ ~label:_ ~ttl:_ ~delay:_ _ -> ());
      log = ignore;
      now = (fun () -> Event.time e);
      checkpoint = (fun () -> fun () -> ());
    }
  in
  Engine.handle_event engine ~env:(Condition.env_of_docs []) ~ops e

let derived_by engine e = (handle engine e).Engine.derived_events

let test_derivation () =
  let rule =
    Deductive_event.rule ~name:"escalate" ~derives:"alarm"
      ~trigger:(Event_query.times 2 qa 100)
      ~payload:(Construct.cel "alarm" [ Construct.cvar "X" ])
  in
  let engine = Result.get_ok (derivation_engine [ rule ]) in
  let d1 = derived_by engine (ea 0 7) in
  Alcotest.(check int) "no alarm yet" 0 (List.length d1);
  let d2 = derived_by engine (ea 10 7) in
  Alcotest.(check int) "alarm derived" 1 (List.length d2);
  Alcotest.(check string) "label" "alarm" (List.hd d2).Event.label

let test_derivation_cascade () =
  let r1 =
    Deductive_event.rule ~name:"r1" ~derives:"mid" ~trigger:qa
      ~payload:(Construct.cel "mid" [ Construct.cvar "X" ])
  in
  let r2 =
    Deductive_event.rule ~name:"r2" ~derives:"top"
      ~trigger:(Event_query.on ~label:"mid" (Qterm.var "M"))
      ~payload:(Construct.cel "top" [])
  in
  let engine = Result.get_ok (derivation_engine [ r2; r1 ]) in
  let derived = derived_by engine (ea 0 1) in
  Alcotest.(check (list string)) "cascade through strata" [ "mid"; "top" ]
    (List.map (fun e -> e.Event.label) derived)

(* a derivation rule's partial matches count among the engine's live
   instances, as an ECA rule's do *)
let test_derivation_live_instances () =
  let pair =
    Deductive_event.rule ~name:"pair" ~derives:"paired" ~trigger:(Event_query.conj [ qa; qb ])
      ~payload:(Construct.cel "e" [ Construct.cvar "X" ])
  in
  let engine = Result.get_ok (derivation_engine ~share:false [ pair ]) in
  ignore (handle engine (ea 0 1));
  Alcotest.(check (float 0.)) "the stored [a]" 1.
    (Obs.Metrics.total (Obs.Metrics.snapshot (Engine.metrics engine)) "engine.live_instances")

(* a payload that names a variable the trigger never binds derives
   nothing, and says so as an ECA action error would *)
let test_derivation_payload_error () =
  let broken =
    Deductive_event.rule ~name:"broken" ~derives:"e" ~trigger:qa
      ~payload:(Construct.cel "e" [ Construct.cvar "Z" ])
  in
  let outcome = handle (Result.get_ok (derivation_engine [ broken ])) (ea 0 1) in
  Alcotest.(check int) "nothing derived" 0 (List.length outcome.Engine.derived_events);
  Alcotest.(check (list string)) "the error names the rule" [ "broken" ]
    (List.map fst outcome.Engine.errors)

let test_recursion_rejected () =
  let self_loop =
    Deductive_event.rule ~name:"loop" ~derives:"a" ~trigger:qa
      ~payload:(Construct.cel "a" [ Construct.cvar "X" ])
  in
  (match derivation_engine [ self_loop ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "self-recursive derivation accepted");
  let r1 =
    Deductive_event.rule ~name:"r1" ~derives:"y"
      ~trigger:(Event_query.on ~label:"z" (Qterm.var "V"))
      ~payload:(Construct.cel "y" [])
  in
  let r2 =
    Deductive_event.rule ~name:"r2" ~derives:"z"
      ~trigger:(Event_query.on ~label:"y" (Qterm.var "V"))
      ~payload:(Construct.cel "z" [])
  in
  (match derivation_engine [ r1; r2 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mutually recursive derivation accepted");
  let wildcard =
    Deductive_event.rule ~name:"w" ~derives:"any" ~trigger:(Event_query.on (Qterm.var "V"))
      ~payload:(Construct.cel "any" [])
  in
  match derivation_engine [ wildcard ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wildcard trigger accepted (always recursive)"

let suite =
  ( "event-query",
    [
      Alcotest.test_case "validation" `Quick test_validate;
      Alcotest.test_case "vars analysis" `Quick test_vars;
      Alcotest.test_case "window analysis" `Quick test_max_window;
      Alcotest.test_case "flight: absence with deadline" `Quick test_flight_absence;
      Alcotest.test_case "absence joins on shared variables" `Quick test_absence_join_on_shared_vars;
      Alcotest.test_case "SLA: 3 outages within 1 hour" `Quick test_sla_times;
      Alcotest.test_case "times respects its window" `Quick test_times_window_excludes_old;
      Alcotest.test_case "stock: average rises by 5%" `Quick test_stock_rises;
      Alcotest.test_case "aggregation groups by non-aggregated vars" `Quick test_agg_groups_by_stock;
      Alcotest.test_case "conjunction is order-insensitive" `Quick test_and_any_order;
      Alcotest.test_case "sequence enforces order" `Quick test_seq_order_enforced;
      Alcotest.test_case "within filters extents" `Quick test_within_filters;
      Alcotest.test_case "disjunction" `Quick test_or;
      Alcotest.test_case "sender filters" `Quick test_sender_filter;
      Alcotest.test_case "event instance consumption" `Quick test_consumption;
      Alcotest.test_case "instance selection first/last" `Quick test_selection_first_last;
      Alcotest.test_case "windows bound partial-match state" `Quick test_gc_bounded_with_window;
      Alcotest.test_case "window-less queries grow unboundedly" `Quick test_unbounded_growth_without_window;
      Alcotest.test_case "engine horizon caps growth" `Quick test_horizon_caps_unbounded;
      Alcotest.test_case "event derivation" `Quick test_derivation;
      Alcotest.test_case "derivation cascades through strata" `Quick test_derivation_cascade;
      Alcotest.test_case "recursive derivations rejected" `Quick test_recursion_rejected;
      Alcotest.test_case "derivation partial matches are live instances" `Quick
        test_derivation_live_instances;
      Alcotest.test_case "derivation payload errors are reported" `Quick
        test_derivation_payload_error;
    ] )
