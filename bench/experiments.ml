(* E1..E12 — one experiment per thesis.  The paper is a position paper
   with no tables or figures; each experiment here regenerates the table
   its thesis implies (see DESIGN.md §5 and EXPERIMENTS.md).  All
   experiments are deterministic. *)

open Xchange
open Util

(* A store-backed action host that counts nothing but does the work. *)
let host_ops store sent =
  {
    Action.update = (fun u -> Result.map fst (Store.apply store u));
    txn_update = (fun u -> Result.map fst (Store.apply store u));
    send = (fun ~recipient ~label ~ttl:_ ~delay:_ payload -> sent := (recipient, label, payload) :: !sent);
    log = (fun _ -> ());
    now = (fun () -> 0);
    checkpoint = (fun () -> fun () -> ());
  }

let order_event t i =
  Event.make ~occurred_at:t ~label:"order"
    (Term.elem "order" [ Term.elem "item" [ Term.text (Printf.sprintf "item-%d" i) ] ])

(* ------------------------------------------------------------------ *)
(* E1 / Thesis 1: ECA rules vs production rules                        *)
(* ------------------------------------------------------------------ *)

(* Workload: n orders arrive.  The ECA engine reacts to each order event
   directly.  The production-rule engine cannot see events: orders land
   in an inbox document and the engine re-evaluates its condition over
   the whole inbox on every polling cycle (one cycle per arrival — the
   most favourable ratio for polling). *)
let e1 () =
  let run_eca n =
    let store = Store.create () in
    Store.add_doc store "/done" (Term.elem ~ord:Term.Unordered "done" []);
    let sent = ref [] in
    let rule =
      Eca.make ~name:"process"
        ~on:(Event_query.on ~label:"order" (Qterm.el "order" [ Qterm.pos (Qterm.el "item" [ Qterm.pos (Qterm.var "I") ]) ]))
        (Action.insert ~doc:"/done" (Construct.cel "row" [ Construct.cvar "I" ]))
    in
    let engine = Engine.create_exn (Ruleset.make ~rules:[ rule ] "e1") in
    let env = Store.env store in
    let ops = host_ops store sent in
    let (), ms =
      time_ms (fun () ->
          for i = 1 to n do
            ignore (Engine.handle_event engine ~env ~ops (order_event i i))
          done)
    in
    let done_rows = List.length (Term.children (Option.get (Store.doc store "/done"))) in
    (cells (Engine.metrics engine) "engine.condition_evaluations", done_rows, ms)
  in
  let run_production n =
    let store = Store.create () in
    Store.add_doc store "/inbox" (Term.elem ~ord:Term.Unordered "inbox" []);
    Store.add_doc store "/done" (Term.elem ~ord:Term.Unordered "done" []);
    let sent = ref [] in
    let rule =
      {
        Production.name = "process";
        condition = Condition.In (Condition.Local "/inbox", Qterm.el "order" [ Qterm.pos (Qterm.el "item" [ Qterm.pos (Qterm.var "I") ]) ]);
        action = Action.insert ~doc:"/done" (Construct.cel "row" [ Construct.cvar "I" ]);
      }
    in
    let engine = Production.create [ rule ] in
    let ops = host_ops store sent in
    let (), ms =
      time_ms (fun () ->
          for i = 1 to n do
            ignore
              (Store.apply store
                 (Action.U_insert
                    {
                      doc = "/inbox";
                      selector = [];
                      at = None;
                      content = Term.elem "order" [ Term.elem "item" [ Term.text (Printf.sprintf "item-%d" i) ] ];
                    }));
            ignore (Production.poll ~env:(Store.env store) ~ops ~procs:(fun _ -> None) engine)
          done)
    in
    let done_rows = List.length (Term.children (Option.get (Store.doc store "/done"))) in
    (cells (Production.metrics engine) "production.condition_evaluations", done_rows, ms)
  in
  let rows =
    List.map
      (fun n ->
        let eca_evals, eca_done, eca_ms = run_eca n in
        let prod_evals, prod_done, prod_ms = run_production n in
        [
          si n; string_of_int eca_evals; string_of_int eca_done; f1 eca_ms;
          string_of_int prod_evals; string_of_int prod_done; f1 prod_ms;
          f1 (prod_ms /. Float.max 0.001 eca_ms);
        ])
      [ 100; 300; 1000 ]
  in
  print_table ~title:"E1 (Thesis 1) — ECA engine vs polled production rules, n order events"
    ~header:
      [ "n"; "ECA cond evals"; "ECA reactions"; "ECA ms"; "CA cond evals"; "CA reactions"; "CA ms"; "CA/ECA time" ]
    rows

(* ------------------------------------------------------------------ *)
(* E2 / Thesis 2: local processing + event choreography vs central     *)
(* ------------------------------------------------------------------ *)

let e2 () =
  (* k sites pass a token around a ring r times.  Choreography: each
     site's local rule forwards directly.  Central: every site reports to
     a coordinator which issues the next command (2 messages per hop and
     all load on one node). *)
  let ring_rules me next =
    Ruleset.make
      ~rules:
        [
          Eca.make ~name:"fwd"
            ~on:(Event_query.on ~label:"token" (Qterm.el "token" [ Qterm.pos (Qterm.var "N") ]))
            ~if_:(Condition.Cmp (Builtin.Gt, Builtin.ovar "N", Builtin.onum 0.))
            (Action.raise_event_to ~to_:(Builtin.ostr next) ~label:"token"
               (Construct.cel "token" [ Construct.C_operand (Builtin.O_sub (Builtin.ovar "N", Builtin.onum 1.)) ]));
        ]
      ("ring-" ^ me)
  in
  let run_ring k hops =
    let net = Network.create () in
    let host i = Printf.sprintf "site%d.example" i in
    for i = 0 to k - 1 do
      Network.add_node_exn net (node_exn ~host:(host i) (ring_rules (host i) (host ((i + 1) mod k))))
    done;
    Network.inject net ~to_:(host 0) ~label:"token" (Term.elem "token" [ Term.int hops ]);
    let t = Network.run_until_quiet net () in
    let stats = Network.transport_stats net in
    (stats.Transport.messages, t, 0)
  in
  let run_central k hops =
    let net = Network.create () in
    let host i = Printf.sprintf "site%d.example" i in
    let coordinator = "coordinator.example" in
    (* sites report each token to the coordinator *)
    let site_rules me =
      Ruleset.make
        ~rules:
          [
            Eca.make ~name:"report"
              ~on:(Event_query.on ~label:"token" (Qterm.el "token" [ Qterm.pos (Qterm.var "N") ]))
              (Action.raise_event ~to_:coordinator ~label:"report"
                 (Construct.cel "report" [ Construct.cel "from" [ Construct.ctext me ]; Construct.cvar "N" ]));
          ]
        ("site-" ^ me)
    in
    (* the coordinator decides who acts next *)
    let coord_rules =
      let next_of i = host ((i + 1) mod k) in
      let branches =
        List.init k (fun i ->
            {
              Eca.condition =
                Condition.Cmp (Builtin.Eq, Builtin.ovar "F", Builtin.ostr (host i));
              action =
                Action.If
                  ( Condition.Cmp (Builtin.Gt, Builtin.ovar "N", Builtin.onum 0.),
                    Action.raise_event ~to_:(next_of i) ~label:"token"
                      (Construct.cel "token"
                         [ Construct.C_operand (Builtin.O_sub (Builtin.ovar "N", Builtin.onum 1.)) ]),
                    Action.Nop );
            })
      in
      Ruleset.make
        ~rules:
          [
            Eca.make_ecnan ~name:"dispatch"
              ~on:
                (Event_query.on ~label:"report"
                   (Qterm.el "report" [ Qterm.pos (Qterm.el "from" [ Qterm.pos (Qterm.var "F") ]); Qterm.pos (Qterm.var "N") ]))
              branches;
          ]
        "coordinator"
    in
    for i = 0 to k - 1 do
      Network.add_node_exn net (node_exn ~host:(host i) (site_rules (host i)))
    done;
    let coord = node_exn ~host:coordinator coord_rules in
    Network.add_node_exn net coord;
    Network.inject net ~to_:(host 0) ~label:"token" (Term.elem "token" [ Term.int hops ]);
    let t = Network.run_until_quiet net () in
    let stats = Network.transport_stats net in
    (stats.Transport.messages, t, cells (Engine.metrics (Node.engine coord)) "engine.events_seen")
  in
  let rows =
    List.map
      (fun k ->
        let hops = 4 * k in
        let lm, lt, _ = run_ring k hops in
        let cm, ct, cload = run_central k hops in
        [ string_of_int k; string_of_int hops; string_of_int lm; string_of_int lt;
          string_of_int cm; string_of_int ct; string_of_int cload ])
      [ 2; 4; 8; 16 ]
  in
  print_table
    ~title:"E2 (Thesis 2) — choreography (local rules) vs central coordinator, token ring"
    ~header:[ "sites"; "hops"; "local msgs"; "local ms(sim)"; "central msgs"; "central ms(sim)"; "coordinator events" ]
    rows

(* ------------------------------------------------------------------ *)
(* E3 / Thesis 3: push vs poll                                         *)
(* ------------------------------------------------------------------ *)

let e3 () =
  let duration = Clock.seconds 60 in
  let change_every = Clock.seconds 2 in
  (* the producer's document changes every 2 s for 60 s (30 changes);
     the consumer wants to know about every change *)
  let setup ~push =
    let net = Network.create ~latency:(fun ~from:_ ~to_:_ -> 5) () in
    let producer_rules =
      if push then
        (* update event -> notify the consumer directly *)
        Ruleset.make
          ~rules:
            [
              Eca.make ~name:"notify"
                ~on:(Event_query.on ~label:"update" (Qterm.el "update" ~attrs:[ ("doc", Qterm.A_is "/feed") ] []))
                (Action.raise_event ~to_:"consumer.example" ~label:"changed"
                   (Construct.cel "changed" []));
            ]
          "producer"
      else Ruleset.make "producer"
    in
    let producer = node_exn ~host:"producer.example" producer_rules in
    Store.add_doc (Node.store producer) "/feed" (Term.elem "feed" [ Term.int 0 ]);
    let consumer = node_exn ~host:"consumer.example" (Ruleset.make "consumer") in
    Network.add_node_exn net producer;
    Network.add_node_exn net consumer;
    (net, producer)
  in
  (* drive the producer's changes through its own store so push rules see
     update events *)
  let change net producer i =
    let ctx = Network.context_for net producer in
    let ev =
      Event.make ~sender:"editor" ~recipient:"producer.example" ~occurred_at:(Network.clock net)
        ~label:"edit" (Term.int i)
    in
    ignore ev;
    (* direct store update, then synthesise the update event like a local
       editor action would *)
    ignore
      (Store.apply (Node.store producer)
         (Action.U_replace { doc = "/feed"; selector = []; content = Term.elem "feed" [ Term.int i ] }));
    ignore
      (Node.receive_event producer ctx
         (Event.make ~sender:"producer.example" ~recipient:"producer.example"
            ~occurred_at:(Network.clock net) ~label:"update"
            (Term.elem "update" ~attrs:[ ("doc", "/feed"); ("kind", "replace") ] [])))
  in
  let run_push () =
    let net, producer = setup ~push:true in
    let detected = ref [] in
    (* count deliveries at the consumer *)
    let consumer = Network.node_exn net "consumer.example" in
    ignore consumer;
    let changes = duration / change_every in
    for i = 1 to changes do
      Network.run net ~until:(i * change_every);
      change net producer i;
      detected := (i * change_every, i * change_every + 5) :: !detected
    done;
    ignore (Network.run_until_quiet net ());
    let s = Network.transport_stats net in
    let latencies = List.map (fun (c, d) -> d - c) !detected in
    (s.Transport.messages, s.Transport.bytes, latencies, changes, changes)
  in
  let run_poll period =
    let net, producer = setup ~push:false in
    let stats = Poll.attach net ~poller:"consumer.example" ~target:"producer.example/feed" ~period in
    let changes = duration / change_every in
    let change_times = ref [] in
    for i = 1 to changes do
      Network.run net ~until:(i * change_every);
      change net producer i;
      change_times := i * change_every :: !change_times
    done;
    Network.run net ~until:(duration + (2 * period));
    let s = Network.transport_stats net in
    (* detected = changes_seen - 1 (initial snapshot); a change is missed
       when the next change lands before the next poll *)
    let detected = max 0 (Poll.changes_seen stats - 1) in
    let mean_latency = float_of_int period /. 2. +. 10. in
    (s.Transport.messages, s.Transport.bytes, detected, changes, mean_latency)
  in
  let pm, pb, plat, pchanges, pdetected = run_push () in
  let push_row =
    [
      "push"; string_of_int pm; si pb; string_of_int pdetected ^ "/" ^ string_of_int pchanges;
      f1 (float_of_int (List.fold_left ( + ) 0 plat) /. float_of_int (List.length plat));
      string_of_int (List.fold_left max 0 plat);
    ]
  in
  let poll_rows =
    List.map
      (fun period ->
        let m, b, detected, changes, mean_lat = run_poll period in
        [
          Printf.sprintf "poll %dms" period; string_of_int m; si b;
          string_of_int detected ^ "/" ^ string_of_int changes; f1 mean_lat; string_of_int (period + 10);
        ])
      [ 500; 1000; 2000; 5000 ]
  in
  print_table
    ~title:"E3 (Thesis 3) — push vs poll: 30 changes over 60 s, 5 ms link latency"
    ~header:[ "paradigm"; "messages"; "bytes"; "changes seen"; "mean latency ms"; "max latency ms" ]
    (push_row :: poll_rows)

(* ------------------------------------------------------------------ *)
(* E4 / Thesis 4: volatile data must stay volatile                     *)
(* ------------------------------------------------------------------ *)

let e4 () =
  let n = 20_000 in
  let a_event t = Event.make ~occurred_at:t ~label:"a" (Term.elem "a" [ Term.int t ]) in
  let query_unbounded =
    Event_query.conj
      [ Event_query.on ~label:"a" (Qterm.var "X"); Event_query.on ~label:"b" (Qterm.var "Y") ]
  in
  let query_windowed = Event_query.within query_unbounded (Clock.seconds 1) in
  let run q horizon =
    let engine = Incremental.create_exn ?horizon q in
    let checkpoints = ref [] in
    for t = 1 to n do
      ignore (Incremental.feed engine (a_event t));
      if t = n / 4 || t = n / 2 || t = n then
        checkpoints := Incremental.live_instances engine :: !checkpoints
    done;
    List.rev !checkpoints
  in
  let history_mode retention =
    let h = History.create ?retention () in
    let checkpoints = ref [] in
    for t = 1 to n do
      History.add h (a_event t);
      if t = n / 4 || t = n / 2 || t = n then checkpoints := History.length h :: !checkpoints
    done;
    List.rev !checkpoints
  in
  let row name cps = name :: List.map si cps in
  print_table
    ~title:
      (Printf.sprintf
         "E4 (Thesis 4) — partial-match/event storage growth over %s unmatched events" (si n))
    ~header:[ "configuration"; "live @ n/4"; "live @ n/2"; "live @ n" ]
    [
      row "and{a,b}, no GC (shadow Web)" (run query_unbounded None);
      row "and{a,b}, engine horizon 1 s" (run query_unbounded (Some (Clock.seconds 1)));
      row "and{a,b} within 1 s (windowed)" (run query_windowed None);
      row "event history, unbounded" (history_mode None);
      row "event history, keep 1 s" (history_mode (Some (History.Keep (Clock.seconds 1))));
    ]

(* ------------------------------------------------------------------ *)
(* E5 / Thesis 5: the four dimensions of event queries                 *)
(* ------------------------------------------------------------------ *)

let e5 () =
  let feed_engine q events =
    let e = Incremental.create_exn ~consume:true q in
    let d = List.concat_map (fun ev -> Incremental.feed e ev) events in
    let d = d @ Incremental.advance_to e 10_000_000 in
    (List.length events, List.length d)
  in
  let el = Term.elem and txt = Term.text in
  (* flight scenario stream *)
  let cancellation t p = Event.make ~occurred_at:t ~label:"cancellation" (el "cancellation" [ el "passenger" [ txt p ] ]) in
  let rebooking t p = Event.make ~occurred_at:t ~label:"rebooking" (el "rebooking" [ el "passenger" [ txt p ] ]) in
  let flight_events =
    List.concat
      (List.init 20 (fun i ->
           let base = i * Clock.hours 5 in
           if i mod 2 = 0 then
             [ cancellation base (Printf.sprintf "p%d" i); rebooking (base + Clock.minutes 30) (Printf.sprintf "p%d" i) ]
           else [ cancellation base (Printf.sprintf "p%d" i) ]))
  in
  let q_flight =
    Event_query.absent
      (Event_query.on ~label:"cancellation" (Qterm.el "cancellation" [ Qterm.pos (Qterm.el "passenger" [ Qterm.pos (Qterm.var "P") ]) ]))
      ~then_absent:(Event_query.on ~label:"rebooking" (Qterm.el "rebooking" [ Qterm.pos (Qterm.el "passenger" [ Qterm.pos (Qterm.var "P") ]) ]))
      ~for_:(Clock.hours 2)
  in
  (* SLA stream: server w fails in bursts *)
  let outage t s = Event.make ~occurred_at:t ~label:"outage" (el "outage" [ el "server" [ txt s ] ]) in
  let sla_events =
    List.concat
      (List.init 10 (fun i ->
           let base = i * Clock.hours 3 in
           if i mod 3 = 0 then
             [ outage base "w1"; outage (base + Clock.minutes 10) "w1"; outage (base + Clock.minutes 20) "w1" ]
           else [ outage base "w2" ]))
  in
  let q_sla =
    Event_query.times 3
      (Event_query.on ~label:"outage" (Qterm.el "outage" [ Qterm.pos (Qterm.el "server" [ Qterm.pos (Qterm.var "S") ]) ]))
      (Clock.hours 1)
  in
  (* stock stream *)
  let price t v = Event.make ~occurred_at:t ~label:"price" (el "price" [ el "stock" [ txt "ACME" ]; el "value" [ Term.num v ] ]) in
  let stock_events =
    List.mapi (fun i v -> price (i * 1000) v)
      [ 100.; 100.; 100.; 100.; 100.; 100.; 150.; 155.; 100.; 100.; 100.; 100.; 100.; 160. ]
  in
  let q_price =
    Event_query.on ~label:"price"
      (Qterm.el "price" [ Qterm.pos (Qterm.el "stock" [ Qterm.pos (Qterm.var "S") ]); Qterm.pos (Qterm.el "value" [ Qterm.pos (Qterm.var "P") ]) ])
  in
  let q_stock =
    Event_query.Rises { Event_query.r_over = q_price; r_var = "P"; r_window = 5; r_ratio = 1.05; r_bind = "A" }
  in
  (* composition: order and payment joined on customer *)
  let order t c = Event.make ~occurred_at:t ~label:"order" (el "order" [ el "customer" [ txt c ] ]) in
  let payment t c = Event.make ~occurred_at:t ~label:"payment" (el "payment" [ el "customer" [ txt c ] ]) in
  let pay_events =
    List.concat (List.init 15 (fun i ->
        let c = Printf.sprintf "c%d" i in
        let base = i * Clock.minutes 30 in
        if i mod 3 = 0 then [ order base c; payment (base + Clock.minutes 5) c ]
        else [ order base c ]))
  in
  let q_paid =
    Event_query.within
      (Event_query.seq
         [
           Event_query.on ~label:"order" (Qterm.el "order" [ Qterm.pos (Qterm.el "customer" [ Qterm.pos (Qterm.var "C") ]) ]);
           Event_query.on ~label:"payment" (Qterm.el "payment" [ Qterm.pos (Qterm.el "customer" [ Qterm.pos (Qterm.var "C") ]) ]);
         ])
      (Clock.hours 2)
  in
  let row name dims q events =
    let n, d = feed_engine q events in
    [ name; dims; string_of_int n; string_of_int d ]
  in
  print_table
    ~title:"E5 (Thesis 5) — the four dimensions of composite event queries (consumption on)"
    ~header:[ "scenario query"; "dimensions exercised"; "events in"; "detections" ]
    [
      row "flight: cancel + no rebooking in 2 h" "extraction, composition, temporal" q_flight flight_events;
      row "SLA: 3 outages of a server in 1 h" "extraction, accumulation, temporal" q_sla sla_events;
      row "stock: 5-avg rises 5%" "extraction, accumulation" q_stock stock_events;
      row "shop: order then payment in 2 h" "extraction, composition, temporal" q_paid pay_events;
    ]

(* ------------------------------------------------------------------ *)
(* E6 / Thesis 6: incremental vs query-driven evaluation               *)
(* ------------------------------------------------------------------ *)

let e6 () =
  let mk_events h =
    List.init h (fun i ->
        if (i + 1) mod 50 = 0 then
          Event.make ~occurred_at:i ~label:"b" (Term.elem "b" [ Term.int i ])
        else Event.make ~occurred_at:i ~label:"a" (Term.elem "a" [ Term.int i ]))
  in
  let q =
    Event_query.within
      (Event_query.conj
         [ Event_query.on ~label:"a" (Qterm.el "a" [ Qterm.pos (Qterm.var "X") ]);
           Event_query.on ~label:"b" (Qterm.el "b" [ Qterm.pos (Qterm.var "Y") ]) ])
      25
  in
  let rows =
    List.map
      (fun h ->
        let events = mk_events h in
        let inc_detections = ref 0 in
        let (), inc_ms =
          time_ms (fun () ->
              let engine = Incremental.create_exn q in
              List.iter (fun e -> inc_detections := !inc_detections + List.length (Incremental.feed engine e)) events)
        in
        let bw_detections = ref 0 in
        let (), bw_ms =
          time_ms (fun () ->
              let per_event = Backward.detections_per_event q events in
              List.iter (fun (_, ds) -> bw_detections := !bw_detections + List.length ds) per_event)
        in
        [
          si h; string_of_int !inc_detections; f2 inc_ms;
          f2 (inc_ms *. 1000. /. float_of_int h);
          f2 bw_ms; f2 (bw_ms *. 1000. /. float_of_int h);
          f1 (bw_ms /. Float.max 0.001 inc_ms);
          (if !inc_detections = !bw_detections then "yes" else "NO");
        ])
      [ 100; 200; 400; 800 ]
  in
  print_table
    ~title:"E6 (Thesis 6) — incremental vs query-driven evaluation of 'a and b within 25ms'"
    ~header:[ "history"; "detections"; "inc total ms"; "inc us/event"; "qd total ms"; "qd us/event"; "speedup"; "same answers" ]
    rows

(* ------------------------------------------------------------------ *)
(* E7 / Thesis 7: the embedded Web query language                      *)
(* ------------------------------------------------------------------ *)

let e7 () =
  let make_doc s =
    Term.elem ~ord:Term.Unordered "catalog"
      (List.init s (fun i ->
           Term.elem "product"
             [
               Term.elem "name" [ Term.text (Printf.sprintf "p%d" i) ];
               Term.elem "price" [ Term.int (i mod 100) ];
             ]))
  in
  let q =
    Qterm.el "product"
      [
        Qterm.pos (Qterm.el "name" [ Qterm.pos (Qterm.var "N") ]);
        Qterm.pos (Qterm.el "price" [ Qterm.pos (Qterm.numq 42.) ]);
      ]
  in
  (* the hand-written equivalent of the query *)
  let handwritten doc =
    Term.fold
      (fun acc t ->
        match t with
        | Term.Elem { Term.label = "product"; children; _ } ->
            let name = ref None and hit = ref false in
            List.iter
              (fun c ->
                match c with
                | Term.Elem { Term.label = "name"; children = [ n ]; _ } -> name := Term.as_text n
                | Term.Elem { Term.label = "price"; children = [ p ]; _ } ->
                    if Term.as_num p = Some 42. then hit := true
                | _ -> ())
              children;
            (match (!name, !hit) with Some n, true -> n :: acc | _ -> acc)
        | _ -> acc)
      [] doc
  in
  let rows =
    List.map
      (fun s ->
        let doc = make_doc s in
        let repeat = max 1 (20000 / s) in
        let answers = ref 0 in
        let (), q_ms =
          time_ms (fun () ->
              for _ = 1 to repeat do
                answers := List.length (Simulate.matches_anywhere q doc)
              done)
        in
        let hw = ref 0 in
        let (), h_ms =
          time_ms (fun () ->
              for _ = 1 to repeat do
                hw := List.length (handwritten doc)
              done)
        in
        [
          si s; string_of_int !answers;
          f2 (q_ms *. 1000. /. float_of_int repeat);
          f2 (h_ms *. 1000. /. float_of_int repeat);
          f1 (q_ms /. Float.max 0.001 h_ms);
          (if !answers = !hw then "yes" else "NO");
        ])
      [ 100; 1000; 10_000; 50_000 ]
  in
  print_table
    ~title:"E7 (Thesis 7) — declarative query vs hand-coded traversal, catalog of s products"
    ~header:[ "products"; "answers"; "query us"; "handcoded us"; "slowdown"; "same answers" ]
    rows

(* ------------------------------------------------------------------ *)
(* E8 / Thesis 8: compound actions                                     *)
(* ------------------------------------------------------------------ *)

let e8 () =
  let run_seq u =
    let store = Store.create () in
    Store.add_doc store "/d" (Term.elem ~ord:Term.Unordered "d" []);
    let sent = ref [] in
    let action =
      Action.seq (List.init u (fun i -> Action.insert ~doc:"/d" (Construct.cel "x" [ Construct.C_num (float_of_int i) ])))
    in
    let (), ms =
      time_ms (fun () ->
          match
            Action.exec ~env:(Store.env store) ~ops:(host_ops store sent) ~procs:(fun _ -> None)
              ~subst:Subst.empty ~answers:[] action
          with
          | Ok _ -> ()
          | Error e -> failwith e)
    in
    let applied = List.length (Term.children (Option.get (Store.doc store "/d"))) in
    (applied, ms)
  in
  let run_alt failures =
    let store = Store.create () in
    Store.add_doc store "/d" (Term.elem ~ord:Term.Unordered "d" []);
    let sent = ref [] in
    let action =
      Action.alt (List.init failures (fun i -> Action.Fail (Printf.sprintf "alt%d" i)) @ [ Action.insert ~doc:"/d" (Construct.cel "ok" []) ])
    in
    match
      Action.exec ~env:(Store.env store) ~ops:(host_ops store sent) ~procs:(fun _ -> None)
        ~subst:Subst.empty ~answers:[] action
    with
    | Ok o -> (failures + 1, o.Action.updates)
    | Error _ -> (failures, 0)
  in
  let seq_rows =
    List.map
      (fun u ->
        let applied, ms = run_seq u in
        [ Printf.sprintf "seq of %d inserts" u; string_of_int applied; "1"; f2 ms ])
      [ 10; 100; 1000 ]
  in
  let alt_rows =
    List.map
      (fun f ->
        let tried, applied = run_alt f in
        [ Printf.sprintf "alt, %d failures first" f; string_of_int applied; string_of_int tried; "-" ])
      [ 0; 3; 10 ]
  in
  print_table
    ~title:"E8 (Thesis 8) — compound actions: sequences and alternatives"
    ~header:[ "compound"; "updates applied"; "alternatives tried"; "ms" ]
    (seq_rows @ alt_rows)

(* ------------------------------------------------------------------ *)
(* E9 / Thesis 9: structuring avoids redundant evaluation              *)
(* ------------------------------------------------------------------ *)

let e9 () =
  let customers m =
    Term.elem ~ord:Term.Unordered "customers"
      (List.init m (fun i ->
           Term.elem "customer"
             [
               Term.elem "name" [ Term.text (Printf.sprintf "c%d" i) ];
               Term.elem "status" [ Term.text (if i mod 2 = 0 then "gold" else "basic") ];
             ]))
  in
  let cond_gold =
    Condition.In
      ( Condition.Local "/customers",
        Qterm.el "customer"
          [ Qterm.pos (Qterm.el "name" [ Qterm.pos (Qterm.var "W") ]);
            Qterm.pos (Qterm.el "status" [ Qterm.pos (Qterm.txt "gold") ]) ] )
  in
  let on_order = Event_query.on ~label:"order" (Qterm.el "order" []) in
  let run rules n m =
    let store = Store.create () in
    Store.add_doc store "/customers" (customers m);
    let sent = ref [] in
    let engine = Engine.create_exn (Ruleset.make ~rules "e9") in
    let env = Store.env store in
    let ops = host_ops store sent in
    let (), ms =
      time_ms (fun () ->
          for i = 1 to n do
            ignore (Engine.handle_event engine ~env ~ops (Event.make ~occurred_at:i ~label:"order" (Term.elem "order" [])))
          done)
    in
    (cells (Engine.metrics engine) "engine.condition_evaluations", ms)
  in
  let ecaa = [ Eca.make ~name:"r" ~on:on_order ~if_:cond_gold Action.Nop ~else_:Action.Nop ] in
  let two_rules =
    [
      Eca.make ~name:"r-pos" ~on:on_order ~if_:cond_gold Action.Nop;
      Eca.make ~name:"r-neg" ~on:on_order ~if_:(Condition.Not cond_gold) Action.Nop;
    ]
  in
  let n = 500 in
  let rows =
    List.concat_map
      (fun m ->
        let e_evals, e_ms = run ecaa n m in
        let t_evals, t_ms = run two_rules n m in
        [
          [ Printf.sprintf "ECAA, %d customers" m; string_of_int e_evals; f1 e_ms ];
          [ Printf.sprintf "two rules (C / not C), %d customers" m; string_of_int t_evals; f1 t_ms ];
        ])
      [ 100; 1000 ]
  in
  print_table
    ~title:(Printf.sprintf "E9 (Thesis 9) — ECAA vs duplicated-condition rules, %d events" n)
    ~header:[ "program form"; "condition evaluations"; "ms" ]
    rows

(* ------------------------------------------------------------------ *)
(* E10 / Thesis 10: extensional vs surrogate identity                  *)
(* ------------------------------------------------------------------ *)

let e10 () =
  let m = 50 in
  let make_store () =
    let s = Store.create () in
    Store.add_doc s "/news"
      (Term.elem ~ord:Term.Unordered "news"
         (List.init m (fun i ->
              Term.elem "article"
                [ Term.elem "id" [ Term.int i ]; Term.elem "rev" [ Term.int 0 ] ])));
    s
  in
  let watch_all s mode =
    let doc = Option.get (Store.doc s "/news") in
    List.filteri (fun i _ -> i < m) (Term.children doc)
    |> List.mapi (fun i article ->
           match mode with
           | `Surrogate -> Result.get_ok (Store.watch_surrogate s ~doc:"/news" [ i ])
           | `Extensional ->
               Result.get_ok (Store.watch_extensional s ~doc:"/news" (Term.strip_ids article)))
  in
  (* each round bumps the revision of every 3rd article in place *)
  let bump s round =
    for idx = 0 to m - 1 do
      if idx mod 3 = round mod 3 then
        let replacement =
          Term.elem "article"
            [ Term.elem "id" [ Term.int idx ]; Term.elem "rev" [ Term.int (round + 1) ] ]
        in
        match Store.replace_at s ~doc:"/news" [ idx ] replacement with
        | Ok () -> ()
        | Error e -> failwith e
    done
  in
  let run mode rounds =
    let s = make_store () in
    let watches = watch_all s mode in
    let changes = ref 0 in
    for round = 0 to rounds - 1 do
      bump s round;
      List.iter
        (fun w -> match Store.poll_watch s w with `Changed _ -> incr changes | `Unchanged | `Lost -> ())
        watches
    done;
    let tracked =
      List.length (List.filter (fun w -> Store.poll_watch s w <> `Lost) watches)
    in
    (!changes, tracked)
  in
  let rows =
    List.concat_map
      (fun rounds ->
        let sc, st = run `Surrogate rounds in
        let ec, et = run `Extensional rounds in
        [
          [ Printf.sprintf "surrogate, %d update rounds" rounds; string_of_int sc; Printf.sprintf "%d/%d" st m ];
          [ Printf.sprintf "extensional, %d update rounds" rounds; string_of_int ec; Printf.sprintf "%d/%d" et m ];
        ])
      [ 1; 3 ]
  in
  print_table
    ~title:(Printf.sprintf "E10 (Thesis 10) — monitoring %d articles through updates" m)
    ~header:[ "identity mode"; "changes detected"; "objects still tracked" ]
    rows

(* ------------------------------------------------------------------ *)
(* E11 / Thesis 11: reactive vs eager policy exchange                  *)
(* ------------------------------------------------------------------ *)

let e11 () =
  let scenario decoys =
    let franz =
      {
        Trust.name = "franz";
        credentials = [ "credit-card" ];
        policies =
          Trust.policy ~sensitive:true ~item:"credit-card" [ [ "bbb-membership" ] ]
          :: List.init decoys (fun i ->
                 Trust.policy ~sensitive:true ~item:(Printf.sprintf "franz-secret-%d" i) Trust.never);
      }
    in
    let shop =
      {
        Trust.name = "fussbaelle.biz";
        credentials = [ "purchase"; "bbb-membership" ];
        policies =
          [
            Trust.policy ~item:"purchase" [ [ "credit-card" ] ];
            Trust.policy ~item:"bbb-membership" Trust.freely;
          ]
          @ List.init decoys (fun i ->
                Trust.policy ~sensitive:true ~item:(Printf.sprintf "shop-secret-%d" i) Trust.never);
      }
    in
    (franz, shop)
  in
  let rows =
    List.concat_map
      (fun decoys ->
        let franz, shop = scenario decoys in
        let run strategy =
          Trust.negotiate ~strategy ~requester:franz ~responder:shop ~goal:"purchase" ()
        in
        let r = run Trust.Reactive and e = run Trust.Eager in
        let fmt name (o : Trust.outcome) =
          [
            name; string_of_int decoys; (if o.Trust.granted then "yes" else "no");
            string_of_int o.Trust.rounds; string_of_int o.Trust.policies_sent;
            string_of_int o.Trust.credentials_sent; si o.Trust.bytes;
            string_of_int o.Trust.sensitive_policies_leaked;
          ]
        in
        [ fmt "reactive" r; fmt "eager" e ])
      [ 0; 4; 16 ]
  in
  print_table
    ~title:"E11 (Thesis 11) — reactive vs eager policy exchange (fussbaelle.biz scenario + decoy policies)"
    ~header:[ "strategy"; "decoy policies"; "deal"; "rounds"; "policies sent"; "credentials"; "bytes"; "sensitive leaked" ]
    rows

(* ------------------------------------------------------------------ *)
(* E12 / Thesis 12: accounting overhead                                *)
(* ------------------------------------------------------------------ *)

let e12 () =
  let service_rules =
    Ruleset.make
      ~rules:
        [
          Eca.make ~name:"serve"
            ~on:(Event_query.on ~label:"order" (Qterm.el "order" [ Qterm.pos (Qterm.el "item" [ Qterm.pos (Qterm.var "I") ]) ]))
            (Action.insert ~doc:"/served" (Construct.cel "row" [ Construct.cvar "I" ]));
        ]
      "service"
  in
  let run ~accounting n =
    let root =
      if accounting then
        Ruleset.make ~children:[ service_rules; Accounting.ruleset ~service_labels:[ "order" ] () ] "root"
      else Ruleset.make ~children:[ service_rules ] "root"
    in
    let store = Store.create () in
    Store.add_doc store "/served" (Term.elem ~ord:Term.Unordered "served" []);
    Store.add_doc store Accounting.default_log_doc (Accounting.log_document ());
    let sent = ref [] in
    let engine = Engine.create_exn root in
    let env = Store.env store in
    let ops = host_ops store sent in
    let (), ms =
      time_ms (fun () ->
          for i = 1 to n do
            ignore (Engine.handle_event engine ~env ~ops (order_event i i))
          done)
    in
    let served = List.length (Term.children (Option.get (Store.doc store "/served"))) in
    let records = Accounting.total store () in
    (served, records, ms)
  in
  let n = 2000 in
  let s0, r0, ms0 = run ~accounting:false n in
  let s1, r1, ms1 = run ~accounting:true n in
  print_table
    ~title:(Printf.sprintf "E12 (Thesis 12) — accounting as a second reactive layer, %d requests" n)
    ~header:[ "configuration"; "requests served"; "usage records"; "ms"; "overhead" ]
    [
      [ "service only"; string_of_int s0; string_of_int r0; f1 ms0; "-" ];
      [
        "service + accounting rules"; string_of_int s1; string_of_int r1; f1 ms1;
        Printf.sprintf "%.0f%%" ((ms1 -. ms0) /. Float.max 0.001 ms0 *. 100.);
      ];
    ]

(* ------------------------------------------------------------------ *)
(* A1 — ablation: event instance consumption (Thesis 5 / [12])         *)
(* ------------------------------------------------------------------ *)

let a1 () =
  (* "3 outages within 1 hour": without consumption, every new outage
     after the third re-detects with every pair of its predecessors *)
  let q =
    Event_query.times 3
      (Event_query.on ~label:"outage" (Qterm.el "outage" []))
      (Clock.hours 1)
  in
  let outages n =
    List.init n (fun i -> Event.make ~occurred_at:(i * Clock.minutes 5) ~label:"outage" (Term.elem "outage" []))
  in
  let run ~consume n =
    let engine = Incremental.create_exn ~consume q in
    List.fold_left (fun acc e -> acc + List.length (Incremental.feed engine e)) 0 (outages n)
  in
  let rows =
    List.map
      (fun n ->
        [ si n; string_of_int (run ~consume:false n); string_of_int (run ~consume:true n) ])
      [ 3; 6; 9; 12 ]
  in
  print_table
    ~title:"A1 (ablation, Thesis 5) — detections of '3 outages within 1h' with/without consumption"
    ~header:[ "outages (all within 1h)"; "detections, keep"; "detections, consume" ]
    rows

(* ------------------------------------------------------------------ *)
(* A2 — ablation: sub-index event dispatch in the engine              *)
(* ------------------------------------------------------------------ *)

let a2 () =
  let run ~index rules_n events_n =
    let rules =
      List.init rules_n (fun i ->
          Eca.make
            ~name:(Printf.sprintf "r%d" i)
            ~on:(Event_query.on ~label:(Printf.sprintf "label-%d" i) (Qterm.var "E"))
            Action.Nop)
    in
    let engine = Engine.create_exn ~index (Ruleset.make ~rules "a2") in
    let store = Store.create () in
    let sent = ref [] in
    let env = Store.env store in
    let ops = host_ops store sent in
    let (), ms =
      time_ms (fun () ->
          for i = 1 to events_n do
            ignore
              (Engine.handle_event engine ~env ~ops
                 (Event.make ~occurred_at:i
                    ~label:(Printf.sprintf "label-%d" (i mod rules_n))
                    (Term.elem "e" [])))
          done)
    in
    ms
  in
  let events_n = 2000 in
  let rows =
    List.map
      (fun rules_n ->
        let without = run ~index:false rules_n events_n in
        let with_ = run ~index:true rules_n events_n in
        [ string_of_int rules_n; f1 without; f1 with_; f1 (without /. Float.max 0.001 with_) ])
      [ 10; 50; 200 ]
  in
  print_table
    ~title:
      (Printf.sprintf
         "A2 (ablation) — sub-index dispatch, %d events over n single-label rules" events_n)
    ~header:[ "rules"; "no index ms"; "indexed ms"; "speedup" ]
    rows

(* ------------------------------------------------------------------ *)
(* A3 — ablation: goal-directed vs exhaustive view materialisation     *)
(* ------------------------------------------------------------------ *)

let a3 () =
  let base_doc m =
    Term.elem ~ord:Term.Unordered "rows"
      (List.init m (fun i -> Term.elem "row" [ Term.int i ]))
  in
  let mk_view i =
    Deductive.rule
      ~view:(Printf.sprintf "v%d" i)
      ~head:(Construct.cel "out" [ Construct.cvar "X" ])
      ~body:
        (Condition.In
           (Condition.Local (Printf.sprintf "/doc%d" i), Qterm.el "row" [ Qterm.pos (Qterm.var "X") ]))
  in
  let run views_n rows evals =
    let docs = List.init views_n (fun i -> (Printf.sprintf "/doc%d" i, base_doc rows)) in
    let env = Condition.env_of_docs docs in
    let program = List.init views_n mk_view in
    let goal = Condition.In (Condition.View "v0", Qterm.el "out" [ Qterm.pos (Qterm.var "X") ]) in
    let goal_directed =
      let env' = Deductive.extend_env env program in
      let (), ms = time_ms (fun () -> for _ = 1 to evals do ignore (Condition.eval env' Subst.empty goal) done) in
      ms
    in
    let exhaustive =
      let fetch res =
        match res with
        | Condition.View v -> (
            let tables = Deductive.materialize env program in
            match Hashtbl.find_opt tables v with Some ts -> ts | None -> [])
        | Condition.Local _ | Condition.Remote _ -> env.Condition.fetch res
      in
      let env' =
        { Condition.fetch; fetch_rdf = env.Condition.fetch_rdf; cached_match = Condition.no_cached_match }
      in
      let (), ms = time_ms (fun () -> for _ = 1 to evals do ignore (Condition.eval env' Subst.empty goal) done) in
      ms
    in
    (goal_directed, exhaustive)
  in
  let evals = 50 in
  let rows_per_doc = 100 in
  let rows =
    List.map
      (fun views_n ->
        let g, e = run views_n rows_per_doc evals in
        [ string_of_int views_n; f1 g; f1 e; f1 (e /. Float.max 0.001 g) ])
      [ 1; 8; 32 ]
  in
  print_table
    ~title:
      (Printf.sprintf
         "A3 (ablation, Thesis 7) — goal-directed vs exhaustive view materialisation (%d condition evaluations, one relevant view)"
         evals)
    ~header:[ "views in program"; "goal-directed ms"; "exhaustive ms"; "speedup" ]
    rows

let all = [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
            ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12);
            ("a1", a1); ("a2", a2); ("a3", a3) ]
