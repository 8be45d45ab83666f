(* Durability: the write-ahead log codec and its corruption tolerance
   (pinned against the committed corpus in test/corpus/), transactional
   update semantics (Store.apply_txn, the static and dynamic cross-node
   guards), and the property the whole subsystem hangs on — a node
   killed at an arbitrary virtual time and recovered from WAL+snapshot
   converges with the no-crash differential oracle. *)

open Xchange

(* ---- codec roundtrip ----------------------------------------------- *)

let sample_event ?(id = 11) ?(received_at = 15) () =
  Event.make ~id ~sender:"src.example" ~recipient:"mid.example" ~received_at ~ttl:100
    ~occurred_at:10 ~label:"order"
    (Term.elem "order" [ Term.elem "item" [ Term.text "ball" ]; Term.elem "qty" [ Term.int 2 ] ])

let sample_records () =
  [
    Wal.Event (sample_event ());
    Wal.Update
      (Action.U_insert
         { doc = "/orders"; selector = []; at = Some 0; content = Term.elem "row" [ Term.text "x" ] });
    Wal.Remote_update
      {
        from = "src.example";
        msg_id = 7;
        at = 20;
        update =
          Action.U_replace
            {
              doc = "/status";
              selector = [ (Path.Child, Path.Tag "state"); (Path.Descendant, Path.Any) ];
              content = Term.elem "state" [ Term.text "ok" ];
            };
      };
    Wal.Advance 30;
    Wal.Firing { rule = "take"; at = 30 };
    Wal.Update (Action.U_delete_doc { doc = "/orders" });
    Wal.Update
      (Action.U_rdf_assert
         { doc = "/g"; triple = { Rdf.s = Rdf.Iri "a"; p = "knows"; o = Rdf.Iri "b" } });
    Wal.Snapshot
      {
        Wal.s_at = 40;
        s_store = Term.elem "store" [];
        s_event_n = 3;
        s_msg_n = 2;
        s_req_n = 1;
        s_firings = 5;
        s_seen = [ 11; 12 ];
        s_seen_updates = [ ("src.example", 7) ];
        s_logs = [ "two"; "one" ];
        s_errors = [ ("take", "boom") ];
        s_tail = [ Wal.T_event (sample_event ()); Wal.T_advance 30 ];
      };
  ]

let is_clean = function Wal.Clean -> true | Wal.Corrupt _ -> false

let test_roundtrip () =
  let w = Wal.create () in
  List.iter (Wal.append w) (sample_records ());
  let rs, stop = Wal.records w in
  Alcotest.(check bool) "clean" true (is_clean stop);
  Alcotest.(check int) "all records back" 8 (List.length rs);
  (match List.nth rs 0 with
  | Wal.Event e ->
      Alcotest.(check int) "event id" 11 e.Event.id;
      Alcotest.(check string) "event label" "order" e.Event.label;
      Alcotest.(check int) "reception stamp" 15 (Event.time e);
      Alcotest.(check (option int)) "ttl" (Some 110) e.Event.expires_at;
      Alcotest.(check string) "payload" "<order><item>ball</item><qty>2</qty></order>"
        (Xml.to_string (Term.strip_ids e.Event.payload))
  | _ -> Alcotest.fail "expected Event first");
  (match List.nth rs 2 with
  | Wal.Remote_update { from; msg_id; at; update } ->
      Alcotest.(check string) "update origin" "src.example" from;
      Alcotest.(check int) "msg id" 7 msg_id;
      Alcotest.(check int) "reception time" 20 at;
      Alcotest.(check string) "target doc" "/status" (Action.update_doc update)
  | _ -> Alcotest.fail "expected Remote_update third");
  (match List.nth rs 7 with
  | Wal.Snapshot s ->
      Alcotest.(check int) "counters survive" 3 s.Wal.s_event_n;
      Alcotest.(check (list int)) "dedup set" [ 11; 12 ] s.Wal.s_seen;
      Alcotest.(check (list (pair string int))) "update dedup set"
        [ ("src.example", 7) ] s.Wal.s_seen_updates;
      Alcotest.(check int) "tail length" 2 (List.length s.Wal.s_tail)
  | _ -> Alcotest.fail "expected Snapshot last");
  (* bytes survive a save/load cycle untouched *)
  let rs', stop' = Wal.records (Wal.of_string (Wal.contents w)) in
  Alcotest.(check bool) "reload clean" true (is_clean stop');
  Alcotest.(check int) "reload count" 8 (List.length rs')

let test_mark_truncate () =
  let w = Wal.create () in
  Wal.append w (Wal.Advance 1);
  Wal.append w (Wal.Advance 2);
  let m = Wal.mark w in
  Wal.append w (Wal.Advance 3);
  Wal.append w (Wal.Firing { rule = "r"; at = 3 });
  Wal.truncate w m;
  let rs, stop = Wal.records w in
  Alcotest.(check bool) "clean after truncate" true (is_clean stop);
  Alcotest.(check (list int)) "only pre-mark records remain"
    [ 1; 2 ]
    (List.filter_map (function Wal.Advance t -> Some t | _ -> None) rs);
  Alcotest.(check int) "appended tracks truncation" 2 (Wal.appended w)

let test_drop_corrupt_tail () =
  let w = Wal.create () in
  List.iter (Wal.append w) [ Wal.Advance 1; Wal.Advance 2; Wal.Advance 3 ];
  let garbled = Wal.of_string (Wal.contents w ^ "\xde\xad\xbe") in
  (match Wal.records garbled with
  | _, Wal.Clean -> Alcotest.fail "garbage not detected"
  | rs, Wal.Corrupt _ -> Alcotest.(check int) "valid prefix kept" 3 (List.length rs));
  Wal.drop_corrupt_tail garbled;
  Wal.append garbled (Wal.Advance 4);
  let rs, stop = Wal.records garbled in
  Alcotest.(check bool) "appendable again after drop" true (is_clean stop);
  Alcotest.(check (list int)) "prefix + new record"
    [ 1; 2; 3; 4 ]
    (List.filter_map (function Wal.Advance t -> Some t | _ -> None) rs)

(* ---- compaction: frame copies against decode-filter-re-append ------- *)

let pinned (e : Event.t) = String.equal e.Event.label Node.rules_label

(* The reference compaction: decode the whole log, keep the pinned
   events before the last snapshot and everything from it on, and
   re-append them to a fresh log.  A log that cannot be fully read, or
   has no snapshot, stays as it is. *)
let oracle_compact w ~keep =
  match Wal.records w with
  | _, Wal.Corrupt _ -> w
  | rs, Wal.Clean -> (
      let _, last =
        List.fold_left
          (fun (i, last) r -> (i + 1, match r with Wal.Snapshot _ -> Some i | _ -> last))
          (0, None) rs
      in
      match last with
      | None -> w
      | Some cut ->
          let kept =
            List.filteri
              (fun i r -> i >= cut || match r with Wal.Event e -> keep e | _ -> false)
              rs
          in
          let fresh = Wal.create () in
          List.iter (Wal.append fresh) kept;
          fresh)

type log_op = Append of Wal.record | Mark | Truncate | Compact

let record_gen =
  let open QCheck.Gen in
  let small_term =
    map2 (fun l k -> Term.elem l [ Term.int k ]) (oneofl [ "p"; "q"; "row" ]) (int_bound 99)
  in
  let event =
    map3
      (fun label id payload ->
        Wal.Event
          (Event.make ~id ~sender:"s.example" ~recipient:"a.example" ~received_at:(id + 2)
             ~occurred_at:id ~label payload))
      (oneofl [ Node.rules_label; "ping"; "order" ])
      (int_range 1 10_000) small_term
  in
  let snapshot =
    map3
      (fun at store (seen, logs) ->
        Wal.Snapshot
          {
            Wal.s_at = at;
            s_store = Term.elem "store" (List.map (fun k -> Term.elem "d" [ Term.int k ]) store);
            s_event_n = at;
            s_msg_n = 1;
            s_req_n = 0;
            s_firings = List.length logs;
            s_seen = seen;
            s_seen_updates = [ ("s.example", at) ];
            s_logs = logs;
            s_errors = [];
            s_tail = [ Wal.T_advance at ];
          })
      (int_bound 1000)
      (list_size (int_bound 40) (int_bound 999))
      (pair (list_size (int_bound 8) (int_bound 999)) (list_size (int_bound 4) (oneofl [ "x"; "yy" ])))
  in
  frequency
    [
      (4, event);
      ( 2,
        map
          (fun content ->
            Wal.Update (Action.U_insert { doc = "/seen"; selector = []; at = None; content }))
          small_term );
      (2, map (fun at -> Wal.Firing { rule = "count"; at }) (int_bound 1000));
      (1, map (fun at -> Wal.Advance at) (int_bound 1000));
      (1, snapshot);
    ]

let log_ops_arb =
  let open QCheck.Gen in
  QCheck.make
    ~print:(fun ops -> Fmt.str "%d op(s)" (List.length ops))
    (list_size (int_range 1 60)
       (frequency
          [
            (12, map (fun r -> Append r) record_gen);
            (1, return Mark);
            (1, return Truncate);
            (2, return Compact);
          ]))

(* Drive the log and the reference side by side; after every step the
   bytes, the frame counts and the cadence must agree, and a reload of
   the bytes must agree with both.  A mark does not outlive a
   compaction, which moves every frame. *)
let test_compact_oracle =
  QCheck.Test.make ~count:1000 ~name:"compaction copies frames as decode-filter-re-append would"
    log_ops_arb (fun ops ->
      let w = Wal.create () in
      let o = ref (Wal.create ()) in
      let marks = ref None in
      List.iter
        (fun op ->
          (match op with
          | Append r ->
              Wal.append w r;
              Wal.append !o r
          | Mark -> marks := Some (Wal.mark w, Wal.mark !o)
          | Truncate -> (
              match !marks with
              | Some (m, m') ->
                  Wal.truncate w m;
                  Wal.truncate !o m'
              | None -> ())
          | Compact ->
              Wal.compact w ~keep:pinned;
              o := oracle_compact !o ~keep:pinned;
              marks := None);
          let reloaded = Wal.of_string (Wal.contents w) in
          if Wal.contents w <> Wal.contents !o then QCheck.Test.fail_report "bytes differ";
          if Wal.appended w <> Wal.appended !o || Wal.appended w <> Wal.appended reloaded then
            QCheck.Test.fail_reportf "frame counts differ: %d, reference %d, reloaded %d"
              (Wal.appended w) (Wal.appended !o) (Wal.appended reloaded);
          if
            Wal.snapshot_due w <> Wal.snapshot_due !o
            || Wal.snapshot_due w <> Wal.snapshot_due reloaded
          then QCheck.Test.fail_report "cadence differs")
        ops;
      true)

(* a log loaded with a garbage tail is never rewritten — appends keep it
   so — until its corrupt tail is dropped *)
let test_compact_refuses_corrupt () =
  let w = Wal.create () in
  List.iter (Wal.append w) (sample_records ());
  Wal.append w (Wal.Advance 50);
  let garbled = Wal.of_string (Wal.contents w ^ "\xde\xad\xbe") in
  Wal.append garbled (Wal.Advance 60);
  let before = Wal.contents garbled in
  Wal.compact garbled ~keep:pinned;
  Alcotest.(check bool) "corrupt log left as it is" true (Wal.contents garbled = before);
  Wal.drop_corrupt_tail garbled;
  Alcotest.(check bool) "valid prefix kept" true (Wal.contents garbled = Wal.contents w);
  Wal.compact garbled ~keep:pinned;
  let rs, stop = Wal.records garbled in
  Alcotest.(check bool) "clean" true (is_clean stop);
  Alcotest.(check int) "cut at the snapshot" 2 (List.length rs);
  Alcotest.(check int) "frame count follows" 2 (Wal.appended garbled);
  Alcotest.(check bool) "snapshot first" true
    (match rs with Wal.Snapshot _ :: _ -> true | _ -> false)

(* ---- frame checksum: the standard CRC-32 check values ---------------- *)

let test_crc32_vectors () =
  List.iter
    (fun (s, want) -> Alcotest.(check int32) (Printf.sprintf "crc32 %S" s) want (Wal.crc32 s))
    [
      ("", 0l);
      ("123456789", 0xCBF43926l);
      ("The quick brown fox jumps over the lazy dog", 0x414FA339l);
    ]

(* ---- corruption corpus pins ----------------------------------------- *)

(* cwd is test/ under `dune runtest`, the workspace root under
   `dune exec test/main.exe` *)
let corpus name =
  let local = Filename.concat "corpus" name in
  if Sys.file_exists local then local else Filename.concat "test/corpus" name

let load name =
  match Wal.of_file (corpus name) with
  | Ok w -> w
  | Error e -> Alcotest.fail (name ^ ": " ^ e)

let stop_reason = function Wal.Clean -> "clean" | Wal.Corrupt r -> r

let check_corpus name ~records:n ~reason =
  let rs, stop = Wal.records (load name) in
  Alcotest.(check int) (name ^ ": record count") n (List.length rs);
  let r = stop_reason stop in
  Alcotest.(check bool)
    (Fmt.str "%s: stop reason %S starts with %S" name r reason)
    true
    (String.length r >= String.length reason && String.sub r 0 (String.length reason) = reason)

let test_corpus_pins () =
  check_corpus "base.wal" ~records:6 ~reason:"clean";
  check_corpus "truncated_tail.wal" ~records:6 ~reason:"truncated tail";
  check_corpus "torn_write.wal" ~records:6 ~reason:"torn write";
  check_corpus "bit_flip.wal" ~records:5 ~reason:"checksum mismatch"

let test_corpus_replay () =
  (* physical redo over the valid corpus prefix applies cleanly and
     never raises, corrupt tails included *)
  List.iter
    (fun name ->
      let store = Store.create () in
      Store.add_doc store "/orders" (Term.elem ~ord:Term.Unordered "orders" []);
      Store.add_doc store "/status" (Term.elem "doc" [ Term.elem "state" [ Term.text "new" ] ]);
      match Wal.replay_store (load name) store with
      | Ok n -> Alcotest.(check bool) (name ^ ": some mutations applied") true (n >= 1)
      | Error e -> Alcotest.fail (name ^ ": replay failed: " ^ e))
    [ "base.wal"; "truncated_tail.wal"; "torn_write.wal"; "bit_flip.wal" ]

(* ---- transactional updates ------------------------------------------ *)

let test_apply_txn () =
  let store = Store.create () in
  Store.add_doc store "/a" (Term.elem ~ord:Term.Unordered "a" []);
  Store.add_doc store "/b" (Term.elem ~ord:Term.Unordered "b" []);
  let ins doc = Action.U_insert { doc; selector = []; at = None; content = Term.elem "x" [] } in
  (match Store.apply_txn store [ ins "/a"; ins "/b"; ins "/a" ] with
  | Ok (n, _) -> Alcotest.(check int) "all three applied" 3 n
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "a has both" 2
    (List.length (Term.children (Option.get (Store.doc store "/a"))));
  (* second mutation fails: nothing of the block survives *)
  (match Store.apply_txn store [ ins "/a"; ins "/missing" ] with
  | Ok _ -> Alcotest.fail "expected rollback"
  | Error _ -> ());
  Alcotest.(check int) "a rolled back" 2
    (List.length (Term.children (Option.get (Store.doc store "/a"))));
  Alcotest.(check int) "b untouched" 1
    (List.length (Term.children (Option.get (Store.doc store "/b"))))

(* the static guard: a transactional block whose constant targets span
   several hosts can never be atomic — Ruleset.validate rejects it at
   engine construction, procedure calls included *)
let test_static_cross_node_atomic () =
  (* two *explicit* hosts: provably cross-node whatever node loads the
     rule set.  (A bare "/local" target means "whoever loads me" — that
     mix is only decidable at run time, by ops.txn_update.) *)
  let atomic_two =
    Action.atomic
      [
        Action.insert ~doc:"one.example/a" (Construct.cel "x" []);
        Action.insert ~doc:"two.example/b" (Construct.cel "x" []);
      ]
  in
  let rs name action =
    Ruleset.make ~rules:[ Eca.make ~name:"r" ~on:(Event_query.on ~label:"t" (Qterm.var "E")) action ] name
  in
  let has_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  (match node ~host:"a.example" (rs "bad" atomic_two) with
  | Ok _ -> Alcotest.fail "cross-node atomic accepted"
  | Error e ->
      Alcotest.(check bool) ("mentions several nodes: " ^ e) true (has_sub e "several nodes"));
  (* single-host block with several docs is fine *)
  let atomic_local =
    Action.atomic
      [
        Action.insert ~doc:"/one" (Construct.cel "x" []);
        Action.insert ~doc:"/two" (Construct.cel "x" []);
      ]
  in
  (match node ~host:"a.example" (rs "good" atomic_local) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("single-host atomic rejected: " ^ e));
  (* the check follows procedure calls *)
  let via_proc =
    Ruleset.make
      ~procedures:
        [
          ( "mirror",
            {
              Action.params = [];
              body = Action.insert ~doc:"other.example/mirror" (Construct.cel "x" []);
            } );
        ]
      ~rules:
        [
          Eca.make ~name:"r"
            ~on:(Event_query.on ~label:"t" (Qterm.var "E"))
            (Action.atomic
               [
                 Action.insert ~doc:"one.example/local" (Construct.cel "x" []);
                 Action.call "mirror" [];
               ]);
        ]
      "via_proc"
  in
  match node ~host:"a.example" via_proc with
  | Ok _ -> Alcotest.fail "cross-node atomic through a procedure accepted"
  | Error _ -> ()

(* the dynamic guard: a variable target that resolves to a remote store
   at run time slips past the static check; ops.txn_update must reject
   it and the whole block must roll back (including the local insert
   that already applied) *)
let test_runtime_cross_node_atomic () =
  let rules =
    Ruleset.make
      ~rules:
        [
          Eca.make ~name:"mix"
            ~on:(Event_query.on ~label:"go" (Qterm.el "go" [ Qterm.pos (Qterm.el "target" [ Qterm.pos (Qterm.var "D") ]) ]))
            (Action.atomic
               [
                 Action.insert ~doc:"/local" (Construct.cel "x" []);
                 Action.Insert
                   { doc = Builtin.ovar "D"; selector = []; at = None; content = Construct.cel "y" [] };
               ]);
        ]
      "dyn"
  in
  let n = node_exn ~host:"a.example" rules in
  Store.add_doc (Node.store n) "/local" (Term.elem ~ord:Term.Unordered "local" []);
  let net = Network.create () in
  Network.add_node_exn net n;
  Network.add_node_exn net (node_exn ~accept_updates:true ~host:"b.example" (Ruleset.make "b"));
  Network.inject net ~to_:"a.example" ~label:"go"
    (Term.elem "go" [ Term.elem "target" [ Term.text "b.example/mirror" ] ]);
  ignore (Network.run_until_quiet net ());
  Alcotest.(check int) "local insert rolled back" 0
    (List.length (Term.children (Option.get (Store.doc (Node.store n) "/local"))));
  Alcotest.(check bool) "transaction failure recorded" true (Node.errors n <> []);
  Alcotest.(check int) "no update shipped" 0 (Network.transport_stats net).Transport.updates

(* ---- node checkpoint / crash / recover ------------------------------ *)

let counting_rules =
  Ruleset.make
    ~rules:
      [
        Eca.make ~name:"count"
          ~on:(Event_query.on ~label:"ping" (Qterm.var "E"))
          (Action.seq
             [
               Action.insert ~doc:"/seen" (Construct.cel "x" [ Construct.cvar "E" ]);
               Action.log "ping %s" [ Builtin.ovar "E" ];
             ]);
      ]
    "counting"

let snapshots n =
  int_of_float (Obs.Metrics.total (Obs.Metrics.snapshot (Node.metrics n)) "wal.snapshots")

let test_node_recover_identity () =
  if Escape.no_wal then () (* amnesic hatch: nothing to recover from *)
  else begin
    Event.reset_ids ();
    Message.reset_ids ();
    let n = node_exn ~host:"a.example" counting_rules in
    Store.add_doc (Node.store n) "/seen" (Term.elem ~ord:Term.Unordered "seen" []);
    Node.checkpoint n ~at:Clock.origin (* genesis: provisioned docs predate the log *);
    let net = Network.create () in
    Network.add_node_exn net n;
    for i = 1 to 7 do
      Network.run net ~until:(i * 10);
      Network.inject net ~to_:"a.example" ~label:"ping" (Term.elem "p" [ Term.int i ])
    done;
    ignore (Network.run_until_quiet net ());
    let doc () = Xml.to_string (Term.strip_ids (Option.get (Store.doc (Node.store n) "/seen"))) in
    let before = (Node.firings n, Node.logs n, doc ()) in
    Alcotest.(check bool) "wal live" true (Node.wal n <> None);
    Alcotest.(check bool) "automatic snapshots before the crash" true (snapshots n > 1);
    Node.crash n;
    Alcotest.(check int) "crash wipes volatile state" 0 (Node.firings n);
    Alcotest.(check (list string)) "crash wipes logs" [] (Node.logs n);
    (match Node.recover n (Network.context_for net n) with
    | Ok replayed -> Alcotest.(check bool) "some records replayed" true (replayed >= 0)
    | Error e -> Alcotest.fail ("recover: " ^ e));
    let after = (Node.firings n, Node.logs n, doc ()) in
    let f0, l0, d0 = before and f1, l1, d1 = after in
    Alcotest.(check int) "firings recovered" f0 f1;
    Alcotest.(check (list string)) "logs recovered" l0 l1;
    Alcotest.(check string) "store recovered" d0 d1;
    (* redelivering an already-processed event is a dedup hit, not a replay *)
    let dups0 = Node.duplicate_events n in
    let ev = Event.make ~id:max_int ~occurred_at:100 ~label:"ping" (Term.elem "p" [ Term.int 1 ]) in
    ignore (Node.receive_event n (Network.context_for net n) ev);
    ignore (Node.receive_event n (Network.context_for net n) ev);
    Alcotest.(check int) "second delivery deduplicated" (dups0 + 1) (Node.duplicate_events n)
  end

(* ---- snapshot cost bound -------------------------------------------- *)

(* The cadence snapshots once the frames logged since the last snapshot
   reach its size, so every snapshot but the last is paid for by as
   many bytes of other frames: snapshot bytes stay within the rest of
   the log plus the last snapshot, however long the node runs. *)
let test_snapshot_cost_bound () =
  if Escape.no_wal then ()
  else begin
    Event.reset_ids ();
    Message.reset_ids ();
    let n = node_exn ~host:"a.example" counting_rules in
    Store.add_doc (Node.store n) "/seen" (Term.elem ~ord:Term.Unordered "seen" []);
    Node.checkpoint n ~at:Clock.origin;
    let net = Network.create () in
    Network.add_node_exn net n;
    for i = 1 to 600 do
      Network.run net ~until:(i * 10);
      for j = 1 to 10 do
        Network.inject net ~to_:"a.example" ~label:"ping" (Term.elem "p" [ Term.int ((10 * i) + j) ])
      done
    done;
    ignore (Network.run_until_quiet net ());
    Alcotest.(check int) "every event fired" 6000 (Node.firings n);
    let total = Obs.Metrics.total (Obs.Metrics.snapshot (Node.metrics n)) in
    let snapshot_bytes = total "wal.snapshot_bytes" and appended = total "wal.appended_bytes" in
    let last =
      match
        List.find_opt
          (function Wal.Snapshot _ -> true | _ -> false)
          (List.rev (fst (Wal.records (Option.get (Node.wal n)))))
      with
      | Some r ->
          let w = Wal.create () in
          Wal.append w r;
          float_of_int (Wal.size_bytes w)
      | None -> Alcotest.fail "no snapshot in the log"
    in
    Alcotest.(check bool)
      (Fmt.str "snapshot bytes %.0f <= other bytes %.0f + last snapshot %.0f" snapshot_bytes
         (appended -. snapshot_bytes) last)
      true
      (snapshot_bytes <= appended -. snapshot_bytes +. last)
  end

(* ---- crash-injection differential ----------------------------------- *)

(* Three hosts: a source fans numbered ticks to a worker; the worker
   records each job, keeps a count-based aggregation window (composite
   event state — exactly what the snapshot tail must re-prime), mirrors
   a record into the sink's store by remote update, and notifies the
   sink; the sink logs and records each notification.  We kill one host
   mid-flight, recover it from its WAL, and require convergence with
   the uninterrupted oracle. *)

let src_prog =
  {|ruleset src {
      rule emit: on tick{{value[var V]}}
        do { insert into "/sent" s[$V];
             raise to "mid.example" job job[value[$V]] }
    }|}

let mid_prog =
  {|ruleset mid {
      rule take: on job{{value[var V]}}
        do { insert into "/jobs" j[$V];
             insert into "sink.example/mirror" m[$V];
             raise to "sink.example" fin fin[value[$V]] }
      rule window: on avg($V) last 2 {job{{value[var V]}}} as A
        do insert into "/pairs" p[$A]
    }|}

let sink_prog =
  {|ruleset sink {
      rule seen: on fin{{value[var V]}}
        do { log "fin %s", $V; insert into "/seen" x[$V] }
    }|}

type obs = {
  o_clock : Clock.time;
  o_hosts : (string * int * string list) list;  (** host, firings, logs *)
  o_stores : (string * string) list;  (** (host/doc, xml, surrogate ids stripped) *)
}

let observe net nodes =
  {
    o_clock = Network.clock net;
    o_hosts = List.map (fun n -> (Node.host n, Node.firings n, Node.logs n)) nodes;
    o_stores =
      List.concat_map
        (fun n ->
          let store = Node.store n in
          List.map
            (fun d ->
              (Node.host n ^ d, Xml.to_string (Term.strip_ids (Option.get (Store.doc store d)))))
            (List.sort compare (Store.doc_names store)))
        nodes;
  }

(* messages held at a dead host's door are redelivered at recovery time,
   so reception *instants* legitimately differ from the oracle's; the
   converged quantities are contents, not timings — compare stores with
   children canonically ordered and logs as multisets *)
let canon_store (name, xml) =
  let t = Xml.parse_exn xml in
  let kids = List.sort compare (List.map Xml.to_string (Term.children t)) in
  (name, String.concat "|" kids)

let check_converged label (oracle : obs) (crashed : obs) =
  List.iter2
    (fun (h, f, logs) (h', f', logs') ->
      Alcotest.(check string) (label ^ ": host") h h';
      Alcotest.(check int) (label ^ ": " ^ h ^ " firings") f f';
      Alcotest.(check (list string))
        (label ^ ": " ^ h ^ " logs")
        (List.sort compare logs) (List.sort compare logs'))
    oracle.o_hosts crashed.o_hosts;
  Alcotest.(check (list (pair string string)))
    (label ^ ": stores")
    (List.map canon_store oracle.o_stores)
    (List.map canon_store crashed.o_stores)

(* sharded and sequential crashed runs must agree *exactly* — crash and
   recovery occurrences live on the owning partition's timeline *)
let check_identical label (a : obs) (b : obs) =
  Alcotest.(check int) (label ^ ": clock") a.o_clock b.o_clock;
  List.iter2
    (fun (h, f, logs) (h', f', logs') ->
      Alcotest.(check string) (label ^ ": host") h h';
      Alcotest.(check int) (label ^ ": " ^ h ^ " firings") f f';
      Alcotest.(check (list string)) (label ^ ": " ^ h ^ " logs") logs logs')
    a.o_hosts b.o_hosts;
  Alcotest.(check (list (pair string string))) (label ^ ": stores") a.o_stores b.o_stores

(* [checkpoints]: ticks after which every live node also checkpoints,
   so recovery starts from other snapshot/suffix splits.  Returns the
   victim's automatic snapshots seen before its crash (the last tick
   read before it), besides the observation and the crash counts. *)
let run_crash_scenario ?(checkpoints = []) ~domains ~faulty ~crash () =
  Event.reset_ids ();
  Message.reset_ids ();
  let faults =
    if faulty then
      Transport.fault_profile ~seed:11 ~drop_rate:0.1 ~dup_rate:0.12 ~max_jitter:4 ()
    else Transport.no_faults
  in
  let net = Network.create ~faults ~domains () in
  let mk host prog extra =
    match node_of_program ?accept_updates:extra ~host prog with
    | Ok n -> n
    | Error e -> Alcotest.fail (host ^ ": " ^ e)
  in
  let src = mk "src.example" src_prog None in
  let mid = mk "mid.example" mid_prog None in
  let sink = mk "sink.example" sink_prog (Some true) in
  Store.add_doc (Node.store src) "/sent" (Term.elem ~ord:Term.Unordered "sent" []);
  Store.add_doc (Node.store mid) "/jobs" (Term.elem ~ord:Term.Unordered "jobs" []);
  Store.add_doc (Node.store mid) "/pairs" (Term.elem ~ord:Term.Unordered "pairs" []);
  Store.add_doc (Node.store sink) "/mirror" (Term.elem ~ord:Term.Unordered "mirror" []);
  Store.add_doc (Node.store sink) "/seen" (Term.elem ~ord:Term.Unordered "seen" []);
  let nodes = [ src; mid; sink ] in
  (* genesis checkpoints: out-of-band provisioning predates the log *)
  List.iter (fun n -> Node.checkpoint n ~at:Clock.origin) nodes;
  List.iter (Network.add_node_exn net) nodes;
  (match crash with
  | None -> ()
  | Some (host, at, recover_at) -> Network.schedule_crash net ~host ~at ~recover_at ());
  let taken = ref 1 (* the genesis checkpoint *) and automatic = ref 0 in
  for i = 1 to 12 do
    Network.run net ~until:(i * 10);
    (match crash with
    | Some (host, at, _) when i * 10 < at ->
        automatic := snapshots (List.find (fun n -> Node.host n = host) nodes) - !taken
    | _ -> ());
    if List.mem i checkpoints then begin
      List.iter (fun n -> Node.checkpoint n ~at:(Network.clock net)) nodes;
      incr taken
    end;
    Network.inject net ~to_:"src.example" ~label:"tick"
      (Term.elem "tick" [ Term.elem "value" [ Term.num (float_of_int i) ] ])
  done;
  ignore (Network.run_until_quiet net ());
  (observe net nodes, Network.crashes net, Network.recoveries net, !automatic)

let test_crash_differential ~faulty ~victim () =
  let crash = Some (victim, 57, 83) in
  (* crashed sequential vs crashed sharded: bit-identical *)
  let seq, c1, r1, automatic = run_crash_scenario ~domains:1 ~faulty ~crash () in
  Alcotest.(check int) "one crash" 1 c1;
  Alcotest.(check int) "one recovery" 1 r1;
  if not Escape.no_wal then
    Alcotest.(check bool)
      (Fmt.str "automatic snapshots before the crash (%d)" automatic)
      true (automatic >= 1);
  let par, _, _, _ = run_crash_scenario ~domains:4 ~faulty ~crash () in
  check_identical (victim ^ " domains=4") seq par;
  (* crashed vs the uninterrupted oracle: converged — only meaningful
     when the WAL is live; under XCHANGE_NO_WAL the same schedule
     exercises amnesic reboot (no convergence claim, but no wreckage
     either: the runs above must already have completed cleanly) *)
  if not Escape.no_wal then begin
    let oracle, c0, _, _ = run_crash_scenario ~domains:1 ~faulty ~crash:None () in
    Alcotest.(check int) "oracle saw no crash" 0 c0;
    check_converged (victim ^ " vs oracle") oracle seq
  end

(* the worker holds composite-event window state and outbound effects *)
let test_crash_mid_clean () = test_crash_differential ~faulty:false ~victim:"mid.example" ()
let test_crash_mid_faulty () = test_crash_differential ~faulty:true ~victim:"mid.example" ()

(* the sink exercises the Remote_update log path on recovery *)
let test_crash_sink_clean () = test_crash_differential ~faulty:false ~victim:"sink.example" ()
let test_crash_sink_faulty () = test_crash_differential ~faulty:true ~victim:"sink.example" ()

(* property: convergence holds for *arbitrary* crash/recovery instants
   and checkpoint schedules, not just the hand-picked ones above *)
let crash_times_arb =
  QCheck.make
    ~print:(fun (a, d, cps) ->
      Fmt.str "crash_at=%d recover_after=%d checkpoints=[%a]" a d Fmt.(list ~sep:semi int) cps)
    QCheck.Gen.(triple (int_range 5 110) (int_range 3 50) (list_size (int_bound 4) (int_range 1 12)))

let test_crash_property =
  QCheck.Test.make ~count:6 ~name:"recovery converges for arbitrary crash times" crash_times_arb
    (fun (at, delta, checkpoints) ->
      if Escape.no_wal then true
      else begin
        let crash = Some ("mid.example", at, at + delta) in
        let crashed, c, r, _ = run_crash_scenario ~checkpoints ~domains:1 ~faulty:false ~crash () in
        let oracle, _, _, _ =
          run_crash_scenario ~checkpoints ~domains:1 ~faulty:false ~crash:None ()
        in
        check_converged (Fmt.str "crash@%d+%d" at delta) oracle crashed;
        c = 1 && r = 1
      end)

let suite =
  ( "wal",
    [
      Alcotest.test_case "codec roundtrip" `Quick test_roundtrip;
      Alcotest.test_case "mark/truncate rollback" `Quick test_mark_truncate;
      Alcotest.test_case "drop_corrupt_tail" `Quick test_drop_corrupt_tail;
      QCheck_alcotest.to_alcotest test_compact_oracle;
      Alcotest.test_case "corrupt log not compacted until its tail is dropped" `Quick
        test_compact_refuses_corrupt;
      Alcotest.test_case "crc32 standard check values" `Quick test_crc32_vectors;
      Alcotest.test_case "corruption corpus pins" `Quick test_corpus_pins;
      Alcotest.test_case "corpus replay never raises" `Quick test_corpus_replay;
      Alcotest.test_case "store transactions roll back" `Quick test_apply_txn;
      Alcotest.test_case "static cross-node atomic rejected" `Quick test_static_cross_node_atomic;
      Alcotest.test_case "runtime cross-node atomic rolls back" `Quick test_runtime_cross_node_atomic;
      Alcotest.test_case "crash/recover restores the node exactly" `Quick test_node_recover_identity;
      Alcotest.test_case "snapshot bytes bounded by logged bytes" `Quick test_snapshot_cost_bound;
      Alcotest.test_case "crash differential: worker (clean)" `Quick test_crash_mid_clean;
      Alcotest.test_case "crash differential: worker (faulty)" `Quick test_crash_mid_faulty;
      Alcotest.test_case "crash differential: sink (clean)" `Quick test_crash_sink_clean;
      Alcotest.test_case "crash differential: sink (faulty)" `Quick test_crash_sink_faulty;
      QCheck_alcotest.to_alcotest test_crash_property;
    ] )
