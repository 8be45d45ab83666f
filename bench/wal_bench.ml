(* Durability benchmarks: write-ahead-log append / decode / physical-
   redo replay throughput, plus end-to-end node recovery (crash + WAL
   replay through the engine).  Before timing, the recovered node is
   asserted identical to its pre-crash self — the differential contract
   test/test_wal.ml drives in anger.  The node snapshots on its own
   cadence, so recovery starts from a snapshot plus the suffix logged
   since.  Prints a table and emits machine-readable BENCH_wal.json
   (the phase timings and the node's [snapshot_bytes] are gated by
   bench/check_regression.ml).

   Under XCHANGE_NO_WAL nodes are amnesic: the codec phases still run
   (the log device itself has no hatch), the recovery phase degrades to
   a no-op and the artifact records [wal_enabled]: false. *)

open Xchange

let wall_ms f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.)

(* ---- codec workload: alternating event and mutation records ----

   Mutations rotate over [docs] target documents so the redo phase
   measures the WAL replay path, not the asymptotics of appending ever
   more children into one growing term. *)

let docs = 32
let doc_name i = Printf.sprintf "/orders-%d" (i mod docs)

let mk_records n =
  List.init n (fun i ->
      if i mod 2 = 0 then
        Wal.Event
          (Event.make ~id:(i + 1) ~sender:"src.example" ~recipient:"a.example"
             ~received_at:(i + 5) ~occurred_at:i ~label:"order"
             (Term.elem "order"
                [ Term.elem "item" [ Term.text "ball" ]; Term.elem "qty" [ Term.int i ] ]))
      else
        Wal.Update
          (Action.U_insert
             { doc = doc_name i; selector = []; at = None; content = Term.elem "row" [ Term.int i ] }))

(* ---- recovery workload: a live node killed and replayed ---- *)

let counting_rules =
  Ruleset.make
    ~rules:
      [
        Eca.make ~name:"count"
          ~on:(Event_query.on ~label:"ping" (Qterm.var "E"))
          (Action.insert ~doc:"/seen" (Construct.cel "x" [ Construct.cvar "E" ]));
      ]
    "counting"

let run_recovery ~events =
  Event.reset_ids ();
  Message.reset_ids ();
  let n = node_exn ~host:"a.example" counting_rules in
  Store.add_doc (Node.store n) "/seen" (Term.elem ~ord:Term.Unordered "seen" []);
  Node.checkpoint n ~at:Clock.origin;
  let net = Network.create () in
  Network.add_node_exn net n;
  for i = 1 to events / 10 do
    Network.run net ~until:(i * 10);
    for j = 1 to 10 do
      Network.inject net ~to_:"a.example" ~label:"ping" (Term.elem "p" [ Term.int ((10 * i) + j) ])
    done
  done;
  ignore (Network.run_until_quiet net ());
  let doc () = Xml.to_string (Term.strip_ids (Option.get (Store.doc (Node.store n) "/seen"))) in
  let firings0 = Node.firings n and doc0 = doc () in
  let snapshot_bytes =
    int_of_float (Obs.Metrics.total (Obs.Metrics.snapshot (Node.metrics n)) "wal.snapshot_bytes")
  in
  Node.crash n;
  let replayed, ms =
    wall_ms (fun () ->
        match Node.recover n (Network.context_for net n) with
        | Ok r -> r
        | Error e -> failwith ("wal bench: recover failed: " ^ e))
  in
  (* differential pin before the number is reported *)
  if not Escape.no_wal then begin
    if Node.firings n <> firings0 then
      failwith
        (Printf.sprintf "wal bench: recovery diverged (%d firings vs %d)" (Node.firings n)
           firings0);
    if doc () <> doc0 then failwith "wal bench: recovered store differs from pre-crash store"
  end;
  (replayed, ms, snapshot_bytes)

(* ---- JSON emission (hand-rolled; no deps) ---- *)

let obj fields = "{" ^ String.concat ", " fields ^ "}"
let fi k v = Printf.sprintf "%S: %d" k v
let ff k v = Printf.sprintf "%S: %.3f" k v
let fb k v = Printf.sprintf "%S: %s" k (string_of_bool v)

let per_sec n ms = float_of_int n /. Float.max (ms /. 1000.) 1e-6

let run ~smoke () =
  let n_records, events = if smoke then (4000, 600) else (80_000, 6000) in
  Fmt.pr "@.# Durability (write-ahead log) benchmarks%s@." (if smoke then " (smoke)" else "");
  let rs = mk_records n_records in
  let w = Wal.create () in
  let (), append_ms = wall_ms (fun () -> List.iter (Wal.append w) rs) in
  let bytes = Wal.size_bytes w in
  let reloaded = Wal.of_string (Wal.contents w) in
  let decoded, decode_ms = wall_ms (fun () -> Wal.records reloaded) in
  (match decoded with
  | ds, Wal.Clean when List.length ds = n_records -> ()
  | ds, Wal.Clean ->
      failwith (Printf.sprintf "wal bench: decoded %d of %d records" (List.length ds) n_records)
  | _, Wal.Corrupt e -> failwith ("wal bench: clean log decoded as corrupt: " ^ e));
  let store = Store.create () in
  for i = 0 to docs - 1 do
    Store.add_doc store (doc_name i) (Term.elem ~ord:Term.Unordered "orders" [])
  done;
  let replayed_updates, replay_ms =
    wall_ms (fun () ->
        match Wal.replay_store reloaded store with
        | Ok n -> n
        | Error e -> failwith ("wal bench: replay_store failed: " ^ e))
  in
  if replayed_updates <> n_records / 2 then
    failwith
      (Printf.sprintf "wal bench: replayed %d of %d mutations" replayed_updates (n_records / 2));
  let recovered, recover_ms, snapshot_bytes = run_recovery ~events in
  Util.print_table
    ~title:
      (Printf.sprintf "%d-record log (%d KiB), %d-event node recovery" n_records (bytes / 1024)
         events)
    ~header:[ "phase"; "wall ms"; "records/s" ]
    [
      [ "append"; Util.f1 append_ms; Util.si (int_of_float (per_sec n_records append_ms)) ];
      [ "decode"; Util.f1 decode_ms; Util.si (int_of_float (per_sec n_records decode_ms)) ];
      [ "replay (redo)"; Util.f1 replay_ms; Util.si (int_of_float (per_sec replayed_updates replay_ms)) ];
      [ "recover (node)"; Util.f1 recover_ms; Util.si (int_of_float (per_sec (max recovered 1) recover_ms)) ];
    ];
  let json =
    obj
      [
        fb "smoke" smoke;
        fb "wal_enabled" (not Escape.no_wal);
        fi "records" n_records;
        fi "events" events;
        fi "bytes" bytes;
        ff "append_ms" append_ms;
        ff "decode_ms" decode_ms;
        ff "replay_ms" replay_ms;
        ff "recover_ms" recover_ms;
        fi "updates_replayed" replayed_updates;
        fi "records_recovered" recovered;
        fi "snapshot_bytes" snapshot_bytes;
        ff "replay_updates_per_sec" (per_sec replayed_updates replay_ms);
        ff "decode_records_per_sec" (per_sec n_records decode_ms);
      ]
  in
  let oc = open_out "BENCH_wal.json" in
  output_string oc (json ^ "\n");
  close_out oc;
  Fmt.pr "@.wrote BENCH_wal.json@."
