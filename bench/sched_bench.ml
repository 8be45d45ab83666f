(* Scheduler / faulty-network benchmarks: the same reactive workload
   (remote-condition probes + a push pipeline + a poller, all on the one
   discrete-event timeline) replayed under several fault profiles.
   Prints a table and emits machine-readable BENCH_sched.json with the
   traffic and latency accounting per profile.  [~smoke] runs a fast
   subset (wired into `dune runtest`). *)

open Xchange

type profile = {
  pname : string;
  faults : Transport.faults;
}

let profiles =
  [
    { pname = "clean"; faults = Transport.no_faults };
    { pname = "lossy-10"; faults = Transport.fault_profile ~seed:1 ~drop_rate:0.1 () };
    {
      pname = "chaotic";
      faults = Transport.fault_profile ~seed:2 ~drop_rate:0.15 ~dup_rate:0.15 ~max_jitter:25 ();
    };
  ]

let probe_rules () =
  Ruleset.make
    ~rules:
      [
        Eca.make ~name:"check" ~on:(Event_query.on ~label:"probe" (Qterm.var "E"))
          ~if_:
            (Condition.In
               ( Condition.Remote "data.example/catalog",
                 Qterm.el "product" [ Qterm.pos (Qterm.var "P") ] ))
          (Action.insert ~doc:"/hits" (Construct.cel "hit" [ Construct.cvar "P" ]));
      ]
    "asker"

let forward_rules () =
  Ruleset.make
    ~rules:
      [
        Eca.make ~name:"fwd"
          ~on:(Event_query.on ~label:"order" (Qterm.var "E"))
          (Action.raise_event ~to_:"sink.example" ~label:"pick" (Construct.cel "pick" []));
      ]
    "shop"

type row = {
  r_profile : string;
  r_probes : int;
  r_reactions : int;
  r_messages : int;
  r_bytes : int;
  r_dropped : int;
  r_duplicated : int;
  r_retries : int;
  r_timeouts : int;
  r_mean_rtt : float;
  r_max_rtt : int;
  r_clock : int;
  r_occurrences : int;
  r_max_queue : int;
}

let run_profile ~probes ~orders p =
  (* fault coins hash message ids: reset counters so each profile sees
     the same id stream and runs are replayable in isolation *)
  Message.reset_ids ();
  Event.reset_ids ();
  (* one partition: [sched.max_queue] sums across partitions in a
     merged snapshot, and this records one timeline's high-water mark *)
  let net = Network.create ~faults:p.faults ~domains:1 () in
  let asker = node_exn ~host:"asker.example" (probe_rules ()) in
  Store.add_doc (Node.store asker) "/hits" (Term.elem ~ord:Term.Unordered "hits" []);
  let data = node_exn ~host:"data.example" (Ruleset.make "data") in
  Store.add_doc (Node.store data) "/catalog"
    (Term.elem ~ord:Term.Unordered "catalog" [ Term.elem "product" [ Term.text "ball" ] ]);
  let shop = node_exn ~host:"shop.example" (forward_rules ()) in
  let sink = node_exn ~host:"sink.example" (Ruleset.make "sink") in
  List.iter (Network.add_node_exn net) [ asker; data; shop; sink ];
  ignore (Poll.attach net ~poller:"sink.example" ~target:"data.example/catalog" ~period:50);
  for i = 1 to probes do
    Network.inject net ~to_:"asker.example" ~label:"probe" (Term.int i)
  done;
  for i = 1 to orders do
    Network.inject net ~to_:"shop.example" ~label:"order" (Term.int i)
  done;
  (* a fixed observation window so the (non-holding) poll ticker gets
     its rounds in, then drain the in-flight tail *)
  Network.run net ~until:300;
  let clock = Network.run_until_quiet net ~limit:2_000 () in
  let s = Network.transport_stats net in
  let m = Network.metrics_snapshot net in
  let cell name = int_of_float (Obs.Metrics.total m name) in
  let at_asker name = Obs.Metrics.find m ~labels:[ ("host", "asker.example") ] name in
  let count name = match at_asker name with Some (Obs.Metrics.Int n) -> n | _ -> 0 in
  let completed, rtt_total, rtt_max =
    match at_asker "node.fetch_rtt_ms" with
    | Some (Obs.Metrics.Summary { count; sum; max; _ }) -> (count, sum, max)
    | _ -> (0, 0., 0.)
  in
  let reactions =
    List.length (Term.children (Option.get (Store.doc (Node.store asker) "/hits")))
  in
  {
    r_profile = p.pname;
    r_probes = probes;
    r_reactions = reactions;
    r_messages = s.Transport.messages;
    r_bytes = s.Transport.bytes;
    r_dropped = s.Transport.dropped;
    r_duplicated = s.Transport.duplicated;
    r_retries = count "node.fetch_retries";
    r_timeouts = count "node.fetch_timeouts";
    r_mean_rtt = (if completed = 0 then 0. else rtt_total /. float_of_int completed);
    r_max_rtt = int_of_float rtt_max;
    r_clock = clock;
    r_occurrences = cell "sched.executed";
    r_max_queue = cell "sched.max_queue";
  }

(* ---- JSON emission (hand-rolled; no deps) ---- *)

let obj fields = "{" ^ String.concat ", " fields ^ "}"
let arr elems = "[" ^ String.concat ", " elems ^ "]"
let fi k v = Printf.sprintf "%S: %d" k v
let ff k v = Printf.sprintf "%S: %.3f" k v
let fs k v = Printf.sprintf "%S: %S" k v

let run ~smoke () =
  let probes, orders = if smoke then (25, 25) else (400, 400) in
  Obs.Profile.reset ();
  Fmt.pr "@.# Scheduler / degraded-network benchmarks%s@." (if smoke then " (smoke)" else "");
  let rows =
    List.map
      (fun p ->
        let row, ms = Util.time_ms (fun () -> run_profile ~probes ~orders p) in
        (* wall time of the whole replay, virtual time it simulated *)
        Obs.Profile.record ~vt_span:row.r_clock ~name:("profile:" ^ p.pname) ~wall_ms:ms ();
        row)
      profiles
  in
  (* under loss, reactions may trail probes (a condition answered "no
     document" after retries is an honest degraded answer, not a bug);
     the clean profile must react to every probe *)
  (match List.find_opt (fun r -> r.r_profile = "clean") rows with
  | Some r when r.r_reactions <> probes ->
      failwith
        (Printf.sprintf "sched bench: clean profile reacted %d/%d" r.r_reactions probes)
  | _ -> ());
  Util.print_table
    ~title:
      (Printf.sprintf
         "one timeline, %d remote-condition probes + %d pushed orders + a 50ms poller" probes
         orders)
    ~header:
      [
        "profile"; "reactions"; "messages"; "bytes"; "dropped"; "dup"; "retries"; "timeouts";
        "mean rtt ms"; "max rtt"; "sim ms"; "occurrences"; "max queue";
      ]
    (List.map
       (fun r ->
         [
           r.r_profile; Printf.sprintf "%d/%d" r.r_reactions r.r_probes; Util.si r.r_messages;
           Util.si r.r_bytes; string_of_int r.r_dropped; string_of_int r.r_duplicated;
           string_of_int r.r_retries; string_of_int r.r_timeouts; Util.f1 r.r_mean_rtt;
           string_of_int r.r_max_rtt; string_of_int r.r_clock; Util.si r.r_occurrences;
           string_of_int r.r_max_queue;
         ])
       rows);
  let json =
    obj
      [
        Printf.sprintf "%S: %s" "smoke" (string_of_bool smoke);
        fi "probes" probes;
        fi "orders" orders;
        Printf.sprintf "%S: %s" "profiles"
          (arr
             (List.map
                (fun r ->
                  obj
                    [
                      fs "profile" r.r_profile; fi "reactions" r.r_reactions;
                      fi "messages" r.r_messages; fi "bytes" r.r_bytes; fi "dropped" r.r_dropped;
                      fi "duplicated" r.r_duplicated; fi "fetch_retries" r.r_retries;
                      fi "fetch_timeouts" r.r_timeouts; ff "mean_fetch_rtt_ms" r.r_mean_rtt;
                      fi "max_fetch_rtt_ms" r.r_max_rtt; fi "sim_clock_ms" r.r_clock;
                      fi "occurrences_executed" r.r_occurrences; fi "max_queue" r.r_max_queue;
                    ])
                rows));
        Printf.sprintf "%S: %s" "metrics" (Json.to_string (Obs.Profile.to_json ()));
      ]
  in
  let oc = open_out "BENCH_sched.json" in
  output_string oc (json ^ "\n");
  close_out oc;
  Fmt.pr "@.wrote BENCH_sched.json@."
