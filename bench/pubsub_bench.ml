(* Subscription-index benchmarks (HACKING.md "Subscription index"):
   publish dispatch through [Sub_index] vs the linear scan over all
   registered subscriptions.

   Two sweeps over the registered-subscriber count, plus one
   store-attached case:

   - selective: the published topic has a {e fixed} subscriber set
     (1000 hosts in the full run — 0.1% of the largest, 10^6, tier)
     while the remaining registrations spread over 999 other topics.
     Publish cost must track the matched set, not the register size:
     the per-publish candidate count stays flat across tiers (asserted,
     and gated in CI by [check_regression]'s candidates-per-publish
     rule), and the full run asserts the 10^6-tier publish latency is
     within 10x of the 10^3 tier;
   - proportional: registrations spread uniformly over 1000 topics, so
     the published topic's audience grows with the tier.  Cost per
     {e match} stays flat — the latency growth is exactly the fan-out;
   - attached: a store-backed registry ([Pubsub.Registry.attach])
     serving [Pubsub.subscribers] through the [Store.set_dynamic]
     answerer vs the plain document interpreter (what a store without
     a registry runs on a query-cache miss, and what
     [XCHANGE_NO_SUBINDEX=1] selects).

   The sweeps register each (topic, host) pair the way an attached
   registry does — [publish{topic{"<topic>"}}] with the host as
   payload — and publish through [Sub_index.matching].  Every case
   asserts the indexed host set equals the linear-scan oracle's before
   timing is reported.  Prints tables and emits machine-readable
   BENCH_pubsub.json.  [~smoke] runs small tiers (wired into
   `dune runtest`). *)

open Xchange

let speedup scan indexed = scan /. Float.max indexed 0.001

let topic i = "t" ^ string_of_int i
let hot = "news"

(* subscriber [i]'s (topic, host): the first [fanout] land on the hot
   topic, the rest round-robin over [ktopics] background topics *)
let selective_pair ~fanout ~ktopics i =
  if i < fanout then (hot, "h" ^ string_of_int i)
  else (topic (i mod ktopics), "h" ^ string_of_int i)

let proportional_pair ~ktopics i = (topic (i mod ktopics), "h" ^ string_of_int i)

(* the pre-index path in its cheapest form: scan every registration *)
let scan_subscribers pairs t =
  Array.to_list pairs
  |> List.filter_map (fun (t', h) -> if String.equal t' t then Some h else None)
  |> List.sort_uniq String.compare

let check_hosts name indexed oracle =
  if not (List.equal String.equal indexed oracle) then
    failwith
      (Printf.sprintf "pubsub bench %s: %d indexed hosts vs %d oracle" name
         (List.length indexed) (List.length oracle))

let timed_us iters f =
  let (), ms = Util.time_ms (fun () -> for _ = 1 to iters do ignore (f ()) done) in
  ms *. 1000. /. float_of_int iters

type row = {
  subs : int;
  topics : int;
  fanout : int;
  publishes : int;
  reg_us : float;  (* per-subscription incremental registration *)
  idx_us : float;  (* per-publish, through the index *)
  scan_us : float;  (* per-publish, linear scan *)
  cand : float;  (* index candidates per publish *)
  conf : float;  (* plan-confirmed matches per publish *)
  refut : float;  (* fingerprint-refuted bucket entries per publish *)
  buckets : int;
}

let subscription_q topic =
  Qterm.el "publish" [ Qterm.pos (Qterm.el "topic" [ Qterm.pos (Qterm.txt topic) ]) ]

let sweep_case ~pair_of ~probe ~subs ~ktopics ~publishes =
  let pairs = Array.init subs pair_of in
  let idx = Sub_index.create () in
  let register i =
    let t, h = pairs.(i) in
    Sub_index.register idx (subscription_q t) h
  in
  let ids = Array.make subs (-1) in
  let reg_us =
    let i = ref (-1) in
    timed_us subs (fun () ->
        incr i;
        ids.(!i) <- register !i)
  in
  let payload = Pubsub.publish ~topic:probe (Term.text "body") in
  let hosts () =
    Sub_index.matching idx payload
    |> List.map (fun (_, h, _) -> h)
    |> List.sort_uniq String.compare
  in
  let oracle = scan_subscribers pairs probe in
  check_hosts (Printf.sprintf "%d subs / topic %s" subs probe) (hosts ()) oracle;
  let s0 = Sub_index.stats idx in
  let idx_us = timed_us publishes hosts in
  let s1 = Sub_index.stats idx in
  let scan_iters = if subs >= 100_000 then 5 else 50 in
  let scan_us = timed_us scan_iters (fun () -> scan_subscribers pairs probe) in
  let per c = float_of_int c /. float_of_int publishes in
  (* churn: removal is incremental too — no rebuild, and the hot bucket
     really empties (then restore it so the reported stats make sense) *)
  let fanout = List.length oracle in
  let hot = List.filter (fun i -> String.equal (fst pairs.(i)) probe) (List.init subs Fun.id) in
  List.iter (fun i -> ignore (Sub_index.remove idx ids.(i))) hot;
  check_hosts "post-unsubscribe" (hosts ()) [];
  List.iter (fun i -> ids.(i) <- register i) hot;
  check_hosts "post-resubscribe" (hosts ()) oracle;
  {
    subs;
    topics = ktopics + 1;
    fanout;
    publishes;
    reg_us;
    idx_us;
    scan_us;
    cand = per Sub_index.(s1.candidates - s0.candidates);
    conf = per Sub_index.(s1.confirmed - s0.confirmed);
    refut = per Sub_index.(s1.refuted - s0.refuted);
    buckets = Sub_index.buckets idx;
  }

(* store-attached: the fan-out rule's register query served by the
   change-feed-maintained mirror vs the plain interpreter; the oracle
   is a store without a registry holding the same register *)
let attached_case ~subs ~ktopics ~fanout ~queries =
  let entry (t, h) =
    Term.elem "sub" [ Term.elem "topic" [ Term.text t ]; Term.elem "host" [ Term.text h ] ]
  in
  let pairs = Array.init subs (selective_pair ~fanout ~ktopics) in
  let register =
    Term.elem ~ord:Term.Unordered "subscribers" (Array.to_list pairs |> List.map entry)
  in
  let store = Store.create () and plain = Store.create () in
  Store.add_doc store Pubsub.subscribers_doc register;
  Store.add_doc plain Pubsub.subscribers_doc register;
  let reg = Pubsub.Registry.attach store in
  let oracle = Pubsub.subscribers plain ~topic:hot in
  check_hosts "attached" (Pubsub.subscribers store ~topic:hot) oracle;
  check_hosts "attached scan" oracle (scan_subscribers pairs hot);
  let idx_us = timed_us queries (fun () -> Pubsub.subscribers store ~topic:hot) in
  let seed = Option.get (Subst.of_list [ ("T", Term.text hot) ]) in
  let scan_iters = max 5 (queries / 20) in
  let scan_us =
    timed_us scan_iters (fun () -> Simulate.matches_anywhere ~seed Pubsub.sub_entry_q register)
  in
  (reg, store, subs, List.length oracle, queries, idx_us, scan_us)

(* ---- JSON emission (hand-rolled; no deps) ---- *)

let obj fields = "{" ^ String.concat ", " fields ^ "}"
let arr elems = "[" ^ String.concat ", " elems ^ "]"
let fi k v = Printf.sprintf "%S: %d" k v
let ff k v = Printf.sprintf "%S: %.3f" k v

let row_json r =
  obj
    [
      fi "subs" r.subs;
      fi "topics" r.topics;
      fi "fanout" r.fanout;
      fi "publishes" r.publishes;
      ff "register_us_per_event" r.reg_us;
      ff "publish_us_per_event_indexed" r.idx_us;
      ff "publish_us_per_event_scan" r.scan_us;
      ff "candidates_per_publish" r.cand;
      ff "confirmed_per_publish" r.conf;
      ff "refuted_per_publish" r.refut;
      fi "buckets" r.buckets;
      ff "speedup" (speedup r.scan_us r.idx_us);
    ]

let row_cells r =
  [
    Util.si r.subs; Util.si r.fanout; Util.f2 r.reg_us; Util.f2 r.idx_us;
    Util.f2 r.scan_us; Util.f1 r.cand; Util.f1 r.conf;
    Util.si r.buckets; Util.f1 (speedup r.scan_us r.idx_us) ^ "x";
  ]

let header =
  [ "subs"; "fanout"; "reg us"; "pub us (idx)"; "pub us (scan)"; "cand/pub";
    "conf/pub"; "buckets"; "speedup" ]

let run ~smoke () =
  let tiers = if smoke then [ 200; 1_000 ] else [ 1_000; 10_000; 100_000; 1_000_000 ] in
  let fanout = if smoke then 20 else 1_000 in
  let ktopics = if smoke then 50 else 999 in
  let publishes = if smoke then 200 else 1_000 in
  Obs.Profile.reset ();
  Fmt.pr "@.# Subscription-index benchmarks%s@." (if smoke then " (smoke)" else "");

  let selective =
    Obs.Profile.phase "selective" @@ fun () ->
    List.map
      (fun subs ->
        sweep_case ~pair_of:(selective_pair ~fanout ~ktopics) ~probe:hot ~subs
          ~ktopics ~publishes)
      tiers
  in
  Util.print_table
    ~title:
      (Printf.sprintf
         "selective publish: fixed %d-host topic, register grows (index vs linear scan)"
         fanout)
    ~header (List.map row_cells selective);

  (* candidates must not scale with registrations: the index hands back
     the hot bucket, whatever else is registered *)
  (match (selective, List.rev selective) with
  | first :: _, last :: _ when List.length selective > 1 ->
      if last.cand > (2. *. first.cand) +. 8. then
        failwith
          (Printf.sprintf
             "pubsub bench: candidates per publish grew with registrations (%.1f at %d subs vs %.1f at %d)"
             last.cand last.subs first.cand first.subs);
      if (not smoke) && last.idx_us > 10. *. Float.max first.idx_us 5. then
        failwith
          (Printf.sprintf
             "pubsub bench: publish latency at %d subs is %.1fus vs %.1fus at %d (> 10x)"
             last.subs last.idx_us first.idx_us first.subs)
  | _ -> ());

  let proportional =
    Obs.Profile.phase "proportional" @@ fun () ->
    List.map
      (fun subs ->
        sweep_case
          ~pair_of:(proportional_pair ~ktopics:(ktopics + 1))
          ~probe:(topic 0) ~subs ~ktopics ~publishes)
      tiers
  in
  Util.print_table
    ~title:
      (Printf.sprintf
         "proportional publish: audience = subs/%d, cost per match stays flat" (ktopics + 1))
    ~header (List.map row_cells proportional);

  let att_subs = if smoke then 300 else 20_000 in
  let att_queries = if smoke then 100 else 500 in
  let reg, store, a_subs, a_fanout, a_queries, a_idx_us, a_scan_us =
    Obs.Profile.phase "attached" @@ fun () ->
    attached_case ~subs:att_subs ~ktopics ~fanout:(min fanout att_subs)
      ~queries:att_queries
  in
  Util.print_table
    ~title:"store-attached registry: Pubsub.subscribers via dynamic answerer vs interpreter"
    ~header:[ "subs"; "fanout"; "query us (idx)"; "query us (scan)"; "speedup" ]
    [
      [
        Util.si a_subs; Util.si a_fanout; Util.f2 a_idx_us; Util.f2 a_scan_us;
        Util.f1 (speedup a_scan_us a_idx_us) ^ "x";
      ];
    ];

  let json =
    obj
      [
        Printf.sprintf "%S: %s" "smoke" (string_of_bool smoke);
        Printf.sprintf "%S: %s" "selective" (arr (List.map row_json selective));
        Printf.sprintf "%S: %s" "proportional" (arr (List.map row_json proportional));
        Printf.sprintf "%S: %s" "attached"
          (obj
             [
               fi "subs" a_subs;
               fi "fanout" a_fanout;
               fi "queries" a_queries;
               ff "subscribers_us_per_event_indexed" a_idx_us;
               ff "subscribers_us_per_event_scan" a_scan_us;
               ff "speedup" (speedup a_scan_us a_idx_us);
             ]);
        Printf.sprintf "%S: %s" "metrics"
          (Json.to_string
             (Json.Obj
                [
                  (* key names chosen to stay clear of the regression
                     gate's shape_keys: these are informational *)
                  ("phase_profile", Obs.Profile.to_json ());
                  ( "registry_counters",
                    Obs.Metrics.to_json
                      (Obs.Metrics.snapshot (Pubsub.Registry.metrics reg)) );
                  ( "store_counters",
                    Obs.Metrics.to_json (Obs.Metrics.snapshot (Store.metrics store)) );
                ]));
      ]
  in
  let oc = open_out "BENCH_pubsub.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Fmt.pr "@.wrote BENCH_pubsub.json@."
