(* Cross-rule sharing benchmarks (the perf companion of HACKING.md
   "Cross-rule sharing"): ruleset-size sweeps comparing shared-network
   work against per-rule evaluation (XCHANGE_NO_SHARE semantics, here
   [~share:false]) — the alpha network on atomic matcher runs, the beta
   network on composite join pairs probed.

   Two overlap profiles bracket the real-world range: [high] draws every
   rule's event pattern from a small pool (large rule bases are mostly
   variations on few patterns — the Rete assumption), [low] gives every
   rule its own label so nothing can be shared.  The headline metrics
   are {e atomic matcher runs per event} (alpha) and {e join pairs
   probed per event} (beta): with sharing both should track the number
   of distinct patterns an event can touch (flat in ruleset size),
   without sharing they track the number of subscribed rules.  The
   composite rows also report {e rules fed per event} with sharing:
   each rule's whole query is one shared node, so dispatch feeds a rule
   only when its node detects something, and the count tracks the
   rules that fire, not the node's subscribers.  They also report the
   shared engine's reachable words per rule after its stream: what a
   rule costs in memory beside the shared networks.  The
   composite sweep gives every rule its own variable names, so sharing
   only happens through the canonicalization rename.  Prints tables and
   emits machine-readable BENCH_rules.json.  [~smoke] runs a fast
   subset (wired into `dune runtest`); every case checks shared firings
   equal unshared firings, and the full composite sweep additionally
   asserts the >=20x probe reduction at 10^4 heavily-overlapping
   rules.  A last case times [Engine.create] alone on rules whose
   patterns differ only in a deep constant. *)

open Xchange

let null_ops =
  {
    Action.update = (fun _ -> Ok 0);
    txn_update = (fun _ -> Ok 0);
    send = (fun ~recipient:_ ~label:_ ~ttl:_ ~delay:_ _ -> ());
    log = (fun _ -> ());
    now = (fun () -> 0);
    checkpoint = (fun () -> fun () -> ());
  }

let empty_env = Condition.env_of_docs []

(* [high] overlap: patterns cycle through a small pool, so [rules/pool]
   rules subscribe to each distinct pattern; [low]: one pattern per rule *)
let pool_size = 16

(* the label carries the distinctness: atoms differing only in label
   are already distinct sharing keys, so the payload pattern can stay
   constant *)
let pattern = Qterm.el "rec" [ Qterm.pos (Qterm.el "k" [ Qterm.pos (Qterm.var "X") ]) ]

let rules_for ~overlap n =
  let distinct = match overlap with `High -> pool_size | `Low -> n in
  List.init n (fun i ->
      Eca.make ~name:(Printf.sprintf "r%d" i)
        ~on:(Event_query.on ~label:(Printf.sprintf "l%d" (i mod distinct)) pattern)
        Action.Nop)

let events_for ~overlap ~rules:n m =
  let distinct = match overlap with `High -> pool_size | `Low -> n in
  List.init m (fun j ->
      Event.make ~occurred_at:(j + 1)
        ~label:(Printf.sprintf "l%d" (j mod distinct))
        (Term.elem "rec" [ Term.elem "k" [ Term.text (Printf.sprintf "v%d" j) ] ]))

type row = {
  rules : int;
  overlap : string;
  events : int;
  firings : int;
  distinct_nodes : int;
  registrations : int;
  hit_rate : float;
  runs_shared : int;  (* atomic matcher executions over the stream *)
  runs_unshared : int;
  shared_ms : float;
  unshared_ms : float;
}

let case ~overlap ~rules:n ~events:m =
  let ruleset = Ruleset.make ~rules:(rules_for ~overlap n) "bench" in
  let events = events_for ~overlap ~rules:n m in
  let run share =
    let engine = Engine.create_exn ~share ruleset in
    Incremental.reset_atomic_matcher_runs ();
    let fired, ms =
      Util.time_ms (fun () ->
          List.fold_left
            (fun acc ev ->
              acc
              + List.length
                  (Engine.handle_event engine ~env:empty_env ~ops:null_ops ev).Engine.firings)
            0 events)
    in
    (fired, Incremental.atomic_matcher_runs (), ms, Util.cells (Engine.metrics engine))
  in
  let fired_s, runs_shared, shared_ms, alpha = run true in
  let fired_u, runs_unshared, unshared_ms, _ = run false in
  if fired_s <> fired_u then
    failwith
      (Printf.sprintf "rules bench: %d shared firings vs %d unshared" fired_s fired_u);
  let hit_rate =
    let hits = alpha "alpha.hits" in
    let total = alpha "alpha.evaluations" + hits in
    if total = 0 then 0. else float_of_int hits /. float_of_int total
  in
  {
    rules = n;
    overlap = (match overlap with `High -> "high" | `Low -> "low");
    events = m;
    firings = fired_u;
    distinct_nodes = alpha "alpha.nodes";
    registrations = alpha "alpha.registrations";
    hit_rate;
    runs_shared;
    runs_unshared;
    shared_ms;
    unshared_ms;
  }

let per_event runs m = float_of_int runs /. float_of_int (max m 1)

let ratio r =
  float_of_int r.runs_unshared /. float_of_int (max r.runs_shared 1)

(* ---- composite sweep: shared beta vs per-rule join pipelines --------- *)

let comp_pool = 16

let comp_rules ~kind ~overlap n =
  let distinct = match overlap with `High -> comp_pool | `Low -> n in
  List.init n (fun i ->
      (* per-rule variable names: sharing must come from the
         canonicalization rename, never from lexical luck *)
      let atom l v = Event_query.on ~label:l (Qterm.el "rec" [ Qterm.pos (Qterm.var v) ]) in
      let q1 = atom (Printf.sprintf "a%d" (i mod distinct)) (Printf.sprintf "L%d" i)
      and q2 = atom (Printf.sprintf "b%d" (i mod distinct)) (Printf.sprintf "R%d" i) in
      let on =
        match kind with
        | `And -> Event_query.conj [ q1; q2 ]
        | `Seq -> Event_query.seq [ q1; q2 ]
      in
      Eca.make ~name:(Printf.sprintf "r%d" i) ~on Action.Nop)

let comp_events ~overlap ~rules:n m =
  let distinct = match overlap with `High -> comp_pool | `Low -> n in
  List.init m (fun j ->
      let side = if j mod 2 = 0 then "a" else "b" in
      Event.make ~occurred_at:(j + 1)
        ~label:(Printf.sprintf "%s%d" side (j / 2 mod distinct))
        (Term.elem "rec" [ Term.text (Printf.sprintf "v%d" j) ]))

type comp_row = {
  c_kind : string;
  c_rules : int;
  c_overlap : string;
  c_events : int;
  c_firings : int;
  c_nodes : int;  (* distinct shared pipelines *)
  c_registrations : int;
  c_hit_rate : float;
  c_joins_shared : int;  (* join pairs probed over the stream *)
  c_joins_unshared : int;
  c_advanced : int;  (* rules touched by the per-event clock advances *)
  c_fed : int;  (* (rule, event) feeds over the stream, shared *)
  c_words : int;  (* reachable words of the shared engine after its stream *)
  c_shared_ms : float;
  c_unshared_ms : float;
}

let comp_case ~kind ~overlap ~rules:n ~events:m =
  let ruleset = Ruleset.make ~rules:(comp_rules ~kind ~overlap n) "bench" in
  let events = comp_events ~overlap ~rules:n m in
  let run share =
    let engine = Engine.create_exn ~share ruleset in
    let fire outcome = List.length outcome.Engine.firings in
    let fired, ms =
      Util.time_ms (fun () ->
          List.fold_left
            (fun acc ev ->
              let fired = fire (Engine.handle_event engine ~env:empty_env ~ops:null_ops ev) in
              (* the timer phase a network runs after every delivery *)
              acc + fired
              + fire (Engine.advance engine ~env:empty_env ~ops:null_ops (Event.time ev)))
            0 events)
    in
    let cell = Util.cells (Engine.metrics engine) in
    ( fired,
      cell "engine.join.pairs_probed",
      cell "engine.rules_advanced",
      ms,
      cell,
      Obj.reachable_words (Obj.repr engine) )
  in
  let fired_s, joins_shared, advanced, shared_ms, beta, words = run true in
  let fired_u, joins_unshared, _, unshared_ms, _, _ = run false in
  if fired_s <> fired_u then
    failwith
      (Printf.sprintf "composite bench: %d shared firings vs %d unshared" fired_s fired_u);
  let hit_rate =
    let hits = beta "beta.hits" in
    let total = beta "beta.steps" + hits in
    if total = 0 then 0. else float_of_int hits /. float_of_int total
  in
  {
    c_kind = (match kind with `And -> "and" | `Seq -> "seq");
    c_rules = n;
    c_overlap = (match overlap with `High -> "high" | `Low -> "low");
    c_events = m;
    c_firings = fired_u;
    c_nodes = beta "beta.nodes";
    c_registrations = beta "beta.registrations";
    c_hit_rate = hit_rate;
    c_joins_shared = joins_shared;
    c_joins_unshared = joins_unshared;
    c_advanced = advanced;
    c_fed = beta "engine.rules_fed";
    c_words = words;
    c_shared_ms = shared_ms;
    c_unshared_ms = unshared_ms;
  }

let comp_ratio r =
  float_of_int r.c_joins_unshared /. float_of_int (max r.c_joins_shared 1)

let words_per_rule r = float_of_int r.c_words /. float_of_int r.c_rules

(* ---- construction: patterns that differ only in a deep constant ----

   Atomic rules on [publish{topic{"t<i>"}}]: the default [Hashtbl.hash]
   reads too few values to tell these patterns apart, so any table
   keyed on them that hashes with it puts them all in one bucket and
   construction goes quadratic. *)

let construction_rules n =
  List.init n (fun i ->
      let topic = Qterm.el "topic" [ Qterm.pos (Qterm.txt (Printf.sprintf "t%d" i)) ] in
      Eca.make ~name:(Printf.sprintf "r%d" i)
        ~on:(Event_query.on ~label:"publish" (Qterm.el "publish" [ Qterm.pos topic ]))
        Action.Nop)

(* best of three: one construction is a single wall-clock sample *)
let create_ms ruleset =
  let once () = snd (Util.time_ms (fun () -> ignore (Engine.create_exn ruleset))) in
  List.fold_left (fun best _ -> Float.min best (once ())) (once ()) [ (); () ]

(* ---- JSON emission (hand-rolled; no deps) ---- *)

let obj fields = "{" ^ String.concat ", " fields ^ "}"
let arr elems = "[" ^ String.concat ", " elems ^ "]"
let fi k v = Printf.sprintf "%S: %d" k v
let ff k v = Printf.sprintf "%S: %.3f" k v
let fs k v = Printf.sprintf "%S: %S" k v

let run ~smoke () =
  let sizes = if smoke then [ 100; 400 ] else [ 100; 1_000; 10_000 ] in
  let m = if smoke then 60 else 100 in
  Obs.Profile.reset ();
  Fmt.pr "@.# Cross-rule sharing benchmarks%s@." (if smoke then " (smoke)" else "");
  let rows =
    Obs.Profile.phase "rules_sweep" (fun () ->
        List.concat_map
          (fun n ->
            [ case ~overlap:`High ~rules:n ~events:m; case ~overlap:`Low ~rules:n ~events:m ])
          sizes)
  in
  Util.print_table ~title:"atomic matcher runs: shared alpha vs per-rule"
    ~header:
      [
        "rules"; "overlap"; "events"; "nodes"; "regs"; "hit rate"; "runs/ev shared";
        "runs/ev unshared"; "ratio"; "shared ms"; "unshared ms";
      ]
    (List.map
       (fun r ->
         [
           Util.si r.rules; r.overlap; string_of_int r.events;
           string_of_int r.distinct_nodes; Util.si r.registrations;
           Printf.sprintf "%.0f%%" (100. *. r.hit_rate);
           Util.f1 (per_event r.runs_shared r.events);
           Util.f1 (per_event r.runs_unshared r.events);
           Util.f1 (ratio r) ^ "x"; Util.f2 r.shared_ms; Util.f2 r.unshared_ms;
         ])
       rows);
  let comp_rows =
    Obs.Profile.phase "composite_sweep" (fun () ->
        List.concat_map
          (fun n ->
            List.concat_map
              (fun kind ->
                [
                  comp_case ~kind ~overlap:`High ~rules:n ~events:m;
                  comp_case ~kind ~overlap:`Low ~rules:n ~events:m;
                ])
              [ `Seq; `And ])
          sizes)
  in
  (* the headline claim: at 10^4 heavily-overlapping rules the shared
     beta network probes at least 20x fewer join pairs per event *)
  if not smoke then
    List.iter
      (fun r ->
        if r.c_rules >= 10_000 && String.equal r.c_overlap "high" && comp_ratio r < 20. then
          failwith
            (Printf.sprintf "composite bench: sharing ratio %.1fx < 20x at %d %s rules"
               (comp_ratio r) r.c_rules r.c_kind))
      comp_rows;
  Util.print_table ~title:"join pairs probed: shared beta vs per-rule pipelines"
    ~header:
      [
        "kind"; "rules"; "overlap"; "events"; "nodes"; "regs"; "hit rate";
        "joins/ev shared"; "joins/ev unshared"; "ratio"; "advanced/adv"; "fed/ev";
        "words/rule"; "shared ms"; "unshared ms";
      ]
    (List.map
       (fun r ->
         [
           r.c_kind; Util.si r.c_rules; r.c_overlap; string_of_int r.c_events;
           string_of_int r.c_nodes; Util.si r.c_registrations;
           Printf.sprintf "%.0f%%" (100. *. r.c_hit_rate);
           Util.f1 (per_event r.c_joins_shared r.c_events);
           Util.f1 (per_event r.c_joins_unshared r.c_events);
           Util.f1 (comp_ratio r) ^ "x"; Util.f1 (per_event r.c_advanced r.c_events);
           Util.f1 (per_event r.c_fed r.c_events); Util.f1 (words_per_rule r);
           Util.f2 r.c_shared_ms;
           Util.f2 r.c_unshared_ms;
         ])
       comp_rows);
  let c_rules = if smoke then 1_000 else 10_000 in
  let c_ms =
    Obs.Profile.phase "construction" (fun () ->
        create_ms (Ruleset.make ~rules:(construction_rules c_rules) "bench"))
  in
  Util.print_table ~title:"Engine.create: patterns differing in a deep constant"
    ~header:[ "rules"; "create ms" ]
    [ [ Util.si c_rules; Util.f2 c_ms ] ];
  let json =
    obj
      [
        Printf.sprintf "%S: %s" "smoke" (string_of_bool smoke);
        Printf.sprintf "%S: %s" "sweep"
          (arr
             (List.map
                (fun r ->
                  obj
                    [
                      fi "rules" r.rules; fs "overlap" r.overlap; fi "events" r.events;
                      fi "firings" r.firings; fi "distinct_nodes" r.distinct_nodes;
                      fi "registrations" r.registrations; ff "hit_rate" r.hit_rate;
                      ff "alpha_evals_per_event_shared" (per_event r.runs_shared r.events);
                      ff "evals_per_event_unshared" (per_event r.runs_unshared r.events);
                      ff "sharing_ratio" (ratio r); ff "shared_run_ms" r.shared_ms;
                      ff "unshared_run_ms" r.unshared_ms;
                    ])
                rows));
        Printf.sprintf "%S: %s" "composite_sweep"
          (arr
             (List.map
                (fun r ->
                  obj
                    [
                      fs "kind" r.c_kind; fi "rules" r.c_rules; fs "overlap" r.c_overlap;
                      fi "events" r.c_events; fi "firings" r.c_firings;
                      fi "distinct_nodes" r.c_nodes; fi "registrations" r.c_registrations;
                      ff "hit_rate" r.c_hit_rate;
                      ff "beta_joins_per_event_shared" (per_event r.c_joins_shared r.c_events);
                      ff "joins_per_event_unshared" (per_event r.c_joins_unshared r.c_events);
                      ff "rules_advanced_per_advance" (per_event r.c_advanced r.c_events);
                      ff "rules_fed_per_event_shared" (per_event r.c_fed r.c_events);
                      ff "words_per_rule_shared" (words_per_rule r);
                      ff "sharing_ratio" (comp_ratio r); ff "shared_run_ms" r.c_shared_ms;
                      ff "unshared_run_ms" r.c_unshared_ms;
                    ])
                comp_rows));
        Printf.sprintf "%S: %s" "construction" (obj [ fi "rules" c_rules; ff "create_ms" c_ms ]);
        Printf.sprintf "%S: %s" "metrics" (Json.to_string (Obs.Profile.to_json ()));
      ]
  in
  let oc = open_out "BENCH_rules.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Fmt.pr "@.wrote BENCH_rules.json@."
