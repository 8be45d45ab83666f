(* Per-layer metrics, all read from outside the program: the Obs
   registries ([Network.metrics_snapshot], [Simulate.metrics]), public
   stats and timing of public functions, and the spans Obs already
   emits.  "per ev" always means per injected event. *)

open Xchange

(* ---- counters ---- *)

type sample = {
  m : Obs.Metrics.sample list;
  registry : Sub_index.stats option;
  window_rounds : int;
  crossings : int;
}

let sample (b : Workload.built) =
  {
    m = Network.metrics_snapshot b.net @ Obs.Metrics.snapshot Simulate.metrics;
    registry = Option.map Pubsub.Registry.stats b.registry;
    window_rounds = Network.window_rounds b.net;
    crossings = Network.window_crossings b.net;
  }

(* [(name, value, unit)] over the timed phase: [a] is sampled at its
   start, [b] at its end, and [events] were injected in between. *)
let counts a b ~events =
  let total s name = Obs.Metrics.total s.m name in
  let d name = total b name -. total a name in
  let per_ev name = Stats.ratio (d name) (float_of_int events) in
  let share part whole = Stats.ratio (d part) (d whole) in
  let rate hits misses = Stats.ratio (d hits) (d hits +. d misses) in
  let reg f =
    match (a.registry, b.registry) with
    | Some x, Some y -> float_of_int (f y - f x)
    | _ -> 0.
  in
  let rounds = float_of_int (b.window_rounds - a.window_rounds) in
  [
    ("sched.executed_per_ev", per_ev "sched.executed", "1/ev");
    ("sched.max_queue", total b "sched.max_queue", "count");
    ("transport.messages_per_ev", per_ev "transport.messages", "1/ev");
    ("transport.bytes_per_ev", per_ev "transport.bytes", "B/ev");
    ("transport.dropped_frac", share "transport.dropped" "transport.messages", "frac");
    ("transport.duplicated_frac", share "transport.duplicated" "transport.messages", "frac");
    ("net.remote_fetches_per_ev", per_ev "net.remote_fetches", "1/ev");
    ("net.fallback_misses", d "net.fallback_misses", "count");
    ("partition.window_rounds", rounds, "count");
    ( "partition.crossings_per_round",
      Stats.ratio (float_of_int (b.crossings - a.crossings)) rounds,
      "1/round" );
    ("node.duplicate_frac", share "node.duplicate_events" "node.events_in", "frac");
    ("node.firings_per_ev", per_ev "node.firings", "1/ev");
    ("wal.appends_per_ev", per_ev "wal.appends", "1/ev");
    ("wal.snapshots", d "wal.snapshots", "count");
    ("wal.final_mb", total b "wal.bytes" /. 1e6, "MB");
    ("engine.rules_fed_per_ev", per_ev "engine.rules_fed", "1/ev");
    ("engine.rules_skipped_per_ev", per_ev "engine.rules_skipped", "1/ev");
    ( "subindex.candidates_per_lookup",
      share "subindex.candidates" "subindex.lookups",
      "1/lookup" );
    (* the engine's sub-index only looks up; "confirmed" here is the
       share of visited entries the fingerprint check let through *)
    ( "subindex.confirmed_frac",
      Stats.ratio (d "subindex.candidates") (d "subindex.candidates" +. d "subindex.refuted"),
      "frac" );
    ("alpha.hit_rate", rate "alpha.hits" "alpha.evaluations", "frac");
    ("alpha.evaluations_per_ev", per_ev "alpha.evaluations", "1/ev");
    ("beta.hit_rate", rate "beta.hits" "beta.steps", "frac");
    ("beta.pairs_probed_per_ev", per_ev "beta.pairs_probed", "1/ev");
    ("engine.join.pairs_probed_per_ev", per_ev "engine.join.pairs_probed", "1/ev");
    ("engine.live_instances", total b "engine.live_instances", "count");
    ("engine.condition_evaluations_per_ev", per_ev "engine.condition_evaluations", "1/ev");
    ("query.plan_cache_hit_rate", rate "query.plan_cache_hits" "query.plan_cache_misses", "frac");
    ("query.fingerprint_pruned_per_ev", per_ev "query.fingerprint_pruned", "1/ev");
    ( "store.query_cache_hit_rate",
      rate "store.query_cache_hits" "store.query_cache_misses",
      "frac" );
    ("store.indexed_selects_per_ev", per_ev "store.indexed_selects", "1/ev");
    ("store.index_builds", d "store.index_builds", "count");
    ("store.index_invalidations_per_ev", per_ev "store.index_invalidations", "1/ev");
    ( "pubsub.candidates_per_publish",
      Stats.ratio (reg (fun s -> s.Sub_index.candidates)) (reg (fun s -> s.Sub_index.lookups)),
      "1/publish" );
    ( "pubsub.confirmed_frac",
      Stats.ratio (reg (fun s -> s.Sub_index.confirmed)) (reg (fun s -> s.Sub_index.candidates)),
      "frac" );
  ]

(* ---- WAL ---- *)

let logs net =
  List.filter_map (fun h -> Node.wal (Network.node_exn net h)) (Network.hosts net)

(* Bytes appended to every host's log, estimated from a size probe after
   each tick: a log that shrank was compacted and counts at its new
   size (the snapshot it now holds, plus what followed). *)
type wal_probe = { mutable sizes : int list; mutable appended : int }

let wal_probe net = { sizes = List.map Wal.size_bytes (logs net); appended = 0 }

let probe p net =
  let now = List.map Wal.size_bytes (logs net) in
  List.iter2
    (fun before after ->
      p.appended <- p.appended + if after >= before then after - before else after)
    p.sizes now;
  p.sizes <- now

(* Microseconds per record to decode every host's log ([Wal.records])
   and to append its records to a fresh log ([Wal.append]). *)
let wal_codec net =
  let records, decode, append =
    List.fold_left
      (fun (n, dec, app) w ->
        let (rs, _), d = Wall.timed "Wal.records" (fun () -> Wal.records w) in
        let fresh = Wal.create () in
        let (), a = Wall.timed "Wal.append" (fun () -> List.iter (Wal.append fresh) rs) in
        (n + List.length rs, dec +. d, app +. a))
      (0, 0., 0.) (logs net)
  in
  let us t = Stats.ratio (t *. 1e6) (float_of_int records) in
  (us append, us decode)

(* ---- spans ---- *)

(* Wall milliseconds by layer, nested as
     net    = tick - sum(message)   (includes engine clock advances)
     node   = message - event
     engine = event - firing
     firing = firing - action
     action = the remainder
   where "tick" is the bench span around one tick's inject + run. *)
type times = {
  mutable tick : float;
  mutable net : float;
  mutable node : float;
  mutable engine : float;
  mutable firing : float;
  mutable action : float;
  mutable spans : int;  (** program spans, instants included *)
  mutable per_tick : (float * float) list;  (** (tick, node self) of each tick, newest first *)
}

let zero_times () =
  { tick = 0.; net = 0.; node = 0.; engine = 0.; firing = 0.; action = 0.; spans = 0; per_tick = [] }

let program_span = function "message" | "event" | "firing" | "action" -> true | _ -> false
let nests = function "event" | "firing" | "action" -> true | _ -> false

(* Fold one tick's drained spans into [t].  Event, firing and action
   spans open while their parent is open, so the parent link is wall
   nesting.  A message span's parent is the send that caused it, which
   ended long before (possibly in an earlier, already drained tick whose
   span ids have since been reused), so every message span is a
   top-level slice of its tick. *)
let attribute t (spans : Obs.Trace.span list) =
  let by_id = Hashtbl.create 256 and inner = Hashtbl.create 256 in
  List.iter (fun (s : Obs.Trace.span) -> Hashtbl.replace by_id s.id s) spans;
  List.iter
    (fun (s : Obs.Trace.span) ->
      if nests s.name then
        Hashtbl.replace inner s.parent
          (s.wall_ms +. Option.value ~default:0. (Hashtbl.find_opt inner s.parent)))
    spans;
  let top = ref 0. and tick = ref 0. and node = t.node in
  List.iter
    (fun (s : Obs.Trace.span) ->
      let self = s.wall_ms -. Option.value ~default:0. (Hashtbl.find_opt inner s.id) in
      let enclosed =
        nests s.name
        &&
        match Hashtbl.find_opt by_id s.parent with
        | Some p -> program_span p.name
        | None -> false
      in
      if not (String.equal s.cat "bench") then t.spans <- t.spans + 1;
      if program_span s.name && not enclosed then top := !top +. s.wall_ms;
      match s.name with
      | "message" -> t.node <- t.node +. self
      | "event" -> t.engine <- t.engine +. self
      | "firing" -> t.firing <- t.firing +. self
      | "action" -> t.action <- t.action +. self
      | "tick" -> tick := !tick +. s.wall_ms
      | _ -> ())
    spans;
  t.tick <- t.tick +. !tick;
  t.net <- t.net +. (!tick -. !top);
  t.per_tick <- (!tick, t.node -. node) :: t.per_tick

(* The node layer's share of the slowest 1% of ticks: how much of the
   tail is message handling around the engine (WAL appends and
   snapshots among it). *)
let tail_node_share t =
  let cut = Stats.percentile 99. (List.map fst t.per_tick) in
  let tail = List.filter (fun (tick, _) -> tick >= cut) t.per_tick in
  Stats.ratio (List.fold_left (fun a (_, n) -> a +. n) 0. tail) (List.fold_left (fun a (k, _) -> a +. k) 0. tail)

let layers = [ "net"; "node"; "engine"; "firing"; "action" ]

let self t = function
  | "net" -> t.net
  | "node" -> t.node
  | "engine" -> t.engine
  | "firing" -> t.firing
  | _ -> t.action
