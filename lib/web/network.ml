open Xchange_core
open Xchange_data
open Xchange_query
open Xchange_event
open Xchange_rules
open Xchange_obs

type fetch_policy = { timeout : Clock.span; retries : int }

let default_fetch_policy = { timeout = 60; retries = 2 }

(* One host's [node.*] cells, labelled with the host; the
   request-to-response latency histogram carries completion count, sum,
   and max in one cell. *)
type host_cells = {
  hc_events_in : Obs.Metrics.Counter.t;
  hc_gets_in : Obs.Metrics.Counter.t;
  hc_responses_in : Obs.Metrics.Counter.t;
  hc_updates_in : Obs.Metrics.Counter.t;
  hc_deferred : Obs.Metrics.Counter.t;
  hc_fetches : Obs.Metrics.Counter.t;
  hc_retries : Obs.Metrics.Counter.t;
  hc_timeouts : Obs.Metrics.Counter.t;
  hc_rtt : Obs.Metrics.Histogram.t;
}

(* What a node has fetched from the rest of the Web, latest value per
   (host, path, kind).  The snapshot a deferred delivery's condition
   evaluation reads from. *)
type snapshot = (string * string * Message.res_kind, Term.t option) Hashtbl.t

(* A ring entry: one delivery copy crossing partitions, carrying the
   sender transport's in-flight release hook. *)
type crossing = {
  x_msg : Message.t;
  x_dup : int;
  x_at : Clock.time;
  x_release : unit -> unit;
}

(* One partition: a private timeline, transport, and the subset of
   hosts assigned to it.  During a window only this partition's domain
   touches any of these fields; the coordinating domain reads and
   writes them exclusively between phases (the pool barrier provides
   the happens-before edges). *)
type part = {
  id : int;
  sched : Sched.t;
  transport : Transport.t;
  nodes : (string, Node.t) Hashtbl.t;
  cells_by_host : (string, host_cells) Hashtbl.t;
  snapshots : (string, snapshot) Hashtbl.t;
  m : Obs.Metrics.t;
  c_remote_fetches : Obs.Metrics.Counter.t;
  c_fallback_misses : Obs.Metrics.Counter.t;
  deadlines : (string, Clock.time) Hashtbl.t;
      (** earliest engine-deadline occurrence queued per host *)
  down : (string, Message.t Queue.t) Hashtbl.t;
      (** crashed hosts and the messages that arrived at their door while
          they were down: the network infrastructure survives a node
          crash, so nothing addressed to a dead host is lost — it is
          redelivered on recovery *)
  c_crashes : Obs.Metrics.Counter.t;
  c_recoveries : Obs.Metrics.Counter.t;
}

type t = {
  parts : part array;  (** length >= 1; length 1 = the sequential oracle *)
  directory : (string, Node.t) Hashtbl.t;  (** all hosts, whichever partition *)
  rings : crossing Partition.Ring.t array array;  (** [rings.(src).(dst)] *)
  policy : fetch_policy;
  lookahead : Clock.span option;  (** override; [None] = derive from latencies *)
  mutable window_rounds : int;  (** barrier rounds executed (observability) *)
  mutable window_crossings : int;  (** deliveries handed off across partitions *)
}

let partitions t = Array.length t.parts
let part_of t host = t.parts.(Partition.owner ~partitions:(partitions t) host)
let node t host = Hashtbl.find_opt t.directory host

let node_exn t host =
  match node t host with
  | Some n -> n
  | None -> invalid_arg ("Network.node_exn: unknown host " ^ host)

let hosts t = List.sort String.compare (Hashtbl.fold (fun h _ acc -> h :: acc) t.directory [])

(* Between driver calls every partition clock is equal (each run ends
   with all timelines advanced to the same instant). *)
let clock t = Sched.now t.parts.(0).sched
let sched t = t.parts.(0).sched

let transport_stats t =
  Transport.merge_stats (Array.to_list (Array.map (fun p -> Transport.stats p.transport) t.parts))

let remote_fetches t =
  Array.fold_left (fun acc p -> acc + Obs.Metrics.Counter.value p.c_remote_fetches) 0 t.parts

let fallback_misses t =
  Array.fold_left (fun acc p -> acc + Obs.Metrics.Counter.value p.c_fallback_misses) 0 t.parts

let metrics t = t.parts.(0).m
let registry_for t ~host = (part_of t host).m

(* Recorded messages across all partition transports, restored to a
   deterministic order: send time, then sender stamp. *)
let trace t =
  let all = List.concat_map (fun p -> Transport.trace p.transport) (Array.to_list t.parts) in
  List.stable_sort
    (fun (a : Message.t) (b : Message.t) ->
      match Int.compare a.Message.sent_at b.Message.sent_at with
      | 0 -> (
          match String.compare a.Message.from_host b.Message.from_host with
          | 0 -> Int.compare a.Message.msg_id b.Message.msg_id
          | c -> c)
      | c -> c)
    all

let cells_for (p : part) host =
  match Hashtbl.find_opt p.cells_by_host host with
  | Some c -> c
  | None ->
      let labels = [ ("host", host) ] in
      let c =
        {
          hc_events_in = Obs.Metrics.counter p.m ~labels "node.events_in";
          hc_gets_in = Obs.Metrics.counter p.m ~labels "node.gets_in";
          hc_responses_in = Obs.Metrics.counter p.m ~labels "node.responses_in";
          hc_updates_in = Obs.Metrics.counter p.m ~labels "node.updates_in";
          hc_deferred = Obs.Metrics.counter p.m ~labels "node.deferred_events";
          hc_fetches = Obs.Metrics.counter p.m ~labels "node.fetches";
          hc_retries = Obs.Metrics.counter p.m ~labels "node.fetch_retries";
          hc_timeouts = Obs.Metrics.counter p.m ~labels "node.fetch_timeouts";
          hc_rtt = Obs.Metrics.histogram p.m ~labels "node.fetch_rtt_ms";
        }
      in
      Hashtbl.replace p.cells_by_host host c;
      c

let snapshot_for (p : part) host =
  match Hashtbl.find_opt p.snapshots host with
  | Some s -> s
  | None ->
      let s = Hashtbl.create 16 in
      Hashtbl.replace p.snapshots host s;
      s

(* A node's query environment: local names resolve against its own
   store; cross-host URIs against the node's fetched snapshots — what
   the prefetch round-trips brought back before this evaluation ran.
   No store on another host is ever read directly. *)
let env_for (p : part) (me : Node.t) =
  let local = Store.env (Node.store me) in
  let snap = snapshot_for p (Node.host me) in
  let lookup kind uri =
    match Hashtbl.find_opt snap (Uri.host uri, Uri.path uri, kind) with
    | Some doc -> doc
    | None ->
        Obs.Metrics.Counter.incr p.c_fallback_misses;
        None
  in
  let fetch = function
    | Condition.Local _ as res -> local.Condition.fetch res
    | Condition.Remote uri as res ->
        let host = Uri.host uri in
        if host = "" || String.equal host (Node.host me) then local.Condition.fetch res
        else Option.to_list (lookup Message.Doc uri)
    | Condition.View _ -> []
  in
  let fetch_rdf = function
    | Condition.Local _ as res -> local.Condition.fetch_rdf res
    | Condition.Remote uri as res ->
        let host = Uri.host uri in
        if host = "" || String.equal host (Node.host me) then local.Condition.fetch_rdf res
        else
          Option.bind (lookup Message.Rdf uri) (fun term ->
              match Rdf.graph_of_term term with Ok g -> Some g | Error _ -> None)
    | Condition.View _ -> None
  in
  (* only resources served by [me]'s own store take its memoized fast
     path; snapshot reads are already cheap *)
  let cached_match res ~seed q =
    match res with
    | Condition.Local _ -> local.Condition.cached_match res ~seed q
    | Condition.Remote uri ->
        let host = Uri.host uri in
        if host = "" || String.equal host (Node.host me) then
          local.Condition.cached_match res ~seed q
        else None
    | Condition.View _ -> None
  in
  { Condition.fetch; fetch_rdf; cached_match }

let part_context (p : part) me =
  {
    Node.env = env_for p me;
    send = (fun m -> Transport.send p.transport m);
    now = (fun () -> Sched.now p.sched);
  }

let context_for t me = part_context (part_of t (Node.host me)) me

(* One Get/Response round-trip with retry-on-timeout.  The continuation
   runs exactly once: on the first Response (late duplicates find their
   handler gone), or with [None] after the last retry times out.
   Successful responses also land in the requester's snapshot table.
   Timeout occurrences hold the simulation open — a dropped Response
   must still trigger its retry under [run_until_quiet]. *)
let fetch_round_trip t (p : part) (me : Node.t) ~kind ~uri k =
  let to_host = Uri.host uri and path = Uri.path uri in
  let me_host = Node.host me in
  if not (Hashtbl.mem t.directory to_host) then k None (Sched.now p.sched)
  else begin
    let cells = cells_for p me_host in
    Obs.Metrics.Counter.incr p.c_remote_fetches;
    Obs.Metrics.Counter.incr cells.hc_fetches;
    let started = Sched.now p.sched in
    let fetch_span =
      if Obs.enabled () then
        Obs.Trace.instant ~cat:"net"
          ~args:[ ("uri", uri); ("by", me_host) ]
          ~name:"fetch" ~vt:started ()
      else 0
    in
    let done_ = ref false in
    let rec attempt n =
      let req_id = Node.fresh_req_id me in
      let cancel_timeout = ref (fun () -> ()) in
      Node.expect_response me ~req_id (fun doc at ->
          !cancel_timeout ();
          if not !done_ then begin
            done_ := true;
            let rtt = at - started in
            Obs.Metrics.Histogram.observe cells.hc_rtt (float_of_int rtt);
            Hashtbl.replace (snapshot_for p me_host) (to_host, path, kind) doc;
            k doc at
          end);
      Obs.Trace.run_under fetch_span (fun () ->
          Transport.send p.transport
            (Message.make ~msg_id:(Node.fresh_msg_id me) ~from_host:me_host ~to_host
               ~sent_at:(Sched.now p.sched)
               (Message.Get { req_id; path; kind })));
      cancel_timeout :=
        Sched.cancellable p.sched ~holds:true
          (Clock.add (Sched.now p.sched) t.policy.timeout)
          (fun at ->
            Node.forget_response me ~req_id;
            if not !done_ then
              if n < t.policy.retries then begin
                Obs.Metrics.Counter.incr cells.hc_retries;
                attempt (n + 1)
              end
              else begin
                done_ := true;
                Obs.Metrics.Counter.incr cells.hc_timeouts;
                (* no snapshot write: a stale earlier value beats
                   overwriting it with "unreachable" *)
                k None at
              end)
    in
    attempt 0
  end

let fetch t ~me ?(kind = Message.Doc) ~uri k =
  match node t me with
  | None -> invalid_arg ("Network.fetch: unknown host " ^ me)
  | Some n -> fetch_round_trip t (part_of t me) n ~kind ~uri k

(* The cross-host slice of an engine's static dependency set: what must
   be round-tripped before the node may react. *)
let cross_deps t (n : Node.t) deps =
  let me = Node.host n in
  List.filter
    (fun ((_ : [ `Doc | `Rdf ]), uri) ->
      let h = Uri.host uri in
      h <> "" && (not (String.equal h me)) && Hashtbl.mem t.directory h)
    deps

(* Refresh every listed dependency, then run [process] — immediately
   when there is nothing to fetch, otherwise inside the occurrence that
   completes the last round-trip (so the reaction is delayed by real
   network time). *)
let with_remote_snapshot t (p : part) (n : Node.t) deps process =
  match deps with
  | [] -> process ()
  | deps ->
      Obs.Metrics.Counter.incr (cells_for p (Node.host n)).hc_deferred;
      let remaining = ref (List.length deps) in
      List.iter
        (fun (rk, uri) ->
          let kind = match rk with `Doc -> Message.Doc | `Rdf -> Message.Rdf in
          fetch_round_trip t p n ~kind ~uri (fun _doc _at ->
              decr remaining;
              if !remaining = 0 then process ()))
        deps

(* Engine absence deadlines become occurrences of their own, so a rule
   like "no rebooking within 2h" fires at its due time, not at the next
   heartbeat.  Non-holding: an armed timer alone does not keep
   [run_until_quiet] going (exactly like tickers). *)
let rec advance_node t (p : part) (n : Node.t) time =
  if Hashtbl.mem p.down (Node.host n) then () (* a dead node has no clock *)
  else
  let deps = cross_deps t n (Engine.clocked_remote_resources (Node.engine n)) in
  with_remote_snapshot t p n deps (fun () ->
      let ctx = part_context p n in
      let time = max time (Sched.now p.sched) in
      ignore (Node.advance n ctx time);
      (* requeue only deadlines the advance left in the future — one the
         engine failed to clear must not spin the scheduler *)
      match Engine.next_deadline (Node.engine n) with
      | Some d when d > time -> schedule_deadline t p n d
      | Some _ | None -> ())

and schedule_deadline t (p : part) (n : Node.t) due =
  let host = Node.host n in
  let worthwhile =
    match Hashtbl.find_opt p.deadlines host with Some d -> due < d | None -> true
  in
  if worthwhile then begin
    Hashtbl.replace p.deadlines host due;
    Sched.at p.sched ~holds:false due (fun at ->
        (match Hashtbl.find_opt p.deadlines host with
        | Some d when d = due -> Hashtbl.remove p.deadlines host
        | _ -> ());
        advance_node t p n at)
  end

let schedule_engine_deadline t (p : part) (n : Node.t) =
  match Engine.next_deadline (Node.engine n) with
  | None -> ()
  | Some due -> schedule_deadline t p n due

let deliver t (p : part) (m : Message.t) =
  match Hashtbl.find_opt p.down m.Message.to_host with
  | Some q -> Queue.push m q (* host is down: held at the door until recovery *)
  | None ->
  match Hashtbl.find_opt p.nodes m.Message.to_host with
  | None -> () (* undeliverable: dropped, like the real Web *)
  | Some n ->
      let cells = cells_for p m.Message.to_host in
      let ctx = part_context p n in
      let span =
        if Obs.enabled () then
          Obs.Trace.begin_span ~cat:"net"
            ~args:
              [
                ("kind", Transport.body_kind m);
                ("from", m.Message.from_host);
                ("to", m.Message.to_host);
              ]
            ~name:"message" ~vt:(Sched.now p.sched) ()
        else 0
      in
      (match m.Message.body with
      | Message.Event e ->
          Obs.Metrics.Counter.incr cells.hc_events_in;
          let deps = cross_deps t n (Engine.remote_resources (Node.engine n)) in
          with_remote_snapshot t p n deps (fun () ->
              ignore (Node.receive_event n ctx e);
              schedule_engine_deadline t p n)
      | Message.Get { req_id; path; kind } ->
          Obs.Metrics.Counter.incr cells.hc_gets_in;
          Node.receive_get n ctx ~from:m.Message.from_host ~req_id ~path ~kind
      | Message.Response { req_id; doc } ->
          Obs.Metrics.Counter.incr cells.hc_responses_in;
          Node.receive_response n ctx ~req_id doc
      | Message.Update u ->
          Obs.Metrics.Counter.incr cells.hc_updates_in;
          let deps = cross_deps t n (Engine.remote_resources (Node.engine n)) in
          with_remote_snapshot t p n deps (fun () ->
              ignore
                (Node.receive_update n ctx ~from:m.Message.from_host ~msg_id:m.Message.msg_id u);
              schedule_engine_deadline t p n));
      Obs.Trace.end_span span ~vt:(Sched.now p.sched)

let effective_domains ?domains () =
  if Escape.no_par then 1
  else max 1 (match domains with Some d -> d | None -> Option.value ~default:1 Escape.domains)

let create ?latency ?faults ?record ?(fetch_policy = default_fetch_policy) ?domains ?lookahead
    () =
  let p_count = effective_domains ?domains () in
  let parts =
    Array.init p_count (fun id ->
        let sched = Sched.create () in
        let m = Obs.Metrics.create () in
        {
          id;
          sched;
          transport = Transport.create ~sched ?latency ?faults ?record ();
          nodes = Hashtbl.create 8;
          cells_by_host = Hashtbl.create 8;
          snapshots = Hashtbl.create 8;
          m;
          c_remote_fetches = Obs.Metrics.counter m "net.remote_fetches";
          c_fallback_misses = Obs.Metrics.counter m "net.fallback_misses";
          deadlines = Hashtbl.create 8;
          down = Hashtbl.create 4;
          c_crashes = Obs.Metrics.counter m "net.crashes";
          c_recoveries = Obs.Metrics.counter m "net.recoveries";
        })
  in
  let rings =
    Array.init p_count (fun _ -> Array.init p_count (fun _ -> Partition.Ring.create ()))
  in
  let t =
    {
      parts;
      directory = Hashtbl.create 8;
      rings;
      policy = fetch_policy;
      lookahead;
      window_rounds = 0;
      window_crossings = 0;
    }
  in
  Array.iter
    (fun p ->
      Transport.on_deliver p.transport (deliver t p);
      if p_count > 1 then
        Transport.on_handoff p.transport (fun m ~dup ~at ~release ->
            let dst = Partition.owner ~partitions:p_count m.Message.to_host in
            if dst = p.id then false
            else begin
              Partition.Ring.push t.rings.(p.id).(dst)
                { x_msg = m; x_dup = dup; x_at = at; x_release = release };
              true
            end))
    parts;
  t

let add_node t node =
  let h = Node.host node in
  if Hashtbl.mem t.directory h then Error ("duplicate host " ^ h)
  else begin
    Hashtbl.replace t.directory h node;
    Hashtbl.replace (part_of t h).nodes h node;
    Ok ()
  end

let add_node_exn t node =
  match add_node t node with
  | Ok () -> ()
  | Error e -> invalid_arg ("Network.add_node: " ^ e)

(* Fault injection: kill a host's node process at a deterministic
   virtual time and (optionally) bring it back up later.  Both
   occurrences run on the owner partition's timeline, so crash/restart
   interleaves with deliveries identically across sequential and
   sharded runs.  Holding occurrences: a pending recovery keeps
   [run_until_quiet] going. *)
let schedule_crash t ~host ~at ?recover_at () =
  match node t host with
  | None -> invalid_arg ("Network.schedule_crash: unknown host " ^ host)
  | Some n ->
      (match recover_at with
      | Some rt when rt <= at ->
          invalid_arg "Network.schedule_crash: recover_at must be after at"
      | _ -> ());
      let p = part_of t host in
      Sched.at p.sched ~holds:true at (fun _now ->
          if not (Hashtbl.mem p.down host) then begin
            Hashtbl.replace p.down host (Queue.create ());
            Obs.Metrics.Counter.incr p.c_crashes;
            (* queued deadline occurrences for this host die with it;
               recovery re-arms from the rebuilt engine *)
            Hashtbl.remove p.deadlines host;
            Node.crash n
          end);
      match recover_at with
      | None -> ()
      | Some rt ->
          Sched.at p.sched ~holds:true rt (fun _now ->
              match Hashtbl.find_opt p.down host with
              | None -> ()
              | Some held ->
                  Hashtbl.remove p.down host;
                  Obs.Metrics.Counter.incr p.c_recoveries;
                  (match Node.recover n (part_context p n) with
                  | Ok _ -> ()
                  | Error _ -> () (* recovery problems are on the node's error list *));
                  (* the messages the Web held at the door while the host
                     was down arrive now, in their original order *)
                  Queue.iter (fun m -> deliver t p m) held;
                  schedule_engine_deadline t p n)

let crashes t =
  Array.fold_left (fun acc p -> acc + Obs.Metrics.Counter.value p.c_crashes) 0 t.parts

let recoveries t =
  Array.fold_left (fun acc p -> acc + Obs.Metrics.Counter.value p.c_recoveries) 0 t.parts

(* Whole-system snapshot: every partition's scheduler, transport, and
   network registries, plus every node's store and engine, stamped with
   the host they belong to.  [Obs.Metrics.merge] sums samples that
   agree on (name, labels), so the partitioned and sequential runs
   produce the same schema.  One schema for tests, the bench artifacts,
   and the CLI. *)
let metrics_snapshot t =
  let per_node =
    Hashtbl.fold
      (fun host n acc ->
        let labels = [ ("host", host) ] in
        Obs.Metrics.snapshot ~labels (Store.metrics (Node.store n))
        :: Obs.Metrics.snapshot ~labels (Engine.metrics (Node.engine n))
        :: Obs.Metrics.snapshot ~labels (Node.metrics n)
        :: acc)
      t.directory []
  in
  let per_part =
    List.concat_map
      (fun p ->
        [
          Obs.Metrics.snapshot (Sched.metrics p.sched);
          Obs.Metrics.snapshot (Transport.metrics p.transport);
          Obs.Metrics.snapshot p.m;
        ])
      (Array.to_list t.parts)
  in
  Obs.Metrics.merge (per_part @ per_node)

let metrics_json t = Json.to_string ~pretty:true (Obs.Metrics.to_json (metrics_snapshot t))

let inject t ?(sender = "external") ~to_ ~label ?ttl payload =
  (* routed through the destination's own partition: an injection is
     already on the right timeline, so it never crosses a ring and
     needs no lookahead guarantee.  The global fallback id counters are
     only ever touched here (and by harness code), always on the
     coordinating domain in program order — identical across modes. *)
  let p = part_of t (Uri.host to_) in
  let now = Sched.now p.sched in
  let to_host = Uri.host to_ in
  let event = Event.make ~sender ~recipient:to_ ~occurred_at:now ?ttl ~label payload in
  Transport.send p.transport
    (Message.make ~from_host:sender ~to_host ~sent_at:now (Message.Event event))

let add_ticker t ?host ?phase ~period f =
  let p = match host with Some h -> part_of t h | None -> t.parts.(0) in
  Sched.every p.sched ?phase ~period f

let enable_heartbeat t ~period =
  Array.iter
    (fun p ->
      Sched.every p.sched ~period (fun now ->
          Hashtbl.iter (fun _ n -> advance_node t p n now) p.nodes))
    t.parts

let quiescent t = Array.for_all (fun p -> Sched.pending p.sched = 0) t.parts

let min_opt a b = match (a, b) with None, x | x, None -> x | Some x, Some y -> Some (min x y)

let global_next_due t =
  Array.fold_left (fun acc p -> min_opt acc (Sched.next_due p.sched)) None t.parts

let global_next_holding t =
  Array.fold_left (fun acc p -> min_opt acc (Sched.next_holding p.sched)) None t.parts

(* The conservative lookahead: the minimum link latency over ordered
   host pairs that live on different partitions.  A message sent during
   a window [T, T+L) departs at or after T and arrives at or after
   T + L — at or after the window's end — so executing the window on
   every partition concurrently can never miss a cross-partition
   delivery.  [max_int] (no cross-partition pair) collapses the window
   to the whole run. *)
let conservative_lookahead t =
  match t.lookahead with
  | Some l -> max 1 l
  | None ->
      if partitions t = 1 then max_int
      else
        Array.fold_left
          (fun acc (p : part) ->
            Hashtbl.fold
              (fun from _ acc ->
                Array.fold_left
                  (fun acc (q : part) ->
                    if q.id = p.id then acc
                    else
                      Hashtbl.fold
                        (fun to_ _ acc ->
                          min acc (Transport.latency p.transport ~from ~to_))
                        q.nodes acc)
                  acc t.parts)
              p.nodes acc)
          max_int t.parts

exception Causality of string

(* Inject every crossing accumulated during the last window on its
   destination timeline.  Runs on the coordinating domain at the
   barrier, when no partition is executing. *)
let drain_rings t =
  Array.iter
    (fun row ->
      Array.iteri
        (fun dst ring ->
          match Partition.Ring.drain ring with
          | [] -> ()
          | crossings ->
              let q = t.parts.(dst) in
              List.iter
                (fun { x_msg; x_dup; x_at; x_release } ->
                  t.window_crossings <- t.window_crossings + 1;
                  if x_at < Sched.now q.sched then
                    raise
                      (Causality
                         (Fmt.str
                            "delivery %s->%s at %d behind partition %d clock %d (lookahead \
                             exceeds a link latency)"
                            x_msg.Message.from_host x_msg.Message.to_host x_at dst
                            (Sched.now q.sched)));
                  Transport.inject q.transport x_msg ~dup:x_dup ~at:x_at ~release:x_release)
                crossings)
        row)
    t.rings

(* Run every partition's timeline through conservative windows until no
   occurrence at or before [until] remains, then leave all clocks at
   [until].  [phase] executes one job per partition with a full barrier
   (in parallel on the pool, or inline when sequential / tracing). *)
let windows t phase ~until =
  let lookahead = conservative_lookahead t in
  let rec go () =
    match global_next_due t with
    | Some next_due when next_due <= until ->
        let stop = Partition.window_stop ~next_due ~lookahead ~until in
        (* an unbounded window (infinite lookahead, or one covering the
           whole call) is not a synchronisation round *)
        if stop < until then t.window_rounds <- t.window_rounds + 1;
        phase (fun i -> Sched.run_until t.parts.(i).sched stop);
        drain_rings t;
        go ()
    | Some _ | None -> Array.iter (fun p -> Sched.run_until p.sched until) t.parts
  in
  go ()

let run_phases t phase ~until =
  windows t phase ~until;
  (* timer phase: advance every node's engine to [until]; firings may
     send messages or schedule deliveries due exactly now *)
  phase (fun i ->
      let p = t.parts.(i) in
      Hashtbl.iter (fun _ n -> advance_node t p n until) p.nodes);
  drain_rings t;
  windows t phase ~until

(* Phase executor.  Parallel execution is the vehicle, not the
   semantics: the inline executor runs the exact same phases in
   partition order, and is used when there is a single partition, when
   tracing is on (the trace buffer is global and unsynchronised), and
   under [XCHANGE_NO_PAR=1]. *)
let with_phase t f =
  let p_count = partitions t in
  if p_count = 1 || Obs.enabled () then
    f (fun job ->
        for i = 0 to p_count - 1 do
          job i
        done)
  else
    Partition.Pool.with_pool ~workers:(p_count - 1) (fun pool ->
        f (fun job -> Partition.Pool.phase pool job))

let run t ~until = with_phase t (fun phase -> run_phases t phase ~until)

let run_until_quiet t ?(limit = 1_000_000_000) () =
  with_phase t (fun phase ->
      let rec loop () =
        match global_next_holding t with
        | Some next when next <= limit ->
            run_phases t phase ~until:next;
            loop ()
        | Some _ | None -> ()
      in
      loop ());
  clock t

let window_rounds t = t.window_rounds
let window_crossings t = t.window_crossings
