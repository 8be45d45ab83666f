open Xchange_core
open Xchange_data
open Xchange_query
open Xchange_event
open Xchange_rules
open Xchange_obs

let rules_label = "xchange:rules"
let max_cascade_depth = 32

(* Bound on the snapshot input tail for horizonless nodes (a horizon
   prunes by time; without one, composite state could reach arbitrarily
   far back and the tail is simply capped). *)
let max_tail_entries = 4096

type t = {
  host : string;
  store : Store.t;
  ruleset0 : Ruleset.t;
      (** the provisioning-time rule program: what a crashed node reboots
          with, before the WAL re-delivers rule sets it learned later *)
  lane : int;
      (** the node's event-id origin lane ({!Event.fresh_origin}),
          allocated at creation time on the orchestrating domain so it
          is identical across sequential and sharded runs *)
  event_n : int ref;  (** lane-local event counter, shared with the engine *)
  msg_n : int ref;  (** per-node message sequence: a message's identity
                        is [(host, msg_n)] *)
  req_n : int ref;  (** per-node fetch request sequence; response
                        handlers are node-local, so uniqueness per
                        requester suffices *)
  mutable engine : Engine.t;
  horizon : Clock.span option;
  accept_rules : bool;
  mutable decoder : (Term.t -> (Ruleset.t, string) result) option;
  mutable log_lines : string list;  (** newest first *)
  m : Obs.Metrics.t;
  mutable n_firings : int;
      (** a plain cell rather than a counter: a crash zeroes it and
          recovery reconstructs it (snapshot baseline + replay) *)
  c_duplicates : Obs.Metrics.Counter.t;
  mutable errors : (string * string) list;
  accept_updates : bool;
  mutable response_handlers : (int * (Term.t option -> Clock.time -> unit)) list;
  seen_events : (int, unit) Hashtbl.t;
      (** ids of network events already processed — the idempotent
          receiver making at-least-once delivery (duplicated messages,
          retried sends) safe *)
  seen_updates : (string * int, unit) Hashtbl.t;
      (** identities [(from_host, msg_id)] of remote updates already
          applied — same idempotence for the update channel, which also
          makes recovery replay safe against in-flight duplicates *)
  wal : Wal.t option;  (** [None]: a volatile node (recovers amnesic) *)
  snapshot_every : int;
  mutable wal_active : bool;
      (** cleared by {!crash}, restored at the end of {!recover}:
          replayed inputs are already in the log and must not be
          appended a second time *)
  tail : Wal.tail_entry Istore.Dq.t;
      (** the engine's recent input sequence (events it processed and
          clock advances), pruned to the horizon — embedded in snapshots
          to re-prime composite-event state *)
}

type context = {
  env : Condition.env;
  send : Message.t -> unit;
  now : unit -> Clock.time;
}

(* The next event id on the node's origin lane: the node's own events
   and its engine's derived events draw from one counter. *)
let next_event_id ~lane event_n () =
  incr event_n;
  Event.scoped_id ~origin:lane ~n:!event_n

(* [create] and [crash] both build the engine here, so a crash rebuilds
   it with every setting the node was created with. *)
let make_engine ~horizon ~lane ~event_n ruleset =
  Engine.create ?horizon ~fresh_event_id:(next_event_id ~lane event_n) ruleset

let create ?horizon ?(accept_rules = false) ?(accept_updates = false) ?(durable = true)
    ?(snapshot_every = 256) ~host ruleset =
  let lane = Event.fresh_origin () in
  let event_n = ref 0 in
  match make_engine ~horizon ~lane ~event_n ruleset with
  | Error e -> Error e
  | Ok engine ->
      let m = Obs.Metrics.create () in
      let wal = if durable && not Escape.no_wal then Some (Wal.create ~metrics:m ()) else None in
      let t =
        {
          host;
          store = Store.create ();
          ruleset0 = ruleset;
          lane;
          event_n;
          msg_n = ref 0;
          req_n = ref 0;
          engine;
          horizon;
          accept_rules;
          accept_updates;
          decoder = None;
          log_lines = [];
          m;
          n_firings = 0;
          c_duplicates = Obs.Metrics.counter m "node.duplicate_events";
          errors = [];
          response_handlers = [];
          seen_events = Hashtbl.create 64;
          seen_updates = Hashtbl.create 16;
          wal;
          snapshot_every = max 1 snapshot_every;
          wal_active = wal <> None;
          tail = Istore.Dq.create ();
        }
      in
      Obs.Metrics.counter_fn m "node.firings" (fun () -> t.n_firings);
      Obs.Metrics.counter_fn m "node.rule_errors" (fun () -> List.length t.errors);
      Ok t

let create_exn ?horizon ?accept_rules ?accept_updates ?durable ?snapshot_every ~host ruleset =
  match create ?horizon ?accept_rules ?accept_updates ?durable ?snapshot_every ~host ruleset with
  | Ok t -> t
  | Error e -> invalid_arg ("Node.create: " ^ e)

let host t = t.host
let store t = t.store
let engine t = t.engine
let wal t = t.wal

let fresh_event_id t = next_event_id ~lane:t.lane t.event_n ()

let fresh_msg_id t =
  incr t.msg_n;
  !(t.msg_n)

let fresh_req_id t =
  incr t.req_n;
  !(t.req_n)
let set_rule_decoder t decoder = t.decoder <- Some decoder

let note_error t rule msg = t.errors <- (rule, msg) :: t.errors

let wal_append t r =
  if t.wal_active then match t.wal with Some w -> Wal.append w r | None -> ()

let tail_time = function Wal.T_event e -> Event.time e | Wal.T_advance tm -> tm

(* Record one engine input for future snapshots; drop entries the
   horizon has aged out (and cap unconditionally). *)
let push_tail t entry ~now =
  if t.wal <> None then begin
    Istore.Dq.push_back t.tail entry;
    (match t.horizon with
    | Some h ->
        let cutoff = now - h in
        let rec drop () =
          match Istore.Dq.peek_front t.tail with
          | Some e when tail_time e < cutoff ->
              ignore (Istore.Dq.pop_front t.tail);
              drop ()
          | _ -> ()
        in
        drop ()
    | None -> ());
    while Istore.Dq.length t.tail > max_tail_entries do
      ignore (Istore.Dq.pop_front t.tail)
    done
  end

(* Build the action capabilities for one processing step; update
   notifications queue up in [pending] as local events. *)
let ops_for t ctx pending =
  let local_apply u =
    match Store.apply t.store u with
    | Error e -> Error e
    | Ok (n, notifications) ->
        wal_append t (Wal.Update u);
        List.iter
          (fun { Store.summary; _ } ->
            let ev =
              Event.make ~id:(fresh_event_id t) ~sender:t.host ~recipient:t.host
                ~occurred_at:(ctx.now ()) ~label:"update" summary
            in
            Queue.push ev pending)
          notifications;
        Ok n
  in
  let is_remote u =
    let target_host = Uri.host (Action.update_doc u) in
    if target_host <> "" && not (String.equal target_host t.host) then Some target_host
    else None
  in
  {
    Action.update =
      (fun u ->
        match is_remote u with
        | Some target_host ->
            (* a remote resource: ship the update to its owner (Thesis 8:
               updates of Web resources anywhere; asynchronous, reported as
               one affected node) *)
            let u = Action.with_update_doc u (Uri.path (Action.update_doc u)) in
            ctx.send
              (Message.make ~msg_id:(fresh_msg_id t) ~from_host:t.host ~to_host:target_host
                 ~sent_at:(ctx.now ()) (Message.Update u));
            Ok 1
        | None -> local_apply u);
    txn_update =
      (fun u ->
        match is_remote u with
        | Some target_host ->
            (* the dynamic half of transaction validation: a shipped
               update cannot be rolled back, so inside [Atomic] it is a
               failure, not a send *)
            Error
              (Fmt.str "transactional update targets remote store %s: cannot be atomic"
                 target_host)
        | None -> local_apply u);
    send =
      (fun ~recipient ~label ~ttl ~delay payload ->
        let to_host = Uri.host recipient in
        let to_host = if to_host = "" then t.host else to_host in
        let departs = Clock.add (ctx.now ()) (Option.value ~default:0 delay) in
        let event =
          Event.make ~id:(fresh_event_id t) ~sender:t.host ~recipient ~occurred_at:departs
            ?ttl ~label payload
        in
        ctx.send
          (Message.make ~msg_id:(fresh_msg_id t) ~from_host:t.host ~to_host ~sent_at:departs
             (Message.Event event)));
    log = (fun line -> t.log_lines <- line :: t.log_lines);
    now = ctx.now;
    checkpoint =
      (fun () ->
        let b = Store.backup t.store in
        let saved_pending = Queue.copy pending in
        let wal_mark =
          match t.wal with
          | Some w when t.wal_active -> Some (w, Wal.mark w)
          | _ -> None
        in
        fun () ->
          Store.rollback t.store b;
          (* rolled-back writes must not cascade update events either,
             and their [Update] audit records must leave the log: an
             aborted transaction never happened *)
          Queue.clear pending;
          Queue.transfer (Queue.copy saved_pending) pending;
          match wal_mark with Some (w, m) -> Wal.truncate w m | None -> ());
  }

(* One outcome from a sequence of them, concatenated once at the end
   rather than appended step by step. *)
let concat_outcomes outcomes =
  {
    Engine.firings = List.concat_map (fun (o : Engine.outcome) -> o.Engine.firings) outcomes;
    derived_events = List.concat_map (fun (o : Engine.outcome) -> o.Engine.derived_events) outcomes;
    errors = List.concat_map (fun (o : Engine.outcome) -> o.Engine.errors) outcomes;
  }

let empty_outcome = { Engine.firings = []; derived_events = []; errors = [] }

let record t ~at (outcome : Engine.outcome) =
  t.n_firings <- t.n_firings + List.length outcome.Engine.firings;
  List.iter
    (fun f -> wal_append t (Wal.Firing { rule = f.Eca.rule; at }))
    outcome.Engine.firings;
  t.errors <- List.rev_append outcome.Engine.errors t.errors;
  outcome

(* Run the engine on an event, then on the local update events its
   actions produced, and so on — bounded. *)
let cascade t ctx first =
  let pending = Queue.create () in
  Queue.push first pending;
  let ops = ops_for t ctx pending in
  let rec go depth acc =
    match Queue.take_opt pending with
    | None -> acc
    | Some e ->
        if depth > max_cascade_depth then begin
          note_error t "<cascade>" "update cascade exceeded maximum depth";
          acc
        end
        else begin
          push_tail t (Wal.T_event e) ~now:(Event.time e);
          let outcome = Engine.handle_event t.engine ~env:ctx.env ~ops e in
          go (depth + 1) (outcome :: acc)
        end
  in
  concat_outcomes (List.rev (go 0 []))

let load_rules t payload =
  match t.decoder with
  | None -> Error "no rule decoder installed"
  | Some decode -> (
      match decode payload with
      | Error e -> Error e
      | Ok ruleset -> (
          match Engine.load_ruleset t.engine ruleset with
          | Error e -> Error e
          | Ok engine ->
              t.engine <- engine;
              Ok ()))

(* Build and log a snapshot record of the whole volatile state, then
   compact: everything the snapshot subsumes can go, except reified
   rule sets (engine structure, not snapshot state). *)
let checkpoint t ~at =
  match t.wal with
  | None -> ()
  | Some w ->
      let keys tbl = Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort compare in
      let snap =
        {
          Wal.s_at = at;
          s_store = Store.snapshot t.store;
          s_event_n = !(t.event_n);
          s_msg_n = !(t.msg_n);
          s_req_n = !(t.req_n);
          s_firings = t.n_firings;
          s_seen = keys t.seen_events;
          s_seen_updates = keys t.seen_updates;
          s_logs = t.log_lines;
          s_errors = t.errors;
          s_tail = Istore.Dq.to_list t.tail;
        }
      in
      Wal.append w (Wal.Snapshot snap);
      Wal.compact w ~keep:(function
        | Wal.Event e -> String.equal e.Event.label rules_label
        | _ -> false)

let maybe_checkpoint t ~at =
  match t.wal with
  | Some w when t.wal_active && Wal.records_since_snapshot w >= t.snapshot_every ->
      checkpoint t ~at
  | _ -> ()

(* Process an event that is already reception-stamped (and, when the WAL
   is live, already logged) — shared by delivery and recovery replay. *)
let process_stamped t ctx event =
  if String.equal event.Event.label rules_label && t.accept_rules then begin
    (match load_rules t event.Event.payload with
    | Ok () -> ()
    | Error e -> note_error t rules_label e);
    empty_outcome
  end
  else record t ~at:(Event.time event) (cascade t ctx event)

let receive_event t ctx event =
  if Hashtbl.mem t.seen_events event.Event.id then begin
    (* at-least-once delivery: a duplicated or replayed message must not
       fire rules twice *)
    Obs.Metrics.Counter.incr t.c_duplicates;
    empty_outcome
  end
  else begin
    Hashtbl.replace t.seen_events event.Event.id ();
    let stamped = Event.received event (ctx.now ()) in
    wal_append t (Wal.Event stamped);
    let outcome = process_stamped t ctx stamped in
    maybe_checkpoint t ~at:(ctx.now ());
    outcome
  end

let receive_get t ctx ~from ~req_id ~path ~kind =
  let doc =
    match kind with
    | Message.Doc -> Store.doc t.store path
    | Message.Rdf -> Option.map Rdf.graph_to_term (Store.rdf t.store path)
  in
  ctx.send
    (Message.make ~msg_id:(fresh_msg_id t) ~from_host:t.host ~to_host:from
       ~sent_at:(ctx.now ()) (Message.Response { req_id; doc }))

let expect_response t ~req_id handler =
  t.response_handlers <- (req_id, handler) :: t.response_handlers

let forget_response t ~req_id =
  t.response_handlers <- List.remove_assoc req_id t.response_handlers

let receive_response t ctx ~req_id doc =
  match List.assoc_opt req_id t.response_handlers with
  | None -> ()
  | Some handler ->
      t.response_handlers <- List.remove_assoc req_id t.response_handlers;
      handler doc (ctx.now ())

(* The accepted-update path, shared by delivery and recovery replay
   (acceptance and dedup checks already done, WAL record already
   appended when live). *)
let apply_remote t ctx ~from update =
  match Store.apply t.store update with
  | Error e ->
      note_error t "<remote-update>" e;
      empty_outcome
  | Ok (_, notifications) ->
      wal_append t (Wal.Update update);
      (* remote writes raise the same local update events as rule
         actions, so derived ECA rules see them too *)
      let outcome =
        concat_outcomes
          (List.map
             (fun { Store.summary; _ } ->
               let ev =
                 Event.make ~id:(fresh_event_id t) ~sender:from ~recipient:t.host
                   ~occurred_at:(ctx.now ()) ~label:"update" summary
               in
               cascade t ctx ev)
             notifications)
      in
      record t ~at:(ctx.now ()) outcome

let receive_update t ctx ~from ~msg_id update =
  if not t.accept_updates then begin
    note_error t "<remote-update>"
      (Fmt.str "rejected remote update of %s from %s" (Action.update_doc update) from);
    empty_outcome
  end
  else if Hashtbl.mem t.seen_updates (from, msg_id) then begin
    (* the update channel is idempotent like the event channel: identity
       is (sender, msg_id) *)
    Obs.Metrics.Counter.incr t.c_duplicates;
    empty_outcome
  end
  else begin
    Hashtbl.replace t.seen_updates (from, msg_id) ();
    let at = ctx.now () in
    wal_append t (Wal.Remote_update { from; msg_id; at; update });
    let outcome = apply_remote t ctx ~from update in
    maybe_checkpoint t ~at;
    outcome
  end

let advance_engine t ctx time =
  push_tail t (Wal.T_advance time) ~now:time;
  let pending = Queue.create () in
  let ops = ops_for t ctx pending in
  let outcome = Engine.advance t.engine ~env:ctx.env ~ops time in
  (* update events caused by timer firings cascade as usual *)
  let outcome =
    concat_outcomes (outcome :: List.map (cascade t ctx) (List.of_seq (Queue.to_seq pending)))
  in
  record t ~at:time outcome

let advance t ctx time =
  wal_append t (Wal.Advance time);
  let outcome = advance_engine t ctx time in
  maybe_checkpoint t ~at:time;
  outcome

(* ------------------------------------------------------------------ *)
(* Crash and recovery *)

let crash t =
  t.wal_active <- false;
  (* the process dies: every piece of volatile state goes.  The id-lane
     counters are deliberately kept — an amnesic node (no WAL) must not
     re-mint ids its pre-crash events already carry, and a durable node
     overwrites them from the snapshot during recovery anyway. *)
  (match Store.load_snapshot t.store (Store.snapshot (Store.create ())) with
  | Ok () -> ()
  | Error e -> invalid_arg ("Node.crash: " ^ e));
  (match make_engine ~horizon:t.horizon ~lane:t.lane ~event_n:t.event_n t.ruleset0 with
  | Ok e -> t.engine <- e
  | Error e -> invalid_arg ("Node.crash: " ^ e));
  t.log_lines <- [];
  t.errors <- [];
  t.response_handlers <- [];
  Hashtbl.reset t.seen_events;
  Hashtbl.reset t.seen_updates;
  Istore.Dq.clear t.tail;
  t.n_firings <- 0

let noop_ops ~at =
  {
    Action.update = (fun _ -> Ok 0);
    txn_update = (fun _ -> Ok 0);
    send = (fun ~recipient:_ ~label:_ ~ttl:_ ~delay:_ _ -> ());
    log = (fun _ -> ());
    now = (fun () -> at);
    checkpoint = (fun () -> fun () -> ());
  }

let recover t ctx =
  match t.wal with
  | None -> Ok 0 (* volatile node: reboots amnesic, nothing to replay *)
  | Some w ->
      let rs, stop = Wal.records w in
      (* new appends after garbage bytes would be unreachable; cut the
         log back to its valid prefix before anything else *)
      (match stop with Wal.Clean -> () | Wal.Corrupt _ -> Wal.drop_corrupt_tail w);
      (* split at the last snapshot *)
      let pre, snap, post_rev =
        List.fold_left
          (fun (pre, snap, post) r ->
            match r with
            | Wal.Snapshot s -> (pre @ List.rev post, Some s, [])
            | r -> (pre, snap, r :: post))
          ([], None, []) rs
      in
      let post = List.rev post_rev in
      (* 1. reified rule sets learned before the snapshot are engine
         structure, not snapshot state: reload them into the fresh
         engine first (compaction keeps exactly these) *)
      if t.accept_rules then
        List.iter
          (function
            | Wal.Event e when String.equal e.Event.label rules_label -> (
                match load_rules t e.Event.payload with
                | Ok () -> ()
                | Error err -> note_error t rules_label err)
            | _ -> ())
          pre;
      (* 2. restore the snapshot baseline; the input tail re-primes the
         engine's composite-event state (with inert capabilities — its
         effects already happened), after which the id-lane counters and
         the firing count are pinned to their snapshot values, undoing
         the priming's re-allocations *)
      (match snap with
      | None -> ()
      | Some s ->
          (match Store.load_snapshot t.store s.Wal.s_store with
          | Ok () -> ()
          | Error err -> note_error t "<wal>" ("snapshot restore: " ^ err));
          List.iter (fun id -> Hashtbl.replace t.seen_events id ()) s.Wal.s_seen;
          List.iter (fun k -> Hashtbl.replace t.seen_updates k ()) s.Wal.s_seen_updates;
          t.log_lines <- s.Wal.s_logs;
          t.errors <- s.Wal.s_errors;
          let null_env = Condition.env_of_docs [] in
          List.iter
            (fun entry ->
              Istore.Dq.push_back t.tail entry;
              match entry with
              | Wal.T_event e ->
                  ignore
                    (Engine.handle_event t.engine ~env:null_env
                       ~ops:(noop_ops ~at:(Event.time e)) e)
              | Wal.T_advance tm ->
                  ignore (Engine.advance t.engine ~env:null_env ~ops:(noop_ops ~at:tm) tm))
            s.Wal.s_tail;
          t.event_n := s.Wal.s_event_n;
          t.msg_n := s.Wal.s_msg_n;
          t.req_n := s.Wal.s_req_n;
          t.n_firings <- s.Wal.s_firings);
      (match stop with
      | Wal.Clean -> ()
      | Wal.Corrupt reason ->
          note_error t "<wal>" (Fmt.str "log truncated at corruption: %s" reason));
      (* 3. logical replay of every input after the snapshot.  Sends are
         suppressed — the pre-crash transmissions are already in flight
         in the surviving network — but id allocation proceeds
         identically, so regenerated state matches what those messages
         refer to.  The clock is pinned to each record's original time
         so derived timestamps come out bit-identical. *)
      let now_cell = ref (match snap with Some s -> s.Wal.s_at | None -> Clock.origin) in
      let rctx = { env = ctx.env; send = (fun _ -> ()); now = (fun () -> !now_cell) } in
      let replayed = ref 0 in
      List.iter
        (fun r ->
          match r with
          | Wal.Event e ->
              incr replayed;
              now_cell := Event.time e;
              if not (Hashtbl.mem t.seen_events e.Event.id) then begin
                Hashtbl.replace t.seen_events e.Event.id ();
                ignore (process_stamped t rctx e)
              end
          | Wal.Remote_update { from; msg_id; at; update } ->
              incr replayed;
              now_cell := at;
              if not (Hashtbl.mem t.seen_updates (from, msg_id)) then begin
                Hashtbl.replace t.seen_updates (from, msg_id) ();
                ignore (apply_remote t rctx ~from update)
              end
          | Wal.Advance tm ->
              incr replayed;
              now_cell := tm;
              ignore (advance_engine t rctx tm)
          | Wal.Update _ | Wal.Firing _ ->
              (* audit records: logical replay re-derives the updates by
                 re-executing the inputs above *)
              ()
          | Wal.Snapshot _ -> ())
        post;
      t.wal_active <- true;
      (* fold the replayed suffix into a fresh baseline *)
      checkpoint t ~at:!now_cell;
      Ok !replayed

let logs t = List.rev t.log_lines
let firings t = t.n_firings
let errors t = List.rev t.errors
let duplicate_events t = Obs.Metrics.Counter.value t.c_duplicates
let metrics t = t.m
