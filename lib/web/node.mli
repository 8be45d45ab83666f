(** A Web site: a host name, a persistent store, and a local rule engine
    (Thesis 2).

    The node is where everything meets: incoming event messages are
    handed to the engine; actions update the local store or send new
    messages; store updates are reflected back to the engine as local
    ["update"] events (which is what lets derived ECA rules react to
    data changes); and — Thesis 11 — a rule set received as an event
    with label {!rules_label} is decoded and loaded into the engine,
    provided a rule decoder has been installed and [accept_rules] is
    set.

    A node never touches other nodes directly: all remote interaction
    goes through the [send] capability and the query [env] the network
    layer provides. *)

open Xchange_data
open Xchange_query
open Xchange_event
open Xchange_rules
open Xchange_obs

type t

val rules_label : string
(** ["xchange:rules"] — events with this label carry reified rule sets. *)

val create :
  ?horizon:Clock.span ->
  ?accept_rules:bool ->
  ?accept_updates:bool ->
  ?durable:bool ->
  host:string ->
  Ruleset.t ->
  (t, string) result
(** [accept_rules] opts in to loading rule sets received as events
    (Thesis 11); [accept_updates] opts in to applying update requests
    from remote nodes (Thesis 8).  Both default to [false] — the open
    Web is an uncontrolled place (Thesis 12).

    [durable] (default [true], overridden to [false] by
    [XCHANGE_NO_WAL]) gives the node a write-ahead log: every input is
    logged before processing, and a snapshot of the whole volatile state
    is folded in after the first input and then whenever the frames
    logged since the last snapshot reach its size ({!Wal.snapshot_due}),
    so {!crash} followed by {!recover} reconstructs the node exactly and
    snapshot work stays O(1) per logged byte.  [durable:false] nodes are
    volatile: they recover amnesic. *)

val create_exn :
  ?horizon:Clock.span ->
  ?accept_rules:bool ->
  ?accept_updates:bool ->
  ?durable:bool ->
  host:string ->
  Ruleset.t ->
  t

val host : t -> string
val store : t -> Store.t
val engine : t -> Engine.t

val fresh_event_id : t -> int
(** Next id on the node's origin lane ({!Event.scoped_id}).  Every event
    the node originates — send actions, local update notifications,
    engine-derived events — is stamped from this lane-local sequence, a
    pure function of the node's own execution history; ids therefore
    come out identical whether the network runs on one timeline or
    sharded across domains.  Harness code injecting events {e as} this
    node should draw from the same allocator. *)

val fresh_msg_id : t -> int
(** Next value of the node's message sequence.  A message's identity is
    [(host, msg_id)]; fault coins and delivery ranks key on it. *)

val fresh_req_id : t -> int
(** Next value of the node's fetch-request sequence.  Response handlers
    are node-local ({!expect_response}), so per-requester uniqueness
    suffices — and keeps request ids deterministic under domain
    sharding, unlike the global {!Message.fresh_req_id} fallback. *)

val set_rule_decoder : t -> (Term.t -> (Ruleset.t, string) result) -> unit
(** Install the meta decoder (wired to {!Xchange_lang.Meta} by the
    façade; injected here to keep the Web substrate independent of the
    surface language). *)

(** Capabilities granted by the hosting network. *)
type context = {
  env : Condition.env;  (** local + remote document access *)
  send : Message.t -> unit;  (** transmit a message *)
  now : unit -> Clock.time;
}

val receive_event : t -> context -> Event.t -> Engine.outcome
(** Deliver one event: meta rule-loading, engine processing, and the
    cascade of local update events (bounded to {!max_cascade_depth};
    deeper cascades are reported as errors). *)

val receive_get :
  t -> context -> from:string -> req_id:int -> path:string -> kind:Message.res_kind -> unit
(** Answer an HTTP-style GET with a Response message ([kind = Rdf]
    requests are answered with the graph's term encoding). *)

val receive_update :
  t -> context -> from:string -> msg_id:int -> Action.update -> Engine.outcome
(** Apply an update request from a remote node (rejected, with an error
    recorded, unless the node was created with [accept_updates]); the
    resulting local [update] events cascade through the engine.  The
    [(from, msg_id)] pair is the request's identity: an already-applied
    update is dropped as a duplicate, which makes both at-least-once
    delivery and post-recovery redelivery safe. *)

val expect_response : t -> req_id:int -> (Term.t option -> Clock.time -> unit) -> unit
val receive_response : t -> context -> req_id:int -> Term.t option -> unit

val forget_response : t -> req_id:int -> unit
(** Drop a pending response handler (fetch timed out or was superseded
    by a retry); a late Response with that id is then ignored. *)

val advance : t -> context -> Clock.time -> Engine.outcome
(** Move the node's engine clock (absence rules may fire). *)

val max_cascade_depth : int

val logs : t -> string list
(** Lines written by [Log] actions, oldest first. *)

val firings : t -> int
val errors : t -> (string * string) list

val duplicate_events : t -> int
(** Network events discarded because their id had already been processed
    (at-least-once delivery made safe by the idempotent receiver). *)

val metrics : t -> Obs.Metrics.t
(** The node's registry: [node.firings], [node.duplicate_events], the
    pull cell [node.rule_errors], and — for durable nodes — the [wal.*]
    cells of the node's log. *)

(** {1 Durability (write-ahead log)} *)

val wal : t -> Wal.t option
(** The node's log; [None] for volatile nodes. *)

val checkpoint : t -> at:Clock.time -> unit
(** Fold the node's current volatile state into a [Snapshot] record and
    compact the log (reified-rule-set events are kept: they are engine
    structure, not snapshot state).  Happens automatically on the
    {!Wal.snapshot_due} cadence, and at the end of {!recover}; explicit
    calls are for harnesses that want a baseline at a known instant,
    such as the genesis checkpoint after provisioning.  No-op on
    volatile nodes, and on a crashed node until it recovers. *)

val crash : t -> unit
(** Kill the node process: store contents, engine state, logs, errors,
    pending response handlers, and dedup tables are wiped; the engine
    reboots on the provisioning-time rule set.  The WAL (the durable
    medium) and the id-lane counters survive — the latter so an amnesic
    reboot cannot re-mint ids carried by pre-crash events still in
    flight.  The network around the node is untouched: crash/restart
    scheduling is {!Network.schedule_crash}'s job. *)

val recover : t -> context -> (int, string) result
(** Rebuild the node from its WAL after {!crash}: reload pre-snapshot
    rule sets, restore the latest snapshot (store, dedup sets, logs,
    errors, counters), re-prime composite-event state from the
    snapshot's input tail, then logically replay every logged input
    after the snapshot — with sends suppressed (the pre-crash messages
    are already in the surviving network) and the clock pinned to each
    record's original time, so the rebuilt state is bit-identical to the
    pre-crash state.  A corrupt log is cut back to its longest valid
    prefix first; recovery then reconstructs everything up to the last
    valid record (the documented at-least-once window).  Returns the
    number of records replayed; [Ok 0] for volatile nodes. *)
