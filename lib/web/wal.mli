(** Per-node write-ahead log: durability for reactive rules.

    Reactive rules are only trustworthy Web infrastructure if their
    effects survive node failure.  The WAL records, {e before} the node
    acts on them, every input that drives its state machine — network
    events (including reified rule sets, Thesis 11), accepted remote
    updates, engine-clock advances — plus an audit stream of applied
    store mutations and rule firings, in a length-prefixed, checksummed
    binary format.  {!record.Snapshot} records embed the whole recovery
    baseline: the store snapshot, the node's id-lane counters, the dedup
    set, and the engine's recent input tail (what is needed to re-prime
    composite-event state within the horizon).

    {b Cost proportional to change.}  The owner snapshots on the
    {!snapshot_due} cadence and {!compact} copies frames, so durability
    costs O(1) per logged byte and the log holds little more than twice
    its last snapshot.

    The log is an append-only byte device held in memory (the simulated
    Web has no disk), exposed as bytes ({!contents} / {!of_string} /
    {!to_file}) so harnesses can persist, corrupt, and pin it.

    {b Corruption tolerance.}  Decoding ({!records}) returns the longest
    valid prefix and a {!stop} describing why it ended: a truncated
    tail, a torn (half-written) frame, or a checksum mismatch all stop
    replay at the last valid record — they never raise.

    Recovery itself lives in {!Node.recover}; {!replay_store} is the
    physical-redo half (mutations only), used by the replay benchmark
    and by store-level tools. *)

open Xchange_data
open Xchange_event
open Xchange_rules
open Xchange_obs

(** One engine input, in arrival order: what {!Node} feeds its engine.
    The snapshot's tail of these re-primes composite-event state. *)
type tail_entry = T_event of Event.t | T_advance of Clock.time

type snapshot = {
  s_at : Clock.time;
  s_store : Term.t;  (** {!Store.snapshot} of the whole store *)
  s_event_n : int;  (** id-lane counters at snapshot time … *)
  s_msg_n : int;
  s_req_n : int;  (** … restored {e after} tail priming, which re-runs
                      the allocations the tail performed the first time *)
  s_firings : int;
  s_seen : int list;  (** processed event ids (idempotent-receiver set) *)
  s_seen_updates : (string * int) list;  (** processed remote-update identities *)
  s_logs : string list;  (** node log lines, newest first *)
  s_errors : (string * string) list;  (** recorded rule errors, newest first *)
  s_tail : tail_entry list;  (** engine inputs still within the horizon, oldest first *)
}

type record =
  | Event of Event.t
      (** a network event accepted for processing (logged write-ahead,
          already stamped with its reception time) *)
  | Remote_update of { from : string; msg_id : int; at : Clock.time; update : Action.update }
      (** an accepted remote update request, stamped with its reception
          time so replay regenerates identical cascade timestamps *)
  | Advance of Clock.time  (** an engine-clock advance (absence timers) *)
  | Update of Action.update
      (** a store mutation that committed (physical redo / audit; logical
          recovery re-derives these by re-executing the inputs above) *)
  | Firing of { rule : string; at : Clock.time }  (** audit only *)
  | Snapshot of snapshot

type t

val create : ?metrics:Obs.Metrics.t -> unit -> t
(** An empty log.  [metrics] registers the [wal.*] cells (appends,
    appended_bytes, snapshots, snapshot_bytes, compactions, rollback
    truncations, replayed updates, corrupt stops; the gauges bytes and
    records) in the given registry — typically the owning node's.  The
    two byte counters count whole frames as appended and never fall. *)

val append : t -> record -> unit

val size_bytes : t -> int
val appended : t -> int
(** Frames in the log (decoded valid, for logs loaded from bytes). *)

val snapshot_due : t -> bool
(** The snapshot cadence: [true] once the frames after the last
    [Snapshot] frame take at least as many bytes as that frame, or when
    the log has none.  There is no constant: a node whose state is large
    snapshots rarely, one that logs much snapshots often, and snapshot
    bytes stay within the other bytes logged plus the last snapshot's. *)

type mark
(** A position in the log.  {!truncate} drops everything appended after
    it — how transactional rollback keeps the mutation audit honest:
    mutations of an aborted [Atomic] block never stay logged. *)

val mark : t -> mark
val truncate : t -> mark -> unit

(** Why decoding stopped. *)
type stop =
  | Clean  (** end of log *)
  | Corrupt of string  (** truncated tail / torn frame / bad checksum /
                           undecodable payload — replay keeps the valid
                           prefix and reports the reason *)

val records : t -> record list * stop
(** Decode from the start; never raises. *)

val drop_corrupt_tail : t -> unit
(** Cut the log to its longest valid prefix.  Recovery calls this
    before appending again: new frames written after garbage bytes
    would be unreachable to every future replay.  No effect on a log
    whose every byte is valid, which a log built by {!append} is. *)

val compact : t -> keep:(Event.t -> bool) -> unit
(** Drop every record preceding the last [Snapshot], except the [Event]
    records [keep] selects (the node keeps reified-rule-set events:
    loaded rules are engine structure, not snapshot state).  Kept frames
    retain their order before the snapshot.  Frames are copied verbatim
    — header, checksum and payload — so the result is byte-identical to
    decoding the log, filtering it and re-appending what is kept, but
    only the [Event] frames before the snapshot are decoded, and the
    snapshot never is.  No snapshot, no effect; nor on a log loaded from
    bytes with a corrupt tail, until {!drop_corrupt_tail} has run: a log
    that cannot be fully read is never rewritten. *)

val contents : t -> string
val of_string : string -> t
(** Wrap raw bytes (possibly corrupt) as a log; {!appended} counts the
    valid prefix. *)

val to_file : t -> string -> unit
val of_file : string -> (t, string) result

val replay_store : t -> Store.t -> (int, string) result
(** Physical redo: apply every [Update] record, in order, to the store;
    returns the number applied.  Stops with [Error] at the first
    mutation the store rejects (replaying onto the wrong base).  Other
    record kinds are skipped. *)

val crc32 : string -> int32
(** The frame checksum (IEEE 802.3 polynomial), exposed for corpus
    tooling and tests. *)
