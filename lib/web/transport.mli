open Xchange_event
open Xchange_obs

(** Point-to-point message transport (Thesis 3).

    Messages travel directly between nodes — no broker, no super-peer.
    The transport owns no clock and no queue of its own: every send is
    scheduled as a {e holding} occurrence on the owning {!Sched}
    timeline at [departure + latency(from, to) + jitter], and the
    delivery callback installed with {!on_deliver} runs when the
    scheduler reaches that instant.  The transport keeps the traffic
    statistics (messages, bytes, per-kind counts) that experiments
    E2/E3 report, and is where network degradation is injected: message
    loss, duplication, and jitter-induced reordering (E2/E3/E10
    robustness profiles).

    Under domain sharding each partition owns one transport.  A send
    whose destination lives on another partition is intercepted by the
    {!on_handoff} hook and re-scheduled on the destination's timeline
    via {!inject}; delivery order is governed by the message's sender
    stamp [(from_host, msg_id, dup)] in both cases, so the merged
    execution is bit-identical to the single-timeline run. *)

(** Legacy view: {!stats} builds this record from the transport's
    {!Obs.Metrics} registry cells at call time (a snapshot, not a live
    reference). *)
type stats = {
  mutable messages : int;
  mutable bytes : int;
  mutable events : int;
  mutable gets : int;
  mutable responses : int;
  mutable updates : int;
  mutable dropped : int;
  mutable duplicated : int;  (** extra copies injected by the fault profile *)
}

(** Fault-injection knobs.  All three are deterministic functions of the
    message (typically of its [(from_host, msg_id)] identity), so
    degraded runs replay bit-for-bit — on one timeline or many. *)
type faults = {
  drop : Message.t -> bool;  (** lose the message after accounting it *)
  duplicate : Message.t -> bool;  (** deliver a second copy later *)
  jitter : Message.t -> Clock.span;  (** extra delay on top of the link
                                         latency; enough jitter reorders
                                         messages between the same pair
                                         of hosts *)
}

val no_faults : faults

val fault_profile :
  ?seed:int ->
  ?drop_rate:float ->
  ?dup_rate:float ->
  ?max_jitter:Clock.span ->
  unit ->
  faults
(** A deterministic pseudo-random profile: each message's fate is a hash
    of [(seed, from_host, msg_id)].  Rates are probabilities in [0, 1];
    jitter is uniform in [0, max_jitter].  Keying on the sender stamp
    rather than global allocation order keeps a message's fate identical
    across sequential and sharded runs. *)

type t

type handoff = Message.t -> dup:int -> at:Clock.time -> release:(unit -> unit) -> bool
(** A cross-partition routing hook: return [true] to take ownership of
    the delivery copy (the taker must eventually {!inject} it on the
    destination transport and call [release] when it fires), [false] to
    let the local timeline schedule it. *)

val create :
  sched:Sched.t ->
  ?latency:(from:string -> to_:string -> Clock.span) ->
  ?faults:faults ->
  ?record:bool ->
  unit ->
  t
(** [latency] defaults to a constant 5 ms, [faults] to {!no_faults}.
    Dropped messages are accounted in the statistics — they were sent —
    but never delivered, the failure mode absence rules and fetch
    retries compensate for.  With [record] (default false), every
    message is kept for {!trace}. *)

val on_deliver : t -> (Message.t -> unit) -> unit
(** Install the delivery callback (the network layer's dispatcher).
    Must be set before the first scheduled delivery fires. *)

val on_handoff : t -> handoff -> unit
(** Install the cross-partition routing hook (absent by default: all
    deliveries schedule on the local timeline). *)

val send : t -> Message.t -> unit
(** Account the message and schedule its delivery occurrence(s) at
    [max sent_at now + latency + jitter]. *)

val inject : t -> Message.t -> dup:int -> at:Clock.time -> release:(unit -> unit) -> unit
(** Schedule a delivery copy handed off by another partition's
    transport on {e this} transport's timeline at [at], ranked by the
    message's sender stamp.  [release] is the sender's in-flight
    accounting hook, called when the delivery fires. *)

val pending : t -> int
(** Messages sent but not yet delivered (dropped ones excluded). *)

val stats : t -> stats

val merge_stats : stats list -> stats
(** Field-wise sum — the whole-network view over per-partition
    transports. *)

val metrics : t -> Obs.Metrics.t
(** The transport's registry: [transport.messages], [transport.bytes],
    the per-kind counts, [transport.dropped] / [transport.duplicated],
    and the pull gauge [transport.in_flight].  When tracing is on
    ({!Obs.set_enabled}), every send also emits a [send] span and the
    delivery occurrence runs under it, so causality survives in-flight
    time. *)

val body_kind : Message.t -> string
(** ["event"] / ["get"] / ["response"] / ["update"] — the per-kind
    metric and span label. *)

val latency : t -> from:string -> to_:string -> Clock.span

val trace : t -> Message.t list
(** All recorded messages in send order ([] unless created with
    [record]). *)
