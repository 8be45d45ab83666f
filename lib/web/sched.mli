(** The discrete-event scheduler: one timeline for the whole simulated
    Web.

    Every future occurrence — a message delivery, a polling tick, an
    engine heartbeat, a rule timer deadline, a fetch timeout — is a
    thunk on one priority queue ordered by [(time, sequence number)].
    The scheduler owns the global clock: time only moves when the next
    occurrence is executed, so the simulation is deterministic and
    replayable bit-for-bit.

    Occurrences come in two flavours for quiescence purposes:
    {e holding} occurrences (message deliveries, fetch timeouts)
    represent outstanding communication and keep
    [Network.run_until_quiet] going; {e non-holding} occurrences
    (periodic tickers, engine timer deadlines) fire when time reaches
    them but never hold the simulation open by themselves. *)

open Xchange_event
open Xchange_obs

type t

(** Tie-break order within one instant.  [Local] occurrences carry the
    timeline's own sequence numbers; message deliveries are ranked by
    the sender-stamped message identity [(origin host, per-origin
    sequence, duplicate lane)] instead, which is computable on whatever
    timeline the sender runs.  This is what makes the sharded parallel
    scheduler ({!Partition}) bit-identical to the sequential run: the
    merged delivery order depends only on the stamps, never on which
    queue an occurrence waited in.  At equal time, every [Local]
    occurrence runs before every [Msg] delivery. *)
module Rank : sig
  type t =
    | Local of int
    | Msg of { origin : string; n : int; dup : int }

  val compare : t -> t -> int
end

val create : ?origin:Clock.time -> unit -> t

val now : t -> Clock.time
(** The global simulation clock. *)

val at : t -> ?holds:bool -> Clock.time -> (Clock.time -> unit) -> unit
(** Schedule a one-shot occurrence.  Times in the past are clamped to
    [now] (it still runs via the queue, never re-entrantly).  The thunk
    receives the clock value at execution.  [holds] (default [true])
    marks the occurrence as outstanding communication for {!pending} /
    {!next_holding}. *)

val at_msg :
  t -> ?holds:bool -> origin:string -> n:int -> dup:int -> Clock.time -> (Clock.time -> unit) -> unit
(** Schedule a message delivery, ranked by its sender stamp (see
    {!Rank}).  [dup] is 0 for the original copy, 1 for a fault-injected
    ghost.  If the exact [(time, origin, n, dup)] slot is already taken
    (only possible for raw harness messages that reuse a counter), the
    delivery steps to the next free [dup] lane instead of replacing the
    earlier entry. *)

val after : t -> ?holds:bool -> Clock.span -> (Clock.time -> unit) -> unit
(** [after t span f] = [at t (now t + span) f]. *)

val cancellable : t -> ?holds:bool -> Clock.time -> (Clock.time -> unit) -> unit -> unit
(** Like {!at}, but returns a cancel thunk.  Cancelling removes the
    occurrence from the queue (and from the holding count); cancelling
    after it has executed is a no-op.  Used for timeouts that are
    usually beaten by the event they guard. *)

val every : t -> ?phase:Clock.span -> period:Clock.span -> (Clock.time -> unit) -> unit
(** A recurring occurrence, first at [now + phase] (default: [period]),
    then every [period].  Recurring occurrences never hold the
    simulation open. *)

val next_due : t -> Clock.time option
(** Time of the earliest queued occurrence of any kind. *)

val next_holding : t -> Clock.time option
(** Time of the earliest {e holding} occurrence ([None] when only
    tickers and timers remain). *)

val pending : t -> int
(** Number of queued holding occurrences. *)

val queue_length : t -> int
(** All queued occurrences (including recurring ones). *)

val run_until : t -> Clock.time -> unit
(** Execute every occurrence due at or before the given time, in
    [(time, seq)] order — thunks may schedule further occurrences,
    which are executed in turn if due — then set the clock to the given
    time (if later). *)

val step : t -> bool
(** Execute the earliest occurrence (advancing the clock to it);
    [false] when the queue is empty. *)

val metrics : t -> Obs.Metrics.t
(** The scheduler's registry: [sched.scheduled] (one-shot occurrences
    ever enqueued), [sched.executed] (occurrences run, ticker firings
    included), the [sched.max_queue] gauge (high-water mark of the
    queue length), plus pull gauges [sched.queue_length],
    [sched.holding], and [sched.now]. *)
