(** The simulated Web: nodes + transports + one or more {!Sched}
    timelines.

    A deterministic discrete-event simulation.  Everything that happens
    later — message deliveries, polling tickers, engine heartbeats,
    rule-timer deadlines, fetch timeouts — is an occurrence on a
    scheduler queue, executed in [(time, rank)] order.  Determinism is
    what lets every experiment in EXPERIMENTS.md be re-run bit-for-bit,
    including runs with fault injection (drops, duplicates, jitter):
    message fates are deterministic functions of sender-stamped message
    identities (see {!Transport.fault_profile}).

    {b Multicore.}  The network can shard its hosts across OCaml 5
    domains ([?domains], default from [XCHANGE_DOMAINS]): each
    partition owns a private timeline and transport and advances
    through {e conservative lookahead windows} (see {!Partition}),
    exchanging cross-partition messages at barriers.  Delivery order is
    governed by sender stamps in every mode, so the partitioned run is
    {e bit-identical} to the sequential one — the sequential path
    ([~domains:1], or [XCHANGE_NO_PAR=1]) is the differential oracle.
    Between driver calls ({!run} / {!run_until_quiet}) all partition
    clocks agree and every structure may be inspected freely; user
    callbacks (tickers, fetch continuations) run on the owning
    partition's domain and must only touch that host's state.

    Remote condition queries ([Condition.Remote uri]) are {e real}
    asynchronous Get/Response round-trips.  Because the resources a
    rule set can touch are statically known
    ({!Xchange_rules.Engine.remote_resources}), the network prefetches
    them when an event or update message arrives and defers the
    node's reaction until the round-trips complete — so "access
    persistent data from anywhere on the Web" (Thesis 2) pays its true
    latency and traffic cost, and survives lost Responses by retrying
    (see {!fetch_policy}). *)

open Xchange_data
open Xchange_event
open Xchange_obs

type t

(** Retry-with-timeout policy for remote fetches.  A round-trip whose
    Response has not arrived after [timeout] is retried (a fresh Get
    with a fresh request id) up to [retries] times before giving up
    and answering the pending condition with "no document". *)
type fetch_policy = { timeout : Clock.span; retries : int }

val default_fetch_policy : fetch_policy
(** [{ timeout = 60; retries = 2 }] — generous against the default
    5 ms link latency, tight enough that tests stay fast. *)

exception Causality of string
(** Raised when a cross-partition delivery lands behind its destination
    clock — only possible when an explicit [?lookahead] overstates a
    link latency.  The derived default can never trip it. *)

val create :
  ?latency:(from:string -> to_:string -> Clock.span) ->
  ?faults:Transport.faults ->
  ?record:bool ->
  ?fetch_policy:fetch_policy ->
  ?domains:int ->
  ?lookahead:Clock.span ->
  unit ->
  t
(** [faults] injects message loss, duplication and jitter (see
    {!Transport.fault_profile});
    [record] keeps a full message trace (see {!trace}).

    [domains] (default: [XCHANGE_DOMAINS], else 1) is the number of
    scheduler partitions; hosts are assigned by {!Partition.owner}.
    [XCHANGE_NO_PAR=1] forces 1 whatever is requested.  More partitions
    than hosts is harmless (the extras idle).  [lookahead] overrides
    the conservative window width, normally derived as the minimum
    cross-partition link latency; overstating it raises {!Causality}. *)

val add_node : t -> Node.t -> (unit, string) result
(** [Error] when a node with the same host name is already attached. *)

val add_node_exn : t -> Node.t -> unit

val node : t -> string -> Node.t option
val node_exn : t -> string -> Node.t
val hosts : t -> string list

val partitions : t -> int
(** Number of scheduler partitions (1 = sequential). *)

val clock : t -> Clock.time
(** The simulation clock.  Between driver calls every partition's clock
    agrees; this reads partition 0's. *)

val sched : t -> Sched.t
(** Partition 0's timeline — the whole network's when sequential.
    Harness code scheduling directly here composes with partitioned
    runs (local occurrences on any timeline order before deliveries at
    the same instant). *)

val transport_stats : t -> Transport.stats
(** Summed over partition transports. *)

val metrics : t -> Obs.Metrics.t
(** Partition 0's network-layer registry (the only one when
    sequential).  Host-scoped cells live in the owning partition's
    registry — see {!registry_for}; {!metrics_snapshot} merges them
    all.  Per host, labelled [("host", h)] and created on the host's
    first traffic: [node.events_in] (event messages delivered),
    [node.gets_in], [node.responses_in], [node.updates_in],
    [node.deferred_events] (deliveries held back behind remote prefetch
    round-trips), [node.fetches] (round-trips started),
    [node.fetch_retries], [node.fetch_timeouts] (round-trips abandoned
    after retries), and the [node.fetch_rtt_ms] summary of completed
    round-trips (count, sum, max). *)

val registry_for : t -> host:string -> Obs.Metrics.t
(** The registry of the partition owning [host] — where cells that a
    host's callbacks (pollers, tickers) update must live, so only the
    owning domain ever writes them. *)

val metrics_snapshot : t -> Obs.Metrics.sample list
(** Whole-system snapshot: every partition's scheduler, transport, and
    network registries, plus every attached node's store and engine
    registries stamped with a [host] label.  Merging sums samples that
    agree on (name, labels), so partitioned and sequential runs emit
    the same schema — except that gauges sum too: [sched.max_queue] is
    the sum of the per-partition high-water marks.  One schema for
    tests, bench artifacts, and the CLI ([--metrics]). *)

val metrics_json : t -> string
(** {!metrics_snapshot} pretty-printed as JSON. *)

val trace : t -> Message.t list
(** Recorded messages, ordered by send time then sender stamp; empty
    unless created with [record:true]. *)

val remote_fetches : t -> int
(** Cross-host fetch round-trips started (Doc and RDF alike). *)

val fallback_misses : t -> int
(** Remote condition reads that found no prefetched snapshot (the
    fetch timed out after retries, or the resource was not in the
    engine's static dependency set).  They evaluate as "no document" —
    a nonzero count is the honest signature of a degraded network. *)

val context_for : t -> Node.t -> Node.context
(** The capabilities the network grants a node (used internally and by
    tests that drive nodes directly).  The query environment reads
    cross-host resources from the node's fetched-snapshot table;
    driving a node directly without prior round-trips sees misses. *)

val fetch :
  t ->
  me:string ->
  ?kind:Message.res_kind ->
  uri:string ->
  (Term.t option -> Clock.time -> unit) ->
  unit
(** Start one Get/Response round-trip from host [me] (which must be
    attached) to the owner of [uri], with timeout/retry per the fetch
    policy.  The continuation receives the document (or [None]) and
    the completion time.  Pollers are built on this. *)

val inject : t -> ?sender:string -> to_:string -> label:string -> ?ttl:Clock.span -> Term.t -> unit
(** Send an external stimulus event to a node (scheduled through the
    destination partition's transport like any other message). *)

val add_ticker :
  t -> ?host:string -> ?phase:Clock.span -> period:Clock.span -> (Clock.time -> unit) -> unit
(** Run a callback every [period] ms, first at [phase] (default:
    [period]).  Tickers never hold {!run_until_quiet} open.  [host]
    places the ticker on that host's partition timeline (required when
    the callback touches the host's node, as pollers do); default:
    partition 0. *)

val enable_heartbeat : t -> period:Clock.span -> unit
(** Advance every node's engine each period (one ticker per
    partition).  Engine absence deadlines, event-derivation timers
    included, are also scheduled precisely as occurrences of their own,
    so the heartbeat is only needed as a safety net for engines whose
    deadlines arise outside message processing. *)

val run : t -> until:Clock.time -> unit
(** Execute every occurrence due at or before [until] in time order,
    then advance all engines to [until] (scheduling any round-trips
    clocked rules need) and drain what that made due.  Partitioned
    networks do this in conservative lookahead windows with barrier
    exchanges; the result is bit-identical. *)

val run_until_quiet : t -> ?limit:Clock.time -> unit -> Clock.time
(** Run while holding occurrences (message deliveries, fetch timeouts)
    remain; tickers and engine deadlines do not hold the simulation
    open.  Returns the final clock.  [limit] (default 10^9 ms) bounds
    runaway rule cascades. *)

val quiescent : t -> bool

(** {1 Crash injection}

    The durability counterpart of the transport's fault profile: a node
    process is killed at a deterministic virtual time and later reboots
    and recovers from its write-ahead log ({!Node.recover}).  The
    network infrastructure survives the crash — in-flight messages keep
    flying, and messages reaching a dead host are held at its door and
    redelivered on recovery, in order.  Under [XCHANGE_NO_WAL] (or for
    [durable:false] nodes) the same schedule exercises amnesic reboot
    instead. *)

val schedule_crash :
  t -> host:string -> at:Clock.time -> ?recover_at:Clock.time -> unit -> unit
(** Kill [host] at virtual time [at]; with [recover_at] (strictly after
    [at]), reboot and recover it then.  Without [recover_at] the host
    stays down.  Both occurrences hold {!run_until_quiet} open and run
    on the host's own partition timeline, so crash interleaving is
    bit-identical across sequential and sharded runs. *)

val crashes : t -> int
val recoveries : t -> int

(** {1 Partitioning observability} *)

val window_rounds : t -> int
(** Barrier-synchronised window rounds executed so far (0 when every
    run completed in a single unbounded window, e.g. sequentially). *)

val window_crossings : t -> int
(** Deliveries that crossed partitions through handoff rings. *)
