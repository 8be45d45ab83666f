(** The local reactive rule engine (Thesis 2).

    One engine per Web site: "each Web site manages its own rule base
    and determines locally which of the rules fire."  The engine owns
    the compiled event-query state of every rule, ECA and event
    derivation alike; it acts on the world only through the capability
    records it is handed ([env] for reading, [ops] for writing), so
    global behaviour arises exclusively from event-based communication
    and Web data access.

    Expired events (Thesis 4) are dropped on arrival, before any rule
    sees them. *)

open Xchange_query
open Xchange_event
open Xchange_obs

type t

val create :
  ?horizon:Clock.span ->
  ?index:bool ->
  ?share:bool ->
  ?fresh_event_id:(unit -> int) ->
  Ruleset.t ->
  (t, string) result
(** Validates the rule set (duplicate names, unresolved procedure
    calls), every rule's event query, and the event derivation program
    ({!Deductive_event.stratify}), then compiles one incremental engine
    per rule: the ECA rules, then the derivation rules in stratum order.

    Dispatch has two paths.  By default every rule atom is registered
    in a shared {!Sub_index}: an event reaches only rules with an atom
    whose label {e and} payload fingerprint it can satisfy, plus the
    rules whose engine observes time ({!Incremental.observes_time}:
    absence timers, horizon-pruned or accumulated join state).  Such
    {e clocked} rules, ECA and derivation alike, see every input.  A {e terminal} ECA rule — one
    whose whole event query the {!Beta} network shares as one node — is
    reached through its node instead (Rete's terminal-node activation):
    the node's atoms are registered once for all its rules, the node is
    stepped once on every event of a batch that reaches it, and its
    rules are fed only when it detected something in the batch, so the
    work per event follows detections, not subscribers.  The other
    path, selected by [~index:false], is the oracle, the full scan:
    every rule is clocked, so every event batch and every clock advance
    reaches every rule, and the inner engines join with nested loops
    instead of hash-partitioned join stores.  Outcomes are identical on both paths
    (property-tested); use the oracle only for that comparison.
    [index] defaults to true unless [XCHANGE_NO_SUBINDEX=1] is set; an
    explicit [~index] wins.

    [share] (default: on unless [XCHANGE_NO_SHARE=1]; an explicit
    [~share] wins) deduplicates rule evaluation across the whole rule
    base through two shared networks.  The {!Alpha} network dedupes
    atomic event matchers: structurally-identical atoms evaluate a given
    occurrence once and fan the substitutions out to every subscribing
    rule, of either kind, so large rule sets
    with overlapping patterns pay per {e distinct} pattern, not per
    rule.  The {!Beta} network dedupes composite join state: rules
    whose (alpha-renamed) And/Seq/Times subtrees coincide share one
    join pipeline and one instance store, each event joined once per
    distinct subtree — per-rule state shrinks to a thin projection
    (variable renaming, selection, consumption, firing).  Shared and
    unshared outcomes are identical (property-tested, [test_alpha] /
    [test_beta]). *)

(** [fresh_event_id] allocates ids for the events the derivation rules
    derive (typically the owning node's origin lane, see
    {!Event.scoped_id}); preserved across {!load_ruleset}.  Defaults to
    the global [Event] counter. *)

val create_exn :
  ?horizon:Clock.span ->
  ?index:bool ->
  ?share:bool ->
  ?fresh_event_id:(unit -> int) ->
  Ruleset.t ->
  t

type outcome = {
  firings : Eca.firing list;
  derived_events : Event.t list;
  errors : (string * string) list;  (** (qualified rule name, message) *)
}

val handle_event : t -> env:Condition.env -> ops:Action.ops -> Event.t -> outcome
(** Feeds the batch of the event and what the derivation rules derive
    from it.  {!handle_event} and {!advance} run one batch function:
    each event of the batch is looked up in the sub-index once, and its
    keys serve the derivation rules and the ECA rules alike.  A batch
    reaches the clocked rules, the other rules any of its events is a
    candidate for, and the terminal rules of every node that detected
    something in it (every rule on the full scan).  The derivation
    rules run first, in stratum order: one reached by the batch so far
    is fed it, and what it derives joins the batch.  Each ECA rule
    reached then gets the whole batch, in ascending rule order, so
    firings come out as under the full scan.  The other rules are
    skipped; their feeds would be no-ops.  [engine.rules_fed] and
    [engine.rules_skipped] count both sides.  A payload error of a
    derivation rule derives nothing and is reported in [errors]. *)

val advance : t -> env:Condition.env -> ops:Action.ops -> Clock.time -> outcome
(** Moves the engine clock: absence deadlines can fire rules.  Runs the
    batch of {!handle_event} on no event, and advances only the clocked
    rules: a bare clock advance cannot make any other rule fire.  A
    derivation rule is advanced before it is fed; an ECA rule is fed
    first, and its timer detections fire first.  Costs O(clocked +
    reached rules), not O(rules); [engine.rules_advanced] counts the
    rules advanced.  [~index:false] advances every rule. *)

val load_ruleset : t -> Ruleset.t -> (t, string) result
(** Meta-programming support (Thesis 11): a new rule set received as a
    message is merged as a child of the engine's root rule set; the
    result is a fresh engine sharing no event state with [t], created
    with [t]'s [horizon], [index], [share] and [fresh_event_id].
    Existing compiled state of [t] is unaffected. *)

val ruleset : t -> Ruleset.t
val rule_names : t -> string list

(** {1 Scheduler integration (Theses 2-3, 10)}

    The engine never talks to the network itself, but the Web substrate
    needs two static facts to drive it from a discrete-event scheduler:
    which remote resources rule processing can read (prefetched through
    real Get/Response round-trips before the engine runs), and when the
    next rule timer is due (scheduled as an occurrence instead of
    relying on heartbeat polling). *)

val remote_resources : t -> ([ `Doc | `Rdf ] * string) list
(** Remote URIs any rule condition, embedded action condition, visible
    view body, or procedure body can touch.  Sorted, deduplicated;
    recomputed by {!load_ruleset}. *)

val clocked_remote_resources : t -> ([ `Doc | `Rdf ] * string) list
(** The prefetch set for engine {!advance}: the remote URIs of the
    timer-bearing ECA rules, or all of {!remote_resources} when a
    derivation rule has absence timers (the event it derives on an
    advance can reach any rule).  Empty when nothing has absence
    timers. *)

val next_deadline : t -> Clock.time option
(** Earliest pending absence deadline across the clocked rules, the
    only ones that can hold one ([None] when no timer is armed). *)

(** {1 Dispatch observability} *)

val metrics : t -> Obs.Metrics.t
(** The engine's registry.  Dispatch counters, kept on both paths:
    [engine.dispatch_lookups] (event batches routed; an {!advance}
    counts none),
    [engine.rules_fed] ((rule, event) feeds; a terminal rule that is
    not clocked counts only in batches where its node detected
    something, so on a rule base of shared composite rules the count
    tracks firings, not subscribers; an ECA rule counts on event
    batches only, a derivation rule, on {!advance} too, counts the
    batch so far each time it is reached),
    [engine.rules_skipped] (rules a batch did not reach, always zero
    under [~index:false]; an ECA rule counts on event batches only, a
    derivation rule on {!advance} too) and [engine.rules_advanced]
    (rules {!advance} moved the clock of).
    [engine.events_seen] counts {!handle_event} calls and
    [engine.condition_evaluations] the rule branch conditions
    evaluated.  Pull cells sample what the inner engines own:
    [engine.live_instances] (stored partial matches across all rules
    plus the shared beta pipelines, the Thesis 4 memory proxy) and
    [engine.join.*] (probes, pairs probed and skipped, instances
    pruned), summed over every rule engine, ECA and derivation, and
    the shared beta pipelines.  [index] also selects the
    storage mode of the inner engines, so comparing [engine.join.*]
    across the two modes measures the composite-event hot path in
    isolation.  The shared networks register their [alpha.*] and
    [beta.*] cells here ({!Alpha.metrics}, {!Beta.metrics}; absent
    under [~share:false]) and the sub-index its [subindex.*] cells
    ({!Sub_index.metrics}; absent on the full scan; [subindex.lookups]
    counts one per event of a batch).  When tracing is
    on ({!Obs.set_enabled}), {!handle_event} also emits an [event]
    span with nested [detect] / [firing] spans per reacting rule. *)
