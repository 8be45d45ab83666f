(** The local reactive rule engine (Thesis 2).

    One engine per Web site: "each Web site manages its own rule base
    and determines locally which of the rules fire."  The engine owns
    the compiled event-query state of every ECA rule and the node's
    event derivation network; it acts on the world only through the
    capability records it is handed ([env] for reading, [ops] for
    writing), so global behaviour arises exclusively from event-based
    communication and Web data access.

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
    calls), every rule's event query, and the (non-recursive) event
    derivation program, then compiles one incremental engine per rule.

    Dispatch has two paths.  By default every rule atom is registered
    in a shared {!Sub_index}: an event reaches only rules with an atom
    whose label {e and} payload fingerprint it can satisfy, plus the
    rules whose engine observes time ({!Incremental.observes_time}:
    absence timers, horizon-pruned or accumulated join state).  Such
    {e clocked} rules see every input.  The other path, selected by
    [~index:false], is the oracle, the full scan: every event batch and
    every clock advance reaches every rule, and the inner engines join
    with nested loops instead of hash-partitioned join stores.  Outcomes
    are identical on both paths (property-tested); use the oracle only
    for that comparison.  [index] defaults to true unless
    [XCHANGE_NO_SUBINDEX=1] is set; an explicit [~index] wins.

    [share] (default: on unless [XCHANGE_NO_SHARE=1]; an explicit
    [~share] wins) deduplicates rule evaluation across the whole rule
    base through two shared networks.  The {!Alpha} network dedupes atomic event matchers:
    structurally-identical atoms — in ECA rules and event-derivation
    rules alike — evaluate a given occurrence once and fan the
    substitutions out to every subscribing rule, so large rule sets
    with overlapping patterns pay per {e distinct} pattern, not per
    rule.  The {!Beta} network dedupes composite join state: rules
    whose (alpha-renamed) And/Seq/Times subtrees coincide share one
    join pipeline and one instance store, each event joined once per
    distinct subtree — per-rule state shrinks to a thin projection
    (variable renaming, selection, consumption, firing).  Shared and
    unshared outcomes are identical (property-tested, [test_alpha] /
    [test_beta]). *)

(** [fresh_event_id] allocates ids for events derived by the engine's
    derivation network (typically the owning node's origin lane, see
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
(** Feeds the event, then the events the derivation network derives
    from it, to the rules this batch reaches: the clocked rules plus the
    candidates of any event in the batch (every rule on the full
    scan).  Each reached rule gets the
    whole batch, in ascending rule order, so firings come out as under
    the full scan.  The other rules are skipped; their feeds would be
    no-ops.  [engine.rules_fed] and [engine.rules_skipped] count both
    sides. *)

val advance : t -> env:Condition.env -> ops:Action.ops -> Clock.time -> outcome
(** Moves the engine clock: absence deadlines can fire rules.  Advances
    the derivation network, feeds the events it derives to the rules
    they reach (the same path as {!handle_event}), and advances only
    the clocked rules: a bare clock advance cannot make any other rule
    fire.  A rule is fed before its clock moves, and its timer
    detections fire first.  Costs O(clocked + reached rules), not
    O(rules); [engine.rules_advanced] counts the rules advanced.
    [~index:false] advances every rule. *)

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
(** Same, restricted to timer-bearing rules — the prefetch set for
    engine {!advance}.  Empty when no rule has absence timers. *)

val next_deadline : t -> Clock.time option
(** Earliest pending absence deadline across the clocked rules, the
    only ones that can hold one ([None] when no timer is armed).
    Event-derivation timers are not included; a periodic heartbeat
    still covers those. *)

(** {1 Dispatch observability} *)

val metrics : t -> Obs.Metrics.t
(** The engine's registry.  Dispatch counters, kept on both paths:
    [engine.dispatch_lookups] (event batches routed),
    [engine.rules_fed] ((rule, event) feeds), [engine.rules_skipped]
    (rules a batch did not reach, always zero under [~index:false]) and
    [engine.rules_advanced] (rules {!advance} moved the clock of).
    [engine.events_seen] counts {!handle_event} calls and
    [engine.condition_evaluations] the rule branch conditions
    evaluated.  Pull cells sample what the inner engines own:
    [engine.live_instances] (stored partial matches across all rules
    plus the shared beta pipelines, the Thesis 4 memory proxy) and
    [engine.join.*] (probes, pairs probed and skipped, instances
    pruned), summed over every rule engine, the event-derivation
    network and the shared beta pipelines.  [index] also selects the
    storage mode of the inner engines, so comparing [engine.join.*]
    across the two modes measures the composite-event hot path in
    isolation.  The shared networks register their [alpha.*] and
    [beta.*] cells here ({!Alpha.metrics}, {!Beta.metrics}; absent
    under [~share:false]) and the sub-index its [subindex.*] cells
    ({!Sub_index.metrics}; absent on the full scan).  When tracing is
    on ({!Obs.set_enabled}), {!handle_event} also emits an [event]
    span with nested [detect] / [firing] spans per reacting rule. *)
