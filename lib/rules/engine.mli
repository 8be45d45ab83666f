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
  ?subindex:bool ->
  ?share:bool ->
  ?fresh_event_id:(unit -> int) ->
  Ruleset.t ->
  (t, string) result
(** Validates the rule set (duplicate names, unresolved procedure
    calls), every rule's event query, and the (non-recursive) event
    derivation program, then compiles one incremental engine per rule.

    [index] (default true) dispatches events through a precomputed
    [label -> rules] hash table (plus a wildcard bucket for rules
    without a label constraint): an event only touches rules that can
    react to it, instead of scanning the whole rule base.  A rule whose
    query names only other labels is not fed the event, unless its
    engine observes time ({!Incremental.observes_time}: absence timers,
    horizon-pruned or accumulated join state).  Such {e clocked} rules
    see every input, as under the full scan.  [~index:false] is that
    full scan: every rule sees every input.

    [subindex] (default: on unless [XCHANGE_NO_SUBINDEX=1]; only
    meaningful with [index]) replaces the flat label buckets with a
    shared {!Sub_index} over every rule atom: an event reaches only
    rules with an atom whose label {e and} payload fingerprint it can
    satisfy, so rules refuted by the published term's shape are never
    visited.  Outcomes are identical across all three modes
    (property-tested); disable them only for that comparison.

    [share] (default: on unless [XCHANGE_NO_SHARE=1]) deduplicates
    rule evaluation across the whole rule base through two shared
    networks.  The {!Alpha} network dedupes atomic event matchers:
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
  ?subindex:bool ->
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
    candidates of any event in the batch.  Each reached rule gets the
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
    result is a fresh engine sharing no event state with [t].  Existing
    compiled state of [t] is unaffected. *)

val ruleset : t -> Ruleset.t
val rule_names : t -> string list
val stats : t -> (string * Eca.stats) list
val total_condition_evaluations : t -> int
val live_instances : t -> int
(** Stored partial matches across all rules plus the shared beta
    pipelines (Thesis 4 memory proxy). *)

val events_seen : t -> int

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
(** The engine's registry.  Dispatch counters, all zero under
    [~index:false] except the last: [engine.dispatch_lookups] (event
    batches routed), [engine.rules_fed] ((rule, event) feeds),
    [engine.rules_skipped] (rules a batch did not reach) and
    [engine.rules_advanced] (rules {!advance} moved the clock of).  Also
    [engine.events_seen], plus pull cells sampling the per-rule and
    join-level aggregates ([engine.live_instances],
    [engine.condition_evaluations], [engine.join.*]).  When tracing is
    on ({!Obs.set_enabled}), {!handle_event} also emits an [event] span
    with nested [detect] / [firing] spans per reacting rule. *)

val join_stats : t -> Incremental.join_stats
(** Join-level counters summed over every compiled rule engine, the
    event-derivation network and the shared beta pipelines:
    hash-partition probes, candidate pairs enumerated vs skipped,
    instances pruned by window/horizon retention.  [index] also selects
    the storage mode of these inner engines (hash-partitioned vs
    nested-loop joins), so comparing [join_stats] across the two modes
    measures the composite-event hot path in isolation — and comparing
    [pairs_probed] across [~share] modes measures the cross-rule join
    sharing (BENCH_rules' composite sweep). *)

val dispatch_labels : t -> int
(** Distinct labels in the dispatch table. *)

val subindex_stats : t -> Sub_index.stats option
(** Counters of the rule-atom sub-index ([None] when dispatch runs on
    label buckets or a full scan).  Its cells also live in {!metrics}
    under [subindex.*]. *)

val alpha_stats : t -> Alpha.stats option
(** Counters of the shared alpha network ([None] under [~share:false]):
    distinct nodes vs registrations (the sharing factor), real
    evaluations vs memo hits (the shared-node hit rate), and fanout.
    Its cells also live in {!metrics} under [alpha.*]. *)

val beta_stats : t -> Beta.stats option
(** Counters of the shared beta network ([None] under [~share:false]):
    distinct pipelines vs registrations, real pipeline steps vs memo
    hits, fanout, and join pairs probed inside shared pipelines.  Its
    cells also live in {!metrics} under [beta.*]. *)

val beta_join_stats : t -> Incremental.join_stats option
(** The shared-pipeline share of {!join_stats}, on its own. *)
