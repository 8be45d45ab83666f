(** Shared beta network: cross-rule deduplication of composite-event
    join state (the Rete "beta memory" idea, recast for event queries).

    {!Alpha} (PR 7) shares atomic {e evaluation}; the expensive part —
    the And/Seq/Times join pipelines and their {!Xchange_event.Istore}
    partial-match stores — remained private to each rule, so 10^4 rules
    watching overlapping composite patterns each maintained their own
    copy of identical join state and re-joined every event once per
    rule.  A [Beta.t] holds one {e pipeline} per distinct composite
    sub-query: each event is joined once per distinct subtree, whatever
    the rule count, and subscribers receive the detections through a
    thin projection.

    {b Sharing key.}  Nodes are keyed by the
    {!Xchange_event.Event_query.canonicalize}d subtree together with
    its enclosing-window context, compared with structural equality —
    rules share exactly when detection semantics are identical,
    including across different variable names (subscribers rename
    answers back through the canonicalization bijection).  Nodes live
    as long as the engine: a rule set only changes by building a new
    engine ({!Xchange_rules.Engine.load_ruleset}, node recovery), so
    nothing is ever unsubscribed.

    {b What stays per rule.}  Selection, consumption and firing:
    consuming rules filter the shared output against their consumed
    event ids instead of purging the shared stores (equivalent for the
    subtrees the network accepts — see below), and the parent-facing
    projection store lives in the subscribing rule's engine.

    {b What is declined} ([subscribe] returns [None], the subtree
    compiles privately): atomic sub-queries (the alpha network's job);
    subtrees with absence timers (deadlines resolve on per-rule clock
    advances the shared pipeline never observes); subtrees with
    [Agg]/[Rises] accumulators (group buffers cannot be
    consumption-filtered by event ids); and, when the engine has a
    [horizon], subtrees without a window bound (horizon pruning of
    unbounded join state is semantics-bearing and per-rule clocks skew;
    window-bounded pruning only affects memory because windows are also
    enforced by span checks at detection time).

    {b Batches.}  {!Xchange_rules.Engine} calls {!begin_batch} once per
    batch — an event with what the derivation rules derive from it, or
    a clock advance — and that one call opens the {!Alpha} memo's
    generation too, so neither shared network holds a result past the
    batch that computed it.  Within a batch a node's pipeline is
    stepped exactly once per event, by whoever asks first — a
    derivation rule, as those are fed first; the engine's dispatch, for
    a node that is some rule's whole event query (a {e terminal} node,
    see {!detects}); or the first rule fed that holds the subtree — and
    later askers are served from the generation memo.  Dispatch that reaches a node, or
    any rule holding it, steps it on every event of the batch, in batch
    order, so the pipeline observes every relevant event exactly once,
    which is what makes the memo sound.  A terminal node's rules are
    fed only when it detected something in the batch (unless they
    observe time): a feed the node hands no detection is a no-op.

    A rule registered after events have flowed adopts the shared node's
    accumulated partial matches (a fresh private pipeline would start
    cold) — deliberately so: composite events exist in the stream
    independent of subscribers (Thesis 5), and WAL recovery relies on
    replay priming each shared store once, not once per rule.

    [Engine.create ~share:false] disables beta and alpha sharing
    together, keeping the per-rule pipelines as the differential oracle
    ([test/test_beta.ml]); [XCHANGE_NO_SHARE=1] makes that the default. *)

open Xchange_event
open Xchange_obs

type t

type node
(** One shared pipeline: a distinct (canonical subtree, context) key. *)

val create :
  ?metrics:Obs.Metrics.t ->
  ?horizon:Clock.span ->
  ?index:bool ->
  ?alpha:Alpha.t ->
  unit ->
  t
(** [metrics] registers the [beta.*] cells below in an existing
    registry (e.g. the owning engine's) instead of a private one.
    [horizon] and [index] must match the subscribing engines' settings
    (they shape the pipelines); [alpha] is the network the pipelines'
    atoms subscribe in ({!Alpha.subscribe}), so shared pipelines share
    atomic evaluation too. *)

val begin_batch : t -> unit
(** Open a new memo generation, here and in [alpha]'s memo.  Must be
    called once per engine batch (an event batch or a clock advance)
    before any subscriber matcher runs; stale memo entries from the
    previous batch are invalidated lazily per node. *)

val subscribe :
  t -> ctx:Clock.span option -> Event_query.t -> (node * Incremental.subtree_matcher) option
(** Subscribe a composite subtree occurring under enclosing-window
    context [ctx]; its matcher is what engines pass to
    {!Incremental.create} as [~share_sub].
    Reuses the node of a semantically-identical subtree subscribed
    before, else compiles a fresh shared pipeline; [None] when the
    subtree is not shareable (see above).  The matcher steps the
    pipeline through the generation memo, then renames the detections
    into the subscriber's own variable names (the canonical -> original
    mapping of {!Event_query.canonicalize}).  It behaves exactly like
    the private compilation it replaces (same instances —
    property-tested).  The node is returned so that a caller can
    dispatch to it ({!detects}) without canonicalizing the subtree
    again. *)

val id : node -> int
(** Dense from 0, in creation order within the network. *)

val detects : t -> node -> Event.t -> bool
(** Step the node's pipeline on the event through the generation memo,
    exactly as a subscriber's matcher would (a [beta.steps] or a
    [beta.hits]), and say whether it detected anything.  Delivers
    nothing to subscribers, so [beta.fanout] does not move. *)

(** {1 Observability} *)

val metrics : t -> Obs.Metrics.t
(** The registry the network's cells live in (the one passed to
    {!create}, or the private one): [beta.nodes] (shared pipelines =
    distinct subtrees), [beta.registrations] (subscriptions;
    [/ beta.nodes] = sharing factor), [beta.steps] (real pipeline
    steps, i.e. memo misses), [beta.hits] (matcher calls served from
    the generation memo), [beta.fanout] (instances delivered to
    subscribers, fresh + memoized), [beta.pairs_probed] (join
    candidates enumerated inside shared pipelines) and
    [beta.live_instances].  The shared-step hit rate is
    [hits /. (hits + steps)]. *)

val join_stats : t -> Incremental.join_stats
(** Aggregated {!Xchange_event.Istore} counters across all shared
    pipelines — the engine adds them to its [engine.join.*] cells for
    the whole-engine join picture (the private projections' stores are
    already counted there). *)

val live_instances : t -> int
(** Stored partial matches across all shared pipelines. *)
