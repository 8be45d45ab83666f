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

    {b Sharing key.}  Nodes are keyed by
    {!Xchange_event.Event_query.composite_digest} of the
    {!Xchange_event.Event_query.canonicalize}d subtree together with
    its enclosing-window context — rules share exactly when detection
    semantics are identical, including across different variable names
    (subscribers rename answers back through the canonicalization
    bijection).  Digest buckets verify structural equality, so
    collisions cost duplicated pipelines, never wrong answers.

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

    {b Batches.}  {!Xchange_rules.Engine} calls {!begin_batch} at each
    entry point; within a batch a node's pipeline is stepped exactly
    once per event (whichever subscriber asks first), later subscribers
    are served from the generation memo.  An event that reaches {e any}
    subscriber of a node reaches {e all} of them (dispatch refutes
    per-rule, and every subscriber contains the subtree's atoms), so
    the pipeline observes every relevant event exactly once, in batch
    order — this is what makes the memo sound.

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

type handle
(** One live subscription of one rule's subtree to a shared node. *)

val create :
  ?metrics:Obs.Metrics.t ->
  ?digest:(Event_query.t * Clock.span option -> string) ->
  ?horizon:Clock.span ->
  ?index:bool ->
  ?share_atoms:(Event_query.atomic -> Incremental.atom_matcher) ->
  unit ->
  t
(** [metrics] registers the [beta.*] cells below in an existing
    registry (e.g. the owning engine's) instead of a private one.
    [digest] overrides
    the structural key function — only for tests that force digest
    collisions to exercise the in-bucket structural-equality
    verification; production callers use the default
    ({!Event_query.composite_digest} over the canonical query and
    context).  [horizon] and [index] must match the subscribing
    engines' settings (they shape the pipelines); [share_atoms] is the
    alpha network's {!Alpha.subscribe}, so shared pipelines share
    atomic evaluation too. *)

val begin_batch : t -> unit
(** Open a new memo generation.  Must be called once per engine entry
    point (event batch or clock advance) before any subscriber matcher
    runs; stale memo entries from the previous batch are invalidated
    lazily per node. *)

val register : t -> ctx:Clock.span option -> Event_query.t -> handle option
(** Subscribe a composite subtree occurring under enclosing-window
    context [ctx]: reuses the node of a semantically-identical subtree
    registered before, else compiles a fresh shared pipeline.  [None]
    when the subtree is not shareable (see above). *)

val matcher : t -> handle -> rename:(string * string) list -> Incremental.subtree_matcher
(** The shared matcher behind a handle: memoized pipeline step, then
    projection through [rename] (the canonical -> original variable
    mapping from {!Event_query.canonicalize} of the subscriber's own
    subtree).  Behaves exactly like the private compilation it replaces
    (same instances — property-tested). *)

val release : t -> handle -> unit
(** Drop one subscription; the shared node — pipeline, stores, memo —
    is shed when its last subscriber releases.  Releasing an
    already-released handle is an error ([Invalid_argument]). *)

val subscribe : t -> ctx:Clock.span option -> Event_query.t -> Incremental.subtree_matcher option
(** [register] + [matcher] with the subscriber's own canonicalization
    mapping — the [~share_sub] hook engines pass to
    {!Incremental.create} / {!Deductive_event.compile} when the handle
    is not needed (the network lives and dies with the engine). *)

(** {1 Observability} *)

val metrics : t -> Obs.Metrics.t
(** The registry the network's cells live in (the one passed to
    {!create}, or the private one): [beta.nodes] (live shared pipelines
    = distinct subtrees), [beta.registrations] (live subscriptions;
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
