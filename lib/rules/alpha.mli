(** Shared alpha network: cross-rule deduplication of atomic event
    matchers (the Rete "alpha memory" idea, recast for event queries).

    Thesis 7's "never re-scan" is honoured {e per rule} by
    {!Xchange_event.Incremental}; with thousands of ECA / production
    rules over overlapping patterns the engines still ran one atomic
    matcher per rule per event — 10k rules with the same
    [order{{var X}}] atom evaluated the same pattern against the same
    payload 10k times.  {!Xchange_query.Sub_index} (PR 6) shares
    candidate {e selection}; this module shares the {e evaluation}
    behind it.

    An [Alpha.t] holds one node per {b distinct} atomic event query,
    keyed by its structural digest ({!Xchange_event.Event_query.atomic_digest},
    collision-safe: digest buckets verify structural equality).  A node
    owns the compiled payload matcher and a small per-occurrence memo:
    the first subscribing rule an event reaches evaluates the pattern
    once, every other rule's beta network is handed the memoized
    substitution set.  Per-rule state — partial matches, joins, windows,
    consumption — stays entirely inside each rule's engine; the network
    shares only pure (pattern, payload) evaluation, which is why shared
    and unshared runs are detection-for-detection identical
    (property-tested, [test/test_alpha.ml]).

    Plumbing: {!Xchange_rules.Engine} creates one network per engine
    and threads {!subscribe} into every rule's
    {!Xchange_event.Incremental.create} and the event-derivation
    network's {!Xchange_event.Deductive_event.compile} as [~share].
    [XCHANGE_NO_SHARE=1] (see {!Xchange_core.Escape}) keeps the
    per-rule matchers as the differential oracle. *)

open Xchange_event
open Xchange_obs

type t

type handle
(** One live subscription of one rule atom to a shared node. *)

val create : ?metrics:Obs.Metrics.t -> ?digest:(Event_query.atomic -> string) -> unit -> t
(** [metrics] registers the [alpha.*] cells below in an existing
    registry (e.g. the owning engine's) instead of a private one.
    [digest] overrides the structural key function — only
    for tests that force digest collisions to exercise the in-bucket
    structural-equality verification; production callers use the
    default ({!Event_query.atomic_digest}). *)

val enabled : unit -> bool
(** [false] when [XCHANGE_NO_SHARE=1] is set — the escape hatch
    restoring per-rule matchers ({!Xchange_core.Escape.no_share}). *)

val register : t -> Event_query.atomic -> handle
(** Subscribe an atom: reuses the node of a structurally-equal atom
    registered before, else compiles a fresh one. *)

val matcher : t -> handle -> Incremental.atom_matcher
(** The shared matcher behind a handle: envelope gate, then memoized
    payload evaluation.  Behaves exactly like the per-rule default
    matcher (same substitution sets, same
    {!Incremental.atomic_matcher_runs} accounting on real runs). *)

val release : t -> handle -> unit
(** Drop one subscription; the shared node (and its digest bucket) is
    shed when its last subscriber releases.  Releasing an
    already-released handle is an error ([Invalid_argument]). *)

val subscribe : t -> Event_query.atomic -> Incremental.atom_matcher
(** [register] + [matcher] — the [~share] hook engines pass to
    {!Incremental.create} / {!Deductive_event.compile} when the handle
    is not needed (the network lives and dies with the engine). *)

(** {1 Observability} *)

val metrics : t -> Obs.Metrics.t
(** The registry the network's cells live in (the one passed to
    {!create}, or the private one): [alpha.nodes] (live shared nodes =
    distinct atomic patterns), [alpha.registrations] (live
    subscriptions; [/ alpha.nodes] = sharing factor),
    [alpha.evaluations] (real payload-matcher runs, i.e. memo misses),
    [alpha.hits] (matcher calls served from the memo) and
    [alpha.fanout] (substitutions delivered to subscribers, fresh +
    memoized).  The shared-node hit rate is
    [hits /. (hits + evaluations)]. *)
