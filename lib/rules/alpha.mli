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
    keyed by the atom itself: two subscriptions share a node exactly
    when their atoms are structurally equal (label, sender and payload
    pattern, variable names included).  A node
    owns the compiled payload matcher and a per-occurrence memo that
    lives one engine batch, like {!Beta}'s: the first subscribing rule
    an event reaches in a batch evaluates the pattern once, every other
    rule is handed the memoized substitution set, and nothing is kept
    past the batch ({!begin_batch}).  Per-rule state — partial matches, joins, windows,
    consumption — stays entirely inside each rule's engine; the network
    shares only pure (pattern, payload) evaluation, which is why shared
    and unshared runs are detection-for-detection identical
    (property-tested, [test/test_alpha.ml]).

    Plumbing: {!Xchange_rules.Engine} creates one network per engine,
    threads {!subscribe} into every rule's
    {!Xchange_event.Incremental.create}, ECA and event-derivation rules
    alike, as [~share], and hands it to its {!Beta} network, whose
    {!Beta.begin_batch} opens both memos once per batch.
    Nodes live as long as the engine: a rule set only changes by
    building a new engine ({!Xchange_rules.Engine.load_ruleset}, node
    recovery), so nothing is ever unsubscribed.
    [Engine.create ~share:false] keeps the per-rule matchers as the
    differential oracle; [XCHANGE_NO_SHARE=1] makes that the
    default. *)

open Xchange_event
open Xchange_obs

type t

val create : ?metrics:Obs.Metrics.t -> unit -> t
(** [metrics] registers the [alpha.*] cells below in an existing
    registry (e.g. the owning engine's) instead of a private one. *)

val begin_batch : t -> unit
(** Open a new memo generation; a node drops the previous batch's
    entries at its next use.  {!Beta.begin_batch} calls it. *)

val subscribe : t -> Event_query.atomic -> Incremental.atom_matcher
(** Subscribe an atom — the [~share] hook engines pass to
    {!Incremental.create}.  Reuses the node
    of a structurally-equal atom subscribed before, else compiles a
    fresh one.  The matcher gates the envelope, then evaluates the
    payload through the node's batch memo; it behaves exactly like the
    per-rule default matcher (same substitution sets, same
    {!Incremental.atomic_matcher_runs} accounting on real runs). *)

(** {1 Observability} *)

val metrics : t -> Obs.Metrics.t
(** The registry the network's cells live in (the one passed to
    {!create}, or the private one): [alpha.nodes] (shared nodes =
    distinct atomic patterns), [alpha.registrations]
    (subscriptions; [/ alpha.nodes] = sharing factor),
    [alpha.evaluations] (real payload-matcher runs, i.e. memo misses),
    [alpha.hits] (matcher calls served from the batch memo) and
    [alpha.fanout] (substitutions delivered to subscribers, fresh +
    memoized).  The shared-node hit rate is
    [hits /. (hits + evaluations)]. *)
