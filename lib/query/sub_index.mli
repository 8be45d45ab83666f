(** Subscription index: shared discrimination over a dynamic set of
    registered queries (Thesis 3 at scale).

    A publish/subscribe producer with a million subscribers — or a rule
    engine with thousands of rules — must not test every registered
    query against every published term.  This module keys each
    registered query by what any matching term {e must} contain
    (necessary conditions extracted once per distinct query) and keeps
    it in one hash table of buckets keyed by
    [(event label, root, pivot)]:

    - the {b event label} the registration was made under, or none (for
      engines whose occurrences carry a label besides the payload);
    - the {b root} the query demands: an exact element label
      ({!Qterm.exact_label}), a scalar leaf, or any;
    - the {b pivot}: the first required leaf text of the query (e.g. the
      topic literal of a subscription), or none for queries demanding
      no leaf.

    Lookup of a term probes only the keys the term can satisfy (its own
    event label or none, its own root or any, each of its distinct leaf
    texts or none) and then refutes surviving entries against their
    full required-label/leaf {e fingerprints} (multiset inclusion,
    computed from one traversal of the term) — so the candidates
    returned are a superset of the true matches that is typically
    orders of magnitude smaller than the registration set, and publish
    cost grows with {e matches}, not registrations.  {!matching}
    confirms candidates with compiled {!Plan} execution (rooted, like
    {!Plan.matches}); a query's plan is compiled by the first
    {!matching} that needs it, so an index only ever used through
    {!lookup} (an engine's) compiles none.

    Registration and removal are incremental: no rebuild on churn, and
    an emptied bucket, like the analysis of a query with no live
    registration left, is dropped.  Queries that expose nothing to
    discriminate on ([Var _], unlabelled elements without required
    leaves) land in the unpivoted any-root buckets and are candidates
    for every lookup — exactly the linear scan they would have received
    anyway.

    Soundness of the extracted fingerprints (a registered query is
    {e never} dropped from the candidates of a term it matches) is
    property-tested against the linear-scan oracle in
    [test/test_subindex.ml]. *)

open Xchange_data
open Xchange_obs

type 'a t
(** A dynamic index of queries, each carrying a payload of type ['a]
    (a subscriber host, a rule number, ...). *)

val create : ?metrics:Obs.Metrics.t -> unit -> 'a t
(** [metrics] registers the index's [subindex.*] cells in an existing
    registry (e.g. the owning engine's) instead of a private one. *)

val register : 'a t -> ?label:string -> Qterm.t -> 'a -> int
(** Add a query; returns its registration id.  A registration made
    with [~label:l] is only a candidate for lookups carrying the same
    [~label:l]; a registration without a label is a candidate for
    every lookup.  Queries are analysed once per distinct query term —
    re-registrations share the analysis until the last of them is
    removed. *)

val remove : 'a t -> int -> bool
(** Remove a registration by id; [false] if unknown.  O(1), no
    rebuild. *)

val size : 'a t -> int
(** Live registrations. *)

val buckets : 'a t -> int
(** Live (non-empty) buckets — the memory shape [BENCH_pubsub.json]
    reports. *)

val lookup : 'a t -> ?label:string -> Term.t -> (int * 'a) list
(** Candidate registrations for the term: every registered query that
    matches the term (rooted, in the sense of {!Plan.matches}) is
    included; queries whose fingerprints the term cannot satisfy are
    refuted without being visited.  Sorted by registration id,
    duplicate-free. *)

val matching : 'a t -> ?label:string -> ?seed:Subst.t -> Term.t -> (int * 'a * Subst.set) list
(** Candidates confirmed by compiled-plan execution: exactly the
    registrations [r] with [Plan.matches ?seed plan_r term <> []],
    with their answer sets.  Sorted by registration id.  Compiles each
    query's plan on first need (a [Lazy.t]), so an index must stay on
    one domain, as it does inside one engine or one store. *)

type stats = {
  registrations : int;  (** registrations since creation *)
  removals : int;
  lookups : int;
  candidates : int;  (** candidates returned across all lookups *)
  refuted : int;
      (** bucket entries refuted by the full fingerprint check, i.e.
          visited but skipped before any matcher ran *)
  confirmed : int;  (** candidates confirmed by {!matching} *)
  entries : int;  (** live registrations (= {!size}) *)
  buckets : int;  (** current {!buckets} *)
}

val stats : 'a t -> stats

val metrics : 'a t -> Obs.Metrics.t
(** The registry the [subindex.*] cells live in (the one passed to
    {!create}, or the private one).  Besides the counters behind
    {!stats} it holds two gauges: [subindex.entries] (live
    registrations) and [subindex.shapes] (distinct live queries, each
    with its analysis and, once matched, its plan). *)
