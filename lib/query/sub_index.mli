(** Subscription index: shared discrimination over a dynamic set of
    registered queries (Thesis 3 at scale).

    A publish/subscribe producer with a million subscribers — or a rule
    engine with thousands of rules — must not test every registered
    query against every published term.  This module keys each
    registered query by what any matching term {e must} contain
    (necessary conditions extracted once at registration, reusing
    {!Plan}'s required-label analysis) and stores it in a label-anchored
    trie:

    - an optional {b event-label} level (for engines whose occurrences
      carry a label besides the payload);
    - a {b root-label} level ({!Qterm.exact_label} of the query, with a
      wildcard branch for queries that accept any root);
    - a {b pivot-leaf} level: the first required leaf text of the query
      (e.g. the topic literal of a subscription), with an unpivoted
      bucket for queries demanding no leaf.

    Lookup of a term walks only the branches the term's own labels and
    leaf texts can satisfy and then refutes surviving entries against
    their full required-label/leaf {e fingerprints} (multiset inclusion,
    computed from one traversal of the term) — so the candidates
    returned are a superset of the true matches that is typically
    orders of magnitude smaller than the registration set, and publish
    cost grows with {e matches}, not registrations.  {!matching}
    confirms candidates with compiled {!Plan} execution (rooted, like
    {!Plan.matches}).

    Registration and removal are incremental: no rebuild on churn.
    Queries that expose nothing to discriminate on ([Var _], unlabelled
    elements without required leaves) land in the wildcard buckets and
    are candidates for every lookup — exactly the linear scan they
    would have received anyway.

    Soundness of the extracted fingerprints (a registered query is
    {e never} dropped from the candidates of a term it matches) is
    property-tested against the linear-scan oracle in
    [test/test_subindex.ml]. *)

open Xchange_data
open Xchange_obs

type 'a t
(** A dynamic index of queries, each carrying a payload of type ['a]
    (a subscriber host, a rule number, ...). *)

val enabled : unit -> bool
(** [false] when [XCHANGE_NO_SUBINDEX=1] is set in the environment
    (read once at startup) — consumers then fall back to their linear
    reference paths, mirroring the [XCHANGE_NO_PLAN] escape hatch:
    {!Xchange_rules.Engine} to the full scan over its rules,
    {!Xchange_web.Pubsub} to the scan over its registrations. *)

val create : ?metrics:Obs.Metrics.t -> unit -> 'a t
(** [metrics] registers the index's [subindex.*] cells in an existing
    registry (e.g. the owning engine's) instead of a private one. *)

val register : 'a t -> ?label:string -> Qterm.t -> 'a -> int
(** Add a query; returns its registration id.  A registration made
    with [~label:l] is only a candidate for lookups carrying the same
    [~label:l]; a registration without a label is a candidate for
    every lookup.  Queries are analysed (and their plans compiled)
    once per distinct query term — re-registrations share the
    analysis. *)

val remove : 'a t -> int -> bool
(** Remove a registration by id; [false] if unknown.  O(1) bucket
    surgery, no rebuild. *)

val size : 'a t -> int
(** Live registrations. *)

val trie_nodes : 'a t -> int
(** Structural nodes of the trie (branches and buckets) — the memory
    shape [BENCH_pubsub.json] reports. *)

val lookup : 'a t -> ?label:string -> Term.t -> (int * 'a) list
(** Candidate registrations for the term: every registered query that
    matches the term (rooted, in the sense of {!Plan.matches}) is
    included; queries whose fingerprints the term cannot satisfy are
    refuted without being visited.  Sorted by registration id,
    duplicate-free. *)

val matching : 'a t -> ?label:string -> ?seed:Subst.t -> Term.t -> (int * 'a * Subst.set) list
(** Candidates confirmed by compiled-plan execution: exactly the
    registrations [r] with [Plan.matches ?seed plan_r term <> []],
    with their answer sets.  Sorted by registration id. *)

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
  nodes : int;  (** current {!trie_nodes} *)
}

val stats : 'a t -> stats

val metrics : 'a t -> Obs.Metrics.t
(** The registry the [subindex.*] cells live in (the one passed to
    {!create}, or the private one). *)
