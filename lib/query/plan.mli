(** Compiled query plans: one-pass Xcerpt matcher compilation.

    {!Simulate.match_term} is fully interpretive: every visit of every
    element re-splits child patterns into required/optional/negative
    lists, recomputes the [unordered]/[total]/[has_optionals] flags, and
    the unordered case runs a blind factorial assignment search with no
    pruning.  [compile] performs that analysis {e once} per query and
    produces a closure tree in which all per-call analysis is hoisted to
    compile time:

    - children pre-split into required / optional / negative lists, the
      mode flags precomputed;
    - per-element {b required-label fingerprints}: the multiset of exact
      child labels a node must contain, checked against a cheap
      one-level label count of the data children {e before} any
      recursive descent (every matching mode makes a required child
      pattern consume one distinct data child, so a missing label count
      refutes the whole subtree);
    - arity pruning: more required patterns than data children (or, under
      [Total], more data children than patterns) fails without search;
    - child patterns reordered most-selective-first in the unordered
      case (exact leaf > exact label > regex > variable), shrinking the
      assignment search's branching near the root of the search tree —
      sound because unordered matching is invariant under pattern
      permutation;
    - regexes compiled ([Re.whole_string]-anchored) into the plan
      instead of going through the global LRU on every leaf visit.

    A plan is equivalent to the interpreter by construction and by the
    differential property suite ([test/test_plan.ml]); {!Simulate}
    routes through a plan cache by default and keeps the interpreter as
    the reference implementation ([XCHANGE_NO_PLAN=1] / [~plan:false]).

    Plans are pure functions of the query alone — document mutation
    never invalidates them (the {!Xchange_web.Store}'s answer cache is
    digest-keyed per document version; plans sit below it). *)

open Xchange_data

type t

val compile : Qterm.t -> t
(** One pass over the query term.  Regex compilation inside the plan is
    lazy (forced on first use), so an invalid regex in a branch that is
    never visited raises exactly where the interpreter would. *)

val source : t -> Qterm.t
(** The query the plan was compiled from. *)

val digest : t -> string
(** {!Qterm.digest} of {!source} — the structural plan key the shared
    alpha network deduplicates matchers on. *)

val matches : ?seed:Subst.t -> t -> Term.t -> Subst.set
(** All solutions of matching the plan's query at the root of the term —
    byte-for-byte {!Simulate.matches} of {!source}. *)

val matches_anywhere : ?index:Term_index.t -> ?seed:Subst.t -> t -> Term.t -> Subst.set
(** All solutions at the root or any descendant.  [index] (built from
    this exact document value) prunes through the plan's precomputed
    {!Qterm.anchor} when the query has one; answers are identical either
    way. *)

val holds : ?seed:Subst.t -> t -> Term.t -> bool

(** {1 Work counters}

    Deterministic (same queries x same documents yield the same counts;
    no timing involved), surfaced through {!Simulate.metrics} and the
    [BENCH_query.json] metrics section so benchmarks show {e why} the
    compiled path is faster. *)

val compiled_count : unit -> int
(** Plans compiled since start. *)

val fingerprint_pruned : unit -> int
(** Subtrees refuted by the required-label fingerprint check alone —
    candidate elements whose label and attributes matched but whose
    children could not contain the required labels, skipped before any
    recursive descent. *)

val arity_pruned : unit -> int
(** Subtrees refuted by the required/total child-count bounds. *)
