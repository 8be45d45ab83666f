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
      child labels a node must contain, checked by one walk of the data
      children per demanded label {e before} any recursive descent
      (every matching mode makes a required child pattern consume one
      distinct data child, so a missing label count refutes the whole
      subtree);
    - label-partitioned unordered search: when every child pattern is
      required and exactly labelled, each label's patterns are matched
      only against the children carrying that label (one walk of the
      child list per label, document order kept), so the assignment
      search never pairs a pattern with a child it cannot match;
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

val matches : ?seed:Subst.t -> t -> Term.t -> Subst.set
(** All solutions of matching the plan's query at the root of the term —
    byte-for-byte {!Simulate.matches} of the query it was compiled from. *)

val matches_anywhere : ?seed:Subst.t -> t -> Term.t -> Subst.set
(** All solutions at the root or any descendant: one pre-order
    traversal trying the desc-peeled query at every subterm. *)

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
