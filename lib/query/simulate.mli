(** Simulation matching of query terms against ground data terms.

    [matches q t] computes all ways the query term [q] simulates into
    the data term [t], each as a substitution.  Matching can be seeded
    with an initial substitution so that variables already bound (e.g.
    by the event part of a rule) constrain the condition query —
    Thesis 7's "parameterize further queries with delivered answers".

    {b Two execution paths.}  The module contains a direct interpreter
    of the query AST (the reference implementation) and, by default,
    routes every entry point through a compiled {!Plan} fetched from a
    bounded plan cache — same answers, with all per-visit query analysis
    hoisted to compile time plus fingerprint/arity pruning (see
    {!Plan}).  Pass [~plan:false] to force the interpreter; the
    differential property suite ([test/test_plan.ml]) runs both paths
    against each other.  [XCHANGE_NO_PLAN=1] in the environment (read
    once at startup) makes the interpreter the default of [?plan] and of
    {!matcher}; an explicit [~plan] wins.  No other module chooses
    between the two paths.

    Complexity: children matching is backtracking search; unordered /
    partial specifications are combinatorial in the worst case, which is
    acceptable for the document sizes of Web rule programs (benchmarked
    in E7 and [BENCH_query.json]). *)

open Xchange_data
open Xchange_obs

val matches : ?plan:bool -> ?seed:Subst.t -> Qterm.t -> Term.t -> Subst.set
(** All solutions of matching [q] at the root of [t]. *)

val matches_anywhere :
  ?plan:bool -> ?index:Term_index.t -> ?seed:Subst.t -> Qterm.t -> Term.t -> Subst.set
(** All solutions of matching [q] at the root or at any descendant —
    equivalent to [matches (Desc q) t].

    [index] must be a {!Term_index.t} built from this exact document
    value (the store maintains that invariant).  Queries with a
    {!Qterm.anchor} (an exact root label or leaf text, or an
    any-labelled root with an exactly-labelled required child) then only
    visit the candidate nodes the index lists instead of every subterm;
    all other queries fall back to the full traversal.  Results are
    identical either way ({!Subst.set}s are canonically sorted). *)

val holds : ?plan:bool -> ?seed:Subst.t -> Qterm.t -> Term.t -> bool
(** [matches] is non-empty. *)

(** {1 Compiled plans} *)

val matcher : Qterm.t -> Term.t -> Subst.set
(** [matcher q] is [matches q] with the path chosen once: the cached
    compiled plan, or the interpreter under [XCHANGE_NO_PLAN=1].
    Engines with a build phase (e.g. {!Xchange_event.Incremental})
    call it at compile time and skip the per-call cache lookup on their
    hot path. *)

val plan_of : Qterm.t -> Plan.t
(** The cached compiled plan, regardless of [XCHANGE_NO_PLAN] (ablation
    and benchmarking). *)

val metrics : Obs.Metrics.t
(** Process-global query-layer registry: plan-cache hits / misses /
    evictions, plans compiled, fingerprint- and arity-pruned subtree
    counters (see {!Plan}), and interpreter regex-cache traffic.  The
    prune counters are deterministic — [BENCH_query.json] embeds a
    snapshot so the numbers explain the speedup. *)
