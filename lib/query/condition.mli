(** Conditions: Web queries over persistent data (Thesis 7).

    The condition part of an ECA rule queries persistent resources —
    local or remote XML documents, RDF graphs, and deductive views —
    combines queries with boolean connectives, and tests computed
    comparisons.  Evaluation is seeded with the bindings the event part
    delivered and produces the joined binding set handed to the action
    part. *)

open Xchange_data

type resource =
  | Local of string  (** document by local name/path *)
  | Remote of string  (** document by absolute URI (fetched through the Web substrate) *)
  | View of string  (** deductive view (Thesis 9) *)

type t =
  | True
  | False
  | In of resource * Qterm.t  (** some match of the query in the resource *)
  | In_rdf of resource * Rdf.triple_pattern list  (** BGP over an RDF resource *)
  | And of t list
  | Or of t list
  | Not of t  (** negation as failure; exports no bindings *)
  | Cmp of Builtin.cmp * Builtin.operand * Builtin.operand

(** Environment: how conditions reach data.  The Web substrate and the
    engine provide an implementation; tests can use {!env_of_docs}. *)
type env = {
  fetch : resource -> Term.t list;
      (** instances of a resource; [] when absent or unreachable *)
  fetch_rdf : resource -> Rdf.graph option;
  cached_match : resource -> seed:Subst.t -> Qterm.t -> Subst.set option;
      (** fast path for [In]: when the provider can answer "all matches
          of this query in this resource under this seed" itself
          (typically memoized per document version, see
          {!Xchange_web.Store}), it returns [Some answers] and [fetch] +
          {!Simulate} are bypassed; [None] falls back to fetching and
          matching.  Must deliver exactly the answers the fallback
          would.  Use {!no_cached_match} when there is no fast path. *)
}

val no_cached_match : resource -> seed:Subst.t -> Qterm.t -> Subst.set option
(** Always [None] — the trivial {!env.cached_match}. *)

val env_of_docs : (string * Term.t) list -> env
(** A closed environment over named documents (no RDF, no views beyond
    the listed docs); [Local]/[Remote] both look up by name. *)

val eval : env -> Subst.t -> t -> Subst.set
(** All answers of the condition under the seed substitution.  An
    evaluation error inside [Cmp] (unbound variable, type error) makes
    that comparison false rather than aborting rule processing. *)

val holds : env -> Subst.t -> t -> bool

val vars : t -> string list
(** Variables the condition can bind (negated subconditions excluded). *)

val resources : t -> ([ `Doc | `Rdf ] * resource) list
(** Every resource the condition can touch, tagged with the kind of
    fetch ([`Doc] for [In], [`Rdf] for [In_rdf]), deduplicated.  Being a
    static property of the condition (resources are literals, never
    computed), this is what lets the Web substrate prefetch remote
    documents before evaluation. *)

val pp : t Fmt.t
