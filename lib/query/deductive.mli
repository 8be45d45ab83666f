(** Deductive rules (views) over Web data — Thesis 9.

    A view is a named virtual resource defined by a construct-term head
    and a condition body ("like views in relational databases").  Views
    may reference other views, including recursively; materialisation is
    a semi-naive fixpoint over the produced term instances.

    The event half of Thesis 9, event derivation rules, runs in the rule
    engine with recursion {e rejected}
    ({!Xchange_event.Deductive_event.stratify}): Thesis 9 allows a
    reactive language to "be more restrictive about rules for events
    for efficiency reasons". *)

open Xchange_data

type rule = {
  view : string;  (** name of the view this rule contributes to *)
  head : Construct.t;
  body : Condition.t;
}

type program = rule list

val rule : view:string -> head:Construct.t -> body:Condition.t -> rule

val dependencies : program -> (string * string list) list
(** For each view name, the view names its bodies reference. *)

val recursive_views : program -> string list
(** View names involved in a dependency cycle (including self-reference). *)

val check_stratified : program -> (unit, string) result
(** Recursion through [Not] is unsound under fixpoint materialisation
    (the classic unstratified-negation problem): this rejects programs
    in which some view depends on itself through at least one negated
    view reference.  Positive recursion remains allowed. *)

val reachable : program -> string list -> string list
(** View names transitively needed to answer queries against the
    given roots, sorted. *)

val materialize : ?roots:string list -> Condition.env -> program -> (string, Term.t list) Hashtbl.t
(** Fixpoint materialisation.  Each view maps to the duplicate-free
    list of its head instances; construct errors in a head (e.g. a head
    variable unbound by the body) skip that instance.

    With [roots], evaluation is {e goal-directed}: only the rules of
    views reachable from the roots run — the backward-chaining answer
    to Thesis 7's "what evaluation methods are possible" (ablation A3
    measures the effect on programs with many irrelevant views). *)

val extend_env : Condition.env -> program -> Condition.env
(** An environment in which [View v] resolves to the materialised
    instances of [v].  Each [View] fetch materialises goal-directed
    from [v] against the base environment, so updates to base documents
    are seen and unrelated views are never computed. *)
