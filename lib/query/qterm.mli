(** Query terms: patterns over data terms, in the style of Xcerpt.

    A query term describes the shape of the data it matches and binds
    variables to the pieces it extracts (Thesis 5's "data extraction"
    dimension, Thesis 7's embedded Web query language).  Matching
    ({!Simulate}) is rooted simulation of the query term in a {e ground}
    data term.

    Incompleteness dimensions, as in Xcerpt:
    - {b breadth}: [Total] children patterns must account for {e all}
      children of the data element; [Partial] ones may leave data
      children unmatched.
    - {b order}: an [Ordered] pattern requires its children patterns to
      match in document order; an [Unordered] one matches children in
      any order.  Matching against [Unordered] data is always
      order-insensitive, whatever the pattern says.
    - {b depth}: [Desc q] matches [q] at the root or at any depth below
      it.

    [Without q] inside a children list is negation as failure on the
    element's children: no child may match [q] (given the bindings of
    the positive siblings). *)

open Xchange_data

type label_pat =
  | L of string  (** exact label *)
  | L_var of string  (** binds the label (as a [Text] term) *)
  | L_any

type leaf_pat =
  | Leaf_any  (** any scalar leaf *)
  | Text_is of string
  | Num_is of float
  | Bool_is of bool
  | Regex of string  (** PCRE, must match the full text of the leaf *)

type attr_pat = A_is of string | A_var of string | A_any

type spec = Total | Partial

type t =
  | Var of string  (** matches any term; binds it *)
  | As of string * t  (** matches [t]; also binds the matched term *)
  | Leaf of leaf_pat
  | El of elem_pat
  | Desc of t  (** matches at the root or any descendant *)

and elem_pat = {
  label : label_pat;
  attrs : (string * attr_pat) list;  (** required attributes (extra data attributes always allowed) *)
  ord : Term.ordering;
  spec : spec;
  children : child list;
}

and child =
  | Pos of t
  | Without of t
  | Opt of t
      (** optional subterm: binds its variables when a consistent match
          exists; answers that could bind more optional variables
          subsume those that bind fewer (Xcerpt's [optional]) *)

(** {1 Convenience constructors} *)

val var : string -> t
val ( @: ) : string -> t -> t
(** [x @: q] is [As (x, q)]. *)

val txt : string -> t
val numq : float -> t
val regex : string -> t
val anyleaf : t

val el :
  ?ord:Term.ordering ->
  ?spec:spec ->
  ?attrs:(string * attr_pat) list ->
  string ->
  child list ->
  t
(** Element pattern with an exact label.  [ord] defaults to [Unordered]
    and [spec] to [Partial] — the common case for Web queries. *)

val pos : t -> child
val without : t -> child
val opt : t -> child
val children_pos : t list -> child list
val desc : t -> t

(** {1 Analysis} *)

val vars : t -> string list
(** All variables a match {e can} bind (including label and attribute
    variables, those under [Desc], and those under [Opt], which may
    stay unbound), excluding variables occurring only under [Without]
    (which never export bindings).  Sorted, duplicate-free. *)

val map_vars : (string -> string) -> t -> t
(** Rename every variable occurrence ([Var], [As] binders, label and
    attribute variables — including those under [Without] and [Opt])
    through the function, preserving structure.  Traversal is syntactic
    (label, then attributes in list order, then children in order), so a
    renaming function that allocates names on first use yields a
    deterministic canonical form — the alpha-renaming the shared beta
    network ({!Xchange_rules.Beta}) keys composite sub-queries by. *)

val validate : t -> (unit, string) result
(** Static sanity checks: regexes compile; [Without] patterns do not
    attempt to export variables that are not also bound positively. *)

val key_hash : 'a -> int
(** Structural hash of a whole table key built from query terms: a
    query, an event query, a (sub-query, context) pair.  The default
    [Hashtbl.hash] reads at most 10 meaningful values, which such keys
    often share (labels, element names) before the constants that tell
    them apart, so [publish\[topic\["t1"\]\]] and
    [publish\[topic\["t2"\]\]] would land in one bucket.  Every
    query-keyed table hashes with this. *)

module Key : Hashtbl.HashedType with type t = t
(** Queries as table keys: structural equality, {!key_hash}. *)

val peel_desc : t -> t
(** Strip outer [Desc] wrappers.  Matching anywhere in a document is
    invariant under outer [Desc] (the unions over all subterms
    coincide), so {!Plan} compiles the peeled query for it. *)

val exact_label : t -> string option
(** The element label the query demands at its root (through [As]
    wrappers), if it demands exactly one. *)

val pp : t Fmt.t
