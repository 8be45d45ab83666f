(** Positional paths and simple selectors over {!Term.t}.

    A {!t} is a sequence of 0-based child indices addressing a subterm.
    A {!selector} is a small XPath-like language ([/a//b/*]) used by
    update actions (Thesis 8) to designate update targets. *)

type t = int list
(** Root is [[]]; [\[i; j\]] is the j-th child of the i-th child. *)

type axis = Child | Descendant
type step = Any | Tag of string

type selector = (axis * step) list

val root : t

val pp : t Fmt.t
val pp_selector : selector Fmt.t

val parse_selector : string -> (selector, string) result
(** Parses ["/a/b"], ["//news"], ["/a/*//b"].  A leading [/] is a child
    step from the root; [//] is a descendant step. *)

val get : Term.t -> t -> Term.t option
(** Subterm at a path, if the path is valid. *)

val select : Term.t -> selector -> (t * Term.t) list
(** All subterms matched by a selector, with their paths, in document
    order.  The empty selector matches the root. *)

val replace : Term.t -> t -> Term.t -> Term.t option
(** Functional update of the subterm at a path.  [None] if the path is
    invalid.  Replacing the root returns the replacement. *)

val delete : Term.t -> t -> Term.t option
(** Removes the child addressed by the path from its parent.  [None] if
    the path is invalid or empty (the root cannot be deleted). *)

val insert_child : ?at:int -> Term.t -> t -> Term.t -> Term.t option
(** [insert_child ?at doc path child] inserts [child] into the children
    of the element at [path] ([at] defaults to the end).  [None] if the
    path is invalid or does not address an element. *)
