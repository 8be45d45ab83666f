(** Identity of data items (Thesis 10).

    Two notions of identity for monitoring Web data items:

    - {b Extensional} identity: an item is identified by its value
      ({!Term.equal}; {!Term.digest} is its in-memory hash, equal on
      equal values, which caches and watches key on but which is never
      persisted).  When the value changes, identity is lost — the item
      can no longer be found.  This is what plain XML/RDF resources
      offer.
    - {b Surrogate} identity: an item is identified by an external
      surrogate (an integer oid attached to element nodes), independent
      of its value, so it survives value changes.

    Stores assign surrogate ids when documents are loaded and maintain
    them across updates; this module provides the id allocation and the
    lookup primitives. *)

val fresh : unit -> int
(** A fresh, strictly positive surrogate id.  Unique process-wide:
    each domain allocates from its own lane (domain id in the high
    bits), so sharded schedulers never contend; the main domain's lane
    is 0, keeping sequential runs' ids the familiar small integers. *)

val assign : Term.t -> Term.t
(** Gives a fresh surrogate id to every element that has none
    ([Term.no_id]).  Existing ids are preserved. *)

val find_by_id : Term.t -> int -> Path.t option
(** Path of the element with the given surrogate id, if present. *)

val oids : Term.t -> (int * Path.t) list
(** All (surrogate id, path) pairs in pre-order; elements without an id
    are skipped. *)

val find_equal : Term.t -> Term.t -> Path.t list
(** Extensional lookup: paths of all subterms extensionally equal to the
    given value (Thesis 10's "identity = value" mode). *)
