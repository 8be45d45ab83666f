(** XML-infoset-like data terms.

    This is the data model shared by the whole system (Thesis 7: one data
    model for events, conditions, and actions).  A term is either an
    element with a label, attributes, and children, or a scalar leaf
    (text, number, boolean).  Elements declare whether the order of their
    children is significant ([Ordered], rendered with [\[..\]]) or not
    ([Unordered], rendered with [{..}]), following Xcerpt's data terms.

    Each element additionally carries a {e surrogate identity} field
    [id].  The id is {b excluded} from extensional operations ([equal],
    [compare], [digest], serialisation); it exists so that stores can
    track objects across value changes (Thesis 10).  Terms built with the
    public constructors have [id = no_id]. *)

type ordering = Ordered | Unordered

type t =
  | Elem of elem
  | Text of string
  | Num of float
  | Bool of bool

and elem = {
  id : int;  (** surrogate identity; [no_id] when unassigned *)
  label : string;
  attrs : (string * string) list;  (** sorted by key, keys unique *)
  ord : ordering;
  children : t list;
}

val no_id : int
(** The id value marking an element without surrogate identity. *)

(** {1 Constructors} *)

val elem : ?ord:ordering -> ?attrs:(string * string) list -> string -> t list -> t
(** [elem label children] builds an element.  [ord] defaults to
    [Ordered].  Attributes are sorted by key; a duplicate key raises
    [Invalid_argument]. *)

val text : string -> t
val num : float -> t
val int : int -> t
val bool_ : bool -> t

val with_id : int -> t -> t
(** [with_id i t] sets the surrogate id of the root element of [t].
    Identity on leaves; raises nothing. *)

(** {1 Accessors} *)

val label : t -> string option
(** Root label of an element, [None] for leaves. *)

val children : t -> t list
(** Children of an element, [[]] for leaves. *)

val attr : string -> t -> string option
(** Attribute lookup on the root element. *)

val elem_id : t -> int
(** Surrogate id of the root element; [no_id] for leaves or unassigned. *)

val as_text : t -> string option
(** Scalar leaves rendered as a string; [None] for elements. *)

val as_num : t -> float option
(** Numeric view of a leaf: a [Num], a [Bool] (0/1), or a [Text] that
    parses as a float. *)

(** {1 Extensional operations} — all ignore surrogate ids. *)

val equal : t -> t -> bool
(** Structural equality.  [Unordered] children compare as multisets. *)

val compare : t -> t -> int
(** Total order consistent with [equal] (unordered children are compared
    in canonical order). *)

val digest : t -> int
(** Extensional value identity for Thesis 10: [equal a b] implies
    [digest a = digest b], and unequal terms collide with probability
    about 2{^-63}.  Callers that find a digest match do not re-check
    equality: the store's query cache serves a memoized answer on it.

    Construction, on native 63-bit ints (all arithmetic wraps):
    - strings (texts, labels, attribute keys and values) go through a
      length-prefixed FNV-1a, which keeps all 63 bits (not
      [Hashtbl.hash]'s 30);
    - a number hashes the 64 bits of its float, with [-0.] read as [0.]
      and every NaN as one NaN, as {!equal} reads them;
    - every leaf digest and every element header (ordering, label,
      sorted attributes) passes through a bijective finaliser, so all
      digests are fully mixed;
    - [Ordered] children are chained by position: [h := mix (h + digest
      child)], starting from the header;
    - [Unordered] children are summed: the element's digest is [mix
      (header + sum)], where [sum] is the wrapping sum of the children's
      digests.  No sort, and the sum can follow one child at a time
      ({!multiset_digest}).

    Surrogate ids are ignored.  Digests are in-memory keys only: they
    are never persisted, and may change between versions of this
    library. *)

type multiset_digest
(** The digest of an [Unordered] element in parts: the hash of its
    header and the wrapping sum of its children's digests. *)

val multiset_digest : t -> multiset_digest option
(** [Some] parts of an [Unordered] element (one pass, the cost of
    {!digest}); [None] for ordered elements and leaves. *)

val multiset_shift : multiset_digest -> added:t list -> removed:t list -> multiset_digest
(** The parts of the same element with the [added] children inserted
    and the [removed] ones deleted, at the cost of digesting those
    children only. *)

val digest_of_multiset : multiset_digest -> int
(** [digest_of_multiset m] is the {!digest} of the element [m]
    describes: [digest t = digest_of_multiset (Option.get
    (multiset_digest t))] for every [Unordered] element. *)

(** {1 Traversal and size} *)

val size : t -> int
(** Number of nodes (elements and leaves). *)

val depth : t -> int

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Pre-order fold over all subterms, including the root. *)

val subterms : t -> t list
(** All subterms in pre-order, including the root. *)

val find_all : (t -> bool) -> t -> t list
(** Subterms satisfying a predicate, in pre-order. *)

val map_elements : (elem -> elem) -> t -> t
(** Bottom-up rewrite of every element. *)

val strip_ids : t -> t
(** Recursively reset all surrogate ids to [no_id]. *)

(** {1 Printing} *)

val pp : t Fmt.t
(** Compact Xcerpt-like rendering: [label\[a\[..\], "text"\]] for ordered,
    [label{..}] for unordered. *)

val to_string : t -> string
