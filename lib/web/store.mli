(** A node's persistent data: named XML documents and RDF graphs.

    This is the "normal, persistent, modifiable" side of Thesis 4 —
    written text, as opposed to the spoken words of events.  Updates go
    through {!apply} (the primitive actions of Thesis 8) and produce
    update notifications the hosting node can turn into local events
    (the basis for deriving ECA rules from production rules, Thesis 1).

    {b Identity (Thesis 10).}  Document elements carry surrogate ids
    (assigned on load and on insertion).  A [U_replace] transfers the
    replaced element's surrogate id to the replacement root — the object
    keeps its identity while its value changes.  Watches come in the two
    modes the paper contrasts:
    - a {e surrogate} watch follows an element by oid and survives value
      changes ([`Changed] reports with the item still tracked);
    - an {e extensional} watch knows its item only by value; after the
      value changes the item cannot be found any more ([`Lost]). *)

open Xchange_data
open Xchange_query
open Xchange_rules
open Xchange_obs

type t

type notification = { doc : string; summary : Term.t }
(** What changed, as a data term [update\[...\]] suitable for a local
    event payload. *)

val create : ?cache_capacity:int -> unit -> t
(** [cache_capacity] bounds the memoized-query LRU (default 512
    entries); pass [1] to effectively disable cross-query reuse. *)

(** {1 Documents} *)

val add_doc : t -> string -> Term.t -> unit
(** Loads a document under a path name (surrogate ids are assigned). *)

val doc : t -> string -> Term.t option
val doc_names : t -> string list
val remove_doc : t -> string -> bool

(** {1 RDF graphs} *)

val add_rdf : t -> string -> Rdf.graph -> unit
val rdf : t -> string -> Rdf.graph option
val rdf_names : t -> string list

(** {1 Updates} *)

val apply : t -> Action.update -> (int * notification list, string) result
(** Applies a primitive update; the count is the number of affected
    nodes/triples, with one notification per touched document. *)

val apply_txn : t -> Action.update list -> (int * notification list, string) result
(** All-or-nothing multi-update (the store face of Thesis 10's
    transactional updates): applies the mutations in order; reads
    between them see the earlier writes (optimistic execution); the
    first failure rolls the whole store back to its pre-transaction
    state and reports which update failed.  Observers see the
    individual [Ch_update]s only after the batch commits, or a single
    [Ch_restore] on abort.  [apply_txn t []] is a no-op [Ok (0, [])]. *)

val replace_at : t -> doc:string -> Path.t -> Term.t -> (unit, string) result
(** Positional single-node replace (used by hosts that edit documents
    directly, e.g. the polling producer of E3 and the identity
    experiment E10).  Like [U_replace], the replacement inherits the
    replaced element's surrogate id. *)

(** {1 Change observation and dynamic answerers}

    Hooks for components that maintain a derived view of a document —
    e.g. {!Pubsub}'s subscription index, which mirrors the
    [/subscribers] register incrementally instead of re-querying it per
    publish. *)

type change =
  | Ch_update of Action.update
      (** a successful {!apply} that affected at least one node; the
          update value is the one applied (selectors and content as
          instantiated by the rule engine) *)
  | Ch_doc of string  (** {!add_doc} / {!remove_doc} / {!replace_at} of this document *)
  | Ch_restore  (** {!rollback}: every document may have changed *)

val on_change : t -> (change -> unit) -> unit
(** Register an observer, called synchronously after each mutation.
    Observers cannot veto; exceptions propagate to the mutator. *)

val set_dynamic : t -> string -> (seed:Subst.t -> Qterm.t -> Subst.set option) -> unit
(** Install a per-document answerer consulted by {!query} {e before}
    the memoized document path.  Returning [Some answers] serves the query from
    the derived structure (counted in [store.dynamic_answers]);
    returning [None] falls back to the document.  The contract is
    answer-equivalence: a [Some] result must be exactly what the
    fallback would compute. *)

val env : t -> Condition.env
(** Query environment over this store only ([Local]/[Remote] resolve by
    path against this store; views resolve to nothing — the engine layers
    views on top).  [In] conditions are answered through {!query} — i.e.
    memoized. *)

(** {1 Memoized queries}

    Query answers are memoized in an LRU keyed by
    [(version digest, query, seed fingerprint)].  The version digest is
    the document's extensional {!Term.digest}: a hit is served on digest
    equality, without re-checking the document.  The first query on a
    version digests the whole document (counted in
    [store.full_digests]); after that the store keeps the digest up to
    date or drops it:
    - it is {e kept} across an {!apply} (also inside {!apply_txn}) of a
      [U_insert] with the empty selector, and of a [U_delete] with the
      empty selector and a pattern, when the root is [Unordered]: the
      root's children sum gains the inserted child's digest or loses
      each deleted child's ({!Term.multiset_digest}), at the cost of
      hashing those children only;
    - it is {e dropped} by every other mutation: other inserts and
      deletes, replaces, {!replace_at}, {!add_doc}, {!remove_doc},
      {!rollback} (so also an aborted {!apply_txn}) and
      {!load_snapshot}.
    Repeated conditions and polls over an unchanged document are O(1);
    entries of stale versions age out by eviction, since their digest
    can never be looked up again unless an equal document comes back —
    after a rollback, or after a crash recovery that reloads the same
    contents, the old entries hit again.  Digests live in memory only;
    snapshots do not carry them. *)

val query : t -> doc:string -> ?seed:Subst.t -> Qterm.t -> Subst.set
(** All matches of the query anywhere in the named document, exactly as
    [Simulate.matches_anywhere ~seed q] on {!doc}, memoized.  [] when the
    document does not exist. *)

val version_digest : t -> string -> int option
(** The digest the store holds for the named document's current
    version: [Some] once a fallback query has computed it and no
    dropping mutation has happened since, and then equal to
    [Term.digest] of {!doc}.  Read-only: it never computes a digest. *)

val metrics : t -> Obs.Metrics.t
(** The store's registry, counting since [create]:
    [store.dynamic_answers], [store.full_digests] (whole-document
    digests computed for the query key), plus pull cells sampling the
    query LRU ([store.query_cache_hits], [_misses], [_evictions],
    [_entries]). *)

(** {1 Snapshots} — the persistent side of a node, as one data term
    (documents and RDF graphs; watches are runtime state and are not
    included).  Used by the CLI to save/restore stores across runs. *)

type backup

val backup : t -> backup
val rollback : t -> backup -> unit
(** In-place restoration of documents and graphs (watches keep their
    registrations).  Basis of transactional compound actions. *)

val snapshot : t -> Term.t
val restore : Term.t -> (t, string) result
(** [restore (snapshot s)] has the same documents and graphs as [s]
    (fresh surrogate ids). *)

val load_snapshot : t -> Term.t -> (unit, string) result
(** In-place {!restore} into an existing store (crash recovery: the
    node record and every reference to its store survive, only the
    contents are replaced).  The snapshot is validated before anything
    is wiped — on [Error] the store is untouched.  Observers see one
    [Ch_restore]; watches keep their registrations (surrogate watches
    will report [`Lost]: recovered elements carry fresh surrogate ids —
    identity does not survive a crash, which is exactly what the two
    watch modes of Thesis 10 distinguish). *)

(** {1 Watches — Thesis 10} *)

type watch_id

val watch_surrogate : t -> doc:string -> Path.t -> (watch_id, string) result
(** Track the element at the path by its surrogate id. *)

val watch_extensional : t -> doc:string -> Term.t -> (watch_id, string) result
(** Track an item by its current value (must occur in the document). *)

type watch_status =
  [ `Unchanged
  | `Changed of Term.t  (** new value; tracking continues *)
  | `Lost  (** the item can no longer be identified *)
  ]

val poll_watch : t -> watch_id -> watch_status
(** Check a watch against the current document state.  A surrogate
    watch reports [`Changed] (and keeps tracking) when the element's
    value changed, [`Lost] only if the element was deleted.  An
    extensional watch reports [`Lost] as soon as its remembered value no
    longer occurs. *)

val watch_count : t -> int
