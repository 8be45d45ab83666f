(** Publish/subscribe as plain reactive rules (Thesis 3).

    Push requires the producer to know "other, interested Web sites".
    On an open Web that interest is declared by the consumers: this
    module provides the standard rule set a producer installs to manage
    a subscriber register and fan out notifications — no broker, no
    super-peer, just point-to-point events (the fan-out rule fires once
    per answer of the subscriber query, which is exactly the ECA
    per-answer semantics of {!Xchange_rules.Eca}).

    Protocol (all payloads are ordinary data terms):
    - [subscribe\[topic\[T\], host\[H\]\]] — H wants notifications for T;
    - [unsubscribe\[topic\[T\], host\[H\]\]];
    - [publish\[topic\[T\], body\[...\]\]] — producers publish through their
      own node (often from another rule's action);
    - subscribers receive [notify\[topic\[T\], body\[...\]\]].

    {b Scale.}  The register document stays the source of truth, but a
    {!Registry} attached to the store mirrors it into a
    {!Xchange_query.Sub_index} and serves the fan-out rule's subscriber
    query through {!Store.set_dynamic} — a publish then costs
    O(subscribers of its topic), not O(all subscribers).  The mirror is
    maintained incrementally from the store's change feed; any register
    mutation it cannot interpret (nested entries, non-text topics,
    handcrafted structure) triggers a full resync, and registers that
    are not plain pair lists disable the fast path entirely until they
    are clean again — answers are always exactly those of the document
    query.  [XCHANGE_NO_SUBINDEX=1] keeps the rule-driven linear-scan
    path as the differential oracle: attached registries then install
    no answerer, and {!subscribers} defaults to [~index:false]. *)

open Xchange_data
open Xchange_rules
open Xchange_obs

val subscribers_doc : string
(** ["/subscribers"] — the register document. *)

val empty_register : unit -> Term.t

val sub_entry_q : Xchange_query.Qterm.t
(** [sub\[topic\[var T\], host\[var H\]\]] — the register entry pattern the
    fan-out rule queries (one answer per subscription). *)

val publisher_ruleset : ?name:string -> unit -> Ruleset.t
(** The three rules (subscribe, unsubscribe, fan out). *)

val subscribe : topic:string -> host:string -> Term.t
val unsubscribe : topic:string -> host:string -> Term.t
val publish : topic:string -> Term.t -> Term.t

val subscribers : ?index:bool -> Store.t -> topic:string -> string list
(** Hosts currently subscribed to a topic, sorted.  By default served
    through {!Store.query} — index-pruned, memoized, and answered
    directly by an attached {!Registry}; [~index:false] scans the
    register document with the plain interpreter (the test oracle).
    [index] defaults to true unless [XCHANGE_NO_SUBINDEX=1] is set; an
    explicit [~index] wins. *)

(** Topic-keyed subscription index over the register document. *)
module Registry : sig
  type t

  val create : unit -> t
  (** A standalone registry (no store): populate with {!subscribe} /
      {!unsubscribe} and query with {!match_publish} — the shape the
      benchmarks drive. *)

  val attach : Store.t -> t
  (** Mirror the store's [/subscribers] document: subscribes to the
      store's change feed, and — unless [XCHANGE_NO_SUBINDEX=1] —
      installs the {!Store.set_dynamic} answerer so the fan-out rule's
      register query is served from the index.  The mirror is lazy: it
      (re)builds from the document on first use and after any
      unrecognised mutation.  Do not combine with direct {!subscribe} /
      {!unsubscribe} calls — attached registries are maintained by the
      change feed alone. *)

  val subscribe : t -> topic:string -> host:string -> unit
  (** Standalone registries only.  Idempotent per (topic, host). *)

  val unsubscribe : t -> topic:string -> host:string -> bool
  (** Standalone registries only.  [false] when the pair was unknown. *)

  val subscribers : t -> topic:string -> string list
  (** Hosts subscribed to exactly this topic, sorted. *)

  val match_publish : t -> Term.t -> string list
  (** Hosts whose subscription query matches the publish payload —
      candidate selection through the trie, confirmed by compiled-plan
      execution.  Sorted. *)

  val size : t -> int
  (** Live mirrored (topic, host) pairs. *)

  val synced : t -> bool
  (** The mirror currently reflects the register without pending resync
      and without degraded (exotic-register) fallback. *)

  val exotic : t -> bool
  (** The register holds entries beyond root-level text pairs; fast
      paths are off and queries fall back to the document. *)

  val stats : t -> Xchange_query.Sub_index.stats
  val metrics : t -> Obs.Metrics.t
end
