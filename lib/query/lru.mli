(** A small bounded cache with least-recently-used eviction.

    Keys are compared and hashed by the functor argument: a query-keyed
    cache hashes with {!Qterm.key_hash}.  Recency is a monotonic use
    counter, so which entry is evicted never depends on the hash;
    eviction scans the (capacity-bounded) table, which keeps the
    implementation trivial and is amortized by the cost of producing the
    value being inserted (a regex compilation, a full document match).

    Hit/miss/eviction counters are exposed for the observability hooks
    (the [store.query_cache_*] cells of {!Xchange_web.Store.metrics},
    experiment harnesses). *)

module Make (K : Hashtbl.HashedType) : sig
  type 'v t

  val create : cap:int -> 'v t
  (** [cap >= 1] is the maximum number of entries. *)

  val find : 'v t -> K.t -> 'v option
  (** Bumps recency on hit; counts a hit or a miss. *)

  val add : 'v t -> K.t -> 'v -> unit
  (** Inserts (or refreshes) a binding, evicting the least recently used
      entry when full. *)

  val length : 'v t -> int
  val capacity : 'v t -> int
  val clear : 'v t -> unit
  (** Drops all entries; counters are kept. *)

  val hits : 'v t -> int
  val misses : 'v t -> int
  val evictions : 'v t -> int
end
