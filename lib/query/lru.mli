(** A small bounded cache with least-recently-used eviction.

    Keys are compared and hashed structurally (polymorphic [Hashtbl]);
    keep them to plain data.  Recency is a monotonic use counter;
    eviction scans the (capacity-bounded) table, which keeps the
    implementation trivial and is amortized by the cost of producing the
    value being inserted (a regex compilation, a full document match).

    Hit/miss/eviction counters are exposed for the observability hooks
    (the [store.query_cache_*] cells of {!Xchange_web.Store.metrics},
    experiment harnesses). *)

type ('k, 'v) t

val create : cap:int -> ('k, 'v) t
(** [cap >= 1] is the maximum number of entries. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Bumps recency on hit; counts a hit or a miss. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Inserts (or refreshes) a binding, evicting the least recently used
    entry when full. *)

val length : ('k, 'v) t -> int
val capacity : ('k, 'v) t -> int
val clear : ('k, 'v) t -> unit
(** Drops all entries; counters are kept. *)

val hits : ('k, 'v) t -> int
val misses : ('k, 'v) t -> int
val evictions : ('k, 'v) t -> int
