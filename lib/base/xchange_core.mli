(** Runtime configuration shared by every layer.

    The only contents today are the {!Escape} hatches: environment
    variables that switch an accelerated code path back to its
    reference implementation.  They exist for differential testing and
    ablation benchmarks, never for production tuning — every pair of
    paths is property-tested equivalent, so disabling one must never
    change observable behaviour, only cost. *)

module Escape : sig
  (** One environment variable per escape hatch, each read {e once} at
      program start (engines capture the decision at build time; a
      mid-run [putenv] has no effect, which keeps compiled state
      consistent).  The value ["1"] (or any non-empty string other
      than ["0"]) disables the accelerated path.

      The three oracle hatches ({!no_plan}, {!no_subindex},
      {!no_share}) only set the default of one per-call argument, and
      an explicit argument always wins.  Each is read at the named
      sites and nowhere else.  {!no_par} and {!no_wal} override their
      arguments instead.

      The full table lives in HACKING.md ("Escape hatches"); adding a
      hatch means adding it {b here} and in that table, nowhere else. *)

  val no_plan : bool
  (** [XCHANGE_NO_PLAN=1]: default [?plan] of the
      {!Xchange_query.Simulate} entry points (and
      {!Xchange_query.Simulate.matcher}) to the backtracking
      interpreter instead of compiled {!Xchange_query.Plan} closures. *)

  val no_subindex : bool
  (** [XCHANGE_NO_SUBINDEX=1]: default [?index] of
      {!Xchange_rules.Engine.create} and
      {!Xchange_web.Pubsub.subscribers} to [false], the full scans;
      {!Xchange_web.Pubsub.Registry.attach} then installs no
      answerer. *)

  val no_share : bool
  (** [XCHANGE_NO_SHARE=1]: default [?share] of
      {!Xchange_rules.Engine.create} and
      {!Xchange_rules.Production.create} to [false]: per-rule matchers,
      join state and conditions instead of the shared networks. *)

  val no_par : bool
  (** [XCHANGE_NO_PAR=1]: force every {!Xchange_web.Network} onto the
      single sequential scheduler timeline regardless of [~domains] or
      [XCHANGE_DOMAINS] — the differential oracle for the sharded
      multicore scheduler. *)

  val no_wal : bool
  (** [XCHANGE_NO_WAL=1]: create every node without a write-ahead log.
      Non-crash behaviour is identical (the WAL is an output, never an
      input, of normal processing); a crashed node then recovers
      amnesic — empty store, fresh engine — instead of replaying.  The
      hatch exists so the whole suite can demonstrate that durability
      machinery never changes live semantics. *)

  val domains : int option
  (** [XCHANGE_DOMAINS=n]: default domain count for networks created
      without an explicit [~domains] (read once at program start;
      [None] when unset or unparseable).  Not a hatch — it picks the
      degree of sharding, while {!no_par} picks the oracle. *)

  val all : unit -> (string * bool * string) list
  (** [(variable, currently set, one-line description)] for every known
      hatch — lets harnesses report which reference paths a run used. *)
end

(** Domain-local state with merge-on-snapshot.

    Each domain gets its own instance of a mutable structure (created
    by the callback on first touch); [fold]/[iter] visit every
    domain's instance for whole-process accounting.  Snapshots must be
    taken while worker domains are parked (the network driver only
    samples at barriers), so no locking is needed on the instances
    themselves — only the instance registry is mutex-guarded. *)
module Domain_local : sig
  type 'a t

  val create : (unit -> 'a) -> 'a t
  (** The creating domain's instance is materialised eagerly, so
      single-domain programs pay nothing and behave as before. *)

  val get : 'a t -> 'a
  (** This domain's instance (created on first call per domain). *)

  val fold : 'a t -> init:'b -> f:('b -> 'a -> 'b) -> 'b
  val iter : 'a t -> ('a -> unit) -> unit

  (** Per-domain counters merged on read: the hot-path increment is a
      plain [incr] on this domain's cell. *)
  module Counter : sig
    type nonrec t = int ref t

    val create : unit -> t
    val incr : t -> unit
    val add : t -> int -> unit
    val total : t -> int
    val reset : t -> unit
  end
end
