(** The event query language (Thesis 5).

    Composite events "do not exist explicitly in the stream of incoming
    atomic events"; they are specified by event queries covering the
    paper's four complementary dimensions:

    - {b data extraction} — [Atomic] embeds a {!Xchange_query.Qterm}
      pattern over the event payload, delivering variable bindings;
    - {b event composition} — [And], [Or], [Seq] and the absence query
      [Absent] (negation needs a window to be detectable);
    - {b temporal conditions} — [Within] bounds the extent of a
      detection; [Seq] orders constituents ("A before B"); [Absent]
      carries its deadline;
    - {b event accumulation} — [Times] (n occurrences within a window,
      e.g. "3 server outages within 1 hour"), [Agg] (sliding aggregate
      over the last n values, e.g. "average of the last 5 stock
      prices"), and [Rises] (the paper's "average raises by 5%").

    Shared variables across constituents {e join}: [Times 3] of
    [outage{{server\[var S\]}}] only counts outages of the same server,
    and an [Absent] rebooking only cancels the flight-cancellation whose
    bindings it merges with. *)

open Xchange_query

type t =
  | Atomic of atomic
  | And of t list  (** all occur, in any order *)
  | Or of t list
  | Seq of t list  (** in strict temporal order *)
  | Within of t * Clock.span  (** detection extent at most the span *)
  | Absent of t * t * Clock.span
      (** [Absent (q1, q2, w)]: [q1] occurs and no joining [q2] starts
          within [w] after it; detected (by timer) at [q1]'s end + [w]. *)
  | Times of int * t * Clock.span
      (** n jointly-mergeable occurrences within the span; detected when
          the n-th arrives *)
  | Agg of agg_spec
  | Rises of rises_spec

and atomic = {
  label : string option;  (** event label; [None] matches any *)
  pattern : Qterm.t;  (** over the payload *)
  sender : string option;  (** required sender URI *)
}

and agg_spec = {
  over : t;
  var : string;  (** numeric variable of [over] that is aggregated *)
  window : int;  (** number of most recent instances aggregated *)
  op : Construct.agg;
  bind : string;  (** variable receiving the aggregate in detections *)
}
(** Instances of [over] are grouped by their bindings on the variables
    of [over] other than [var] (e.g. stock prices group by stock name);
    within a group the aggregate slides over the last [window] values. *)

and rises_spec = {
  r_over : t;
  r_var : string;
  r_window : int;
  r_ratio : float;  (** detect when avg(last w) >= ratio * avg(previous w) *)
  r_bind : string;  (** bound to the new average *)
}

(** {1 Constructors} *)

val on : ?sender:string -> ?label:string -> Qterm.t -> t
(** Atomic event query; when [label] is omitted, any event whose payload
    matches is selected. *)

val conj : t list -> t
val disj : t list -> t
val seq : t list -> t
val within : t -> Clock.span -> t
val absent : t -> then_absent:t -> for_:Clock.span -> t
val times : int -> t -> Clock.span -> t

(** {1 Analysis} *)

val vars : t -> string list
(** Variables a detection can bind (including [Agg]/[Rises] binders). *)

val atoms : t -> atomic list
(** All atomic sub-queries (for label indexing and dependency checks). *)

val has_timers : t -> bool
(** Whether the query contains an absence operator — the only source of
    timer-driven detections.  Engines use this to skip clock advances on
    queries that cannot need them. *)

val has_accumulators : t -> bool
(** Whether the query contains an [Agg] or [Rises] operator.  Their
    group buffers are not reconstructible from detection ids, so the
    shared beta network ({!Xchange_rules.Beta}) refuses to share
    subtrees containing them (consumption could not be replayed as an
    id filter). *)

val canonicalize : t -> t * (string * string) list
(** Alpha-rename the query into canonical form: variables are numbered
    [v0], [v1], ... by first occurrence in a deterministic traversal, so
    queries equal up to variable names yield the {e same} canonical
    query.  Also returns the canonical -> original name mapping (a
    bijection; applying it to a canonical answer's bindings restores the
    original names).  Idempotent on already-canonical queries. *)

val max_window : t -> Clock.span option
(** An upper bound on how long an atomic instance can remain relevant,
    when one exists: [None] means unbounded (no enclosing window), i.e.
    partial matches must be kept forever — the Thesis 4 "shadow Web"
    hazard that experiment E4 measures. *)

val validate : t -> (unit, string) result
(** [Times] needs n >= 1; [Agg]/[Rises] need window >= 1 and patterns
    that bind their variable; nested patterns must pass
    {!Qterm.validate}. *)

val pp : t Fmt.t
