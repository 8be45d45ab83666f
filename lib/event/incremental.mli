(** Data-driven, incremental evaluation of event queries (Thesis 6).

    The query is compiled to an operator tree whose nodes store partial
    matches; each incoming event extends the stored state and work done
    in one evaluation step is never redone ("when event A is detected,
    we remember this for later when B is detected").

    {b Timers.}  Absence queries detect at a deadline, not at an event:
    {!advance_to} moves the engine clock forward and emits detections
    whose deadline has passed.  The caller contract for determinism: all
    events with time <= t have been fed before [advance_to t] is called,
    and events are fed in non-decreasing time order.

    {b Garbage collection} (Thesis 4): a node's partial matches are
    pruned as soon as every enclosing window makes them irrelevant.
    Query parts under no window — e.g. a bare [And] — are retained
    forever unless the engine is created with a [horizon]; E4 measures
    this "shadow Web" growth.

    {b Equivalence.}  With [consume = false] and [selection = Each], the
    cumulative detections equal {!Backward.answers} over the same
    stream (for streams respecting the timer contract above) — checked
    by property tests.

    {b Instance selection and consumption} (Thesis 5, Zimmer & Unland):
    [selection] picks which simultaneous detections are reported;
    [consume] uses up the constituent events of a reported detection so
    they cannot support further detections. *)

type selection = Each | First | Last

type t

type atom_matcher = Event.t -> Xchange_query.Subst.set
(** Evaluation of one atomic event query against one event: envelope
    gating (label, sender) plus payload matching.  The default matcher
    is compiled privately per node at build time; [?share] lets an
    owner of {e many} engines (the rule engine's alpha network,
    {!Xchange_rules.Alpha}) hand every structurally-identical atom the
    {e same} memoizing matcher, so an occurrence is evaluated once and
    its substitutions fanned out — per-rule state (the beta joins'
    {!Istore}s) stays inside each engine. *)

type subtree_matcher = Event.t -> Instance.t list
(** Evaluation of one {e composite} sub-query against one event: the
    detection instances the event completes, in the subscriber's own
    variable names.  [?share_sub] lets the shared beta network
    ({!Xchange_rules.Beta}) back a whole And/Seq/Times/... subtree with
    one join pipeline fanned out across rules; a subscribed matcher
    must behave exactly like the private compilation it replaces (same
    instances — the shared-beta property suite checks this end to
    end).  Matchers are only consulted on event feeds: the beta network
    declines timer-bearing subtrees, so clock advances never produce. *)

val create :
  ?consume:bool ->
  ?selection:selection ->
  ?horizon:Clock.span ->
  ?index:bool ->
  ?share:(Event_query.atomic -> atom_matcher) ->
  ?share_sub:(ctx:Clock.span option -> Event_query.t -> subtree_matcher option) ->
  Event_query.t ->
  (t, string) result
(** Compiles the query ({!Event_query.validate} is applied).
    [consume] defaults to [false], [selection] to [Each], [horizon] to
    none (unbounded retention for window-less query parts).

    [share], when given, supplies the matcher of every atomic sub-query
    instead of the locally-compiled default; it must return matchers
    that behave exactly like the default ones (same substitution sets —
    the shared-alpha property suite checks this end to end).

    [share_sub], when given, is consulted for every {e composite}
    subtree during compilation, outermost first, with [ctx] the span of
    the nearest enclosing window operator (it decides internal pruning
    bounds, so it is part of the sharing key).  [Some matcher] replaces
    the whole subtree with a thin projection over the shared pipeline —
    the rule keeps only its parent-facing store (none at the root) and
    consumption bookkeeping, created at its first consumption (consumed
    detections are filtered from the shared output by event id rather
    than purged from the shared stores);
    [None] falls through to the private compilation, recursing into
    children.

    [index] (default true) stores partial matches in hash-partitioned,
    time-ordered stores ({!Istore}): [And]/[Seq]/[Times] joins probe
    only the partition keyed by the shared variables of the partial
    match being extended (plus a wildcard partition for incomplete
    bindings), and [Seq] additionally binary-searches the
    temporally-compatible run of each partition.  [~index:false] keeps
    the pre-refactor nested-loop joins over the full stored pools —
    detections are identical (property-tested); disable only for
    ablation, as BENCH_event does. *)

val create_exn :
  ?consume:bool ->
  ?selection:selection ->
  ?horizon:Clock.span ->
  ?index:bool ->
  ?share:(Event_query.atomic -> atom_matcher) ->
  ?share_sub:(ctx:Clock.span option -> Event_query.t -> subtree_matcher option) ->
  Event_query.t ->
  t

val create_sub :
  ?horizon:Clock.span ->
  ?index:bool ->
  ?share:(Event_query.atomic -> atom_matcher) ->
  ctx:Clock.span option ->
  Event_query.t ->
  t
(** The pipeline backing one shared beta node: compiled under the
    enclosing-window context [ctx] of the occurrence it replaces (so
    internal pruning bounds match the private compilation), [consume]
    off, [selection = Each] — selection and consumption are per-rule
    policies and stay in the subscribing engines.  Never takes
    [share_sub] (a shared node backed by a pipeline that re-enters the
    beta network would recurse forever); atoms may still be shared via
    [share].  The caller guarantees the subtree comes from a validated
    query — no validation is re-run. *)

val feed : t -> Event.t -> Instance.t list
(** Process one event; returns the detections it (or a deadline at or
    before its time) completes. *)

val advance_to : t -> Clock.time -> Instance.t list
(** Move time forward; returns timer-driven detections (absence). *)

val observes_time : t -> bool
(** Whether an input no atom can match — a bare {!advance_to}, or an
    event of a label the query never names — can change later answers.
    True for absence timers, for join state pruned to a [horizon]
    narrower than its window (or with no window at all), and for
    windowed joins read by an accumulator before the window's span
    check.  Every other pruning is invisible for inputs in time order,
    because the window rejects any tuple a pruned instance could still
    have joined.  A dispatcher may skip such inputs only when this is
    false. *)

val live_instances : t -> int
(** Number of stored partial matches across all operators (plus pending
    absences and accumulation buffer entries) — the memory proxy
    reported by E4.  The root operator has no store: it has no parent
    to read its detections back. *)

val next_deadline : t -> Clock.time option
(** Earliest pending absence deadline, if any — the time by which
    {!advance_to} must be called for a timer detection to fire on
    schedule.  Lets a discrete-event scheduler wake the engine exactly
    when a deadline is due instead of relying on periodic heartbeats. *)

(** {1 Join observability}

    Aggregated {!Istore} counters across the operator tree — the E5
    evidence that incremental evaluation "avoids re-scanning the
    history": [pairs_probed] counts candidates enumerated at join
    extension steps, [pairs_skipped] the stored instances a naive
    nested loop would have enumerated but a keyed/temporal probe never
    touched.  Under [~index:false] the joins enumerate full pools, so
    comparing [pairs_probed] across the two modes measures the join
    acceleration (see [bench/event_bench.ml]). *)

type join_stats = {
  probes : int;  (** probe/scan calls *)
  pairs_probed : int;
  pairs_skipped : int;
  instances_pruned : int;  (** dropped by window/horizon retention *)
  buckets : int;  (** populated hash partitions, summed over stores *)
  keyed_nodes : int;  (** stores with a non-empty partition key *)
}

val join_stats : t -> join_stats

val zero_join_stats : join_stats

val sum_join_stats : join_stats list -> join_stats
(** Pointwise sum — lets multi-engine owners (the rule engine, the
    beta network) report one aggregate. *)

(** {1 Atomic-matcher accounting}

    Process-global count of {e real} payload-matcher executions at
    atomic nodes (envelope-refuted events don't count; neither do
    shared-alpha memo hits).  Deterministic for a fixed workload, like
    {!Plan}'s prune counters — BENCH_rules compares it across the
    shared and unshared modes, and the shared alpha network reports
    into it so the two paths stay measurable under one metric. *)

val envelope_ok : Event_query.atomic -> Event.t -> bool
(** The label/sender gate every atom matcher applies before payload
    matching — exported so shared-matcher implementations gate exactly
    like the default matcher. *)

val atomic_matcher_runs : unit -> int
val note_atomic_run : unit -> unit
(** For shared-matcher implementations ({!Xchange_rules.Alpha}): record
    one real evaluation performed outside the default matcher. *)

val reset_atomic_matcher_runs : unit -> unit
