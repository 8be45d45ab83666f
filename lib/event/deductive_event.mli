(** Deductive rules for events (Thesis 9).

    An event view derives a higher-level event from a pattern of
    lower-level ones, mirroring what deductive rules do for Web data:
    "the same advantages apply for querying and reasoning with event
    data".  A derivation rule pairs an event query (the trigger) with a
    construct term building the payload of the derived event.

    Thesis 9 explicitly allows the language to "be more restrictive
    about rules for events for efficiency reasons (e.g., reject
    recursive rules)" — {!compile} rejects programs in which a derived
    event label can (transitively) trigger its own derivation. *)

open Xchange_query

type rule = {
  name : string;
  derived_label : string;  (** label of the event this rule derives *)
  trigger : Event_query.t;
  payload : Construct.t;  (** instantiated with each detection's bindings *)
}

type program = rule list

type t
(** A compiled, stratified derivation network. *)

val rule :
  name:string -> derives:string -> trigger:Event_query.t -> payload:Construct.t -> rule

val dependencies : program -> (string * string list) list
(** Derived label -> labels of the atomic event queries triggering it
    (a [None] label in an atomic query is reported as ["*"] and makes
    the rule depend on every label). *)

val compile :
  ?horizon:Clock.span ->
  ?index:bool ->
  ?share:(Event_query.atomic -> Incremental.atom_matcher) ->
  ?share_sub:(ctx:Clock.span option -> Event_query.t -> Incremental.subtree_matcher option) ->
  ?fresh_id:(unit -> int) ->
  program ->
  (t, string) result
(** Fails on recursive programs (including rules triggered by ["*"]
    wildcard atomic queries, which would always be recursive) and on
    invalid trigger queries.  [index], [share] and [share_sub] are
    forwarded to each trigger's {!Incremental.create}
    (hash-partitioned joins, shared alpha matchers, shared beta
    pipelines; [index] defaults to true).  [fresh_id] allocates
    derived-event ids (typically the owning node's origin lane, see
    {!Event.scoped_id}); defaults to the global [Event] counter. *)

val feed : t -> Event.t -> Event.t list
(** Processes one external event and returns all derived events
    (cascading through strata), in derivation order.  Derived events
    carry the triggering detection's time and the deriving rule's name
    as sender ["derived:<name>"]. *)

val advance_to : t -> Clock.time -> Event.t list
(** Timer-driven derivations (absence triggers). *)

val next_deadline : t -> Clock.time option
(** Earliest pending absence deadline across the derivation rules —
    when {!advance_to} must run for a timer-driven derivation to happen
    on schedule ([None] when no timer is armed). *)

val join_stats : t -> Incremental.join_stats
(** Aggregated join counters across all derivation-rule engines. *)
