(** Deductive rules for events (Thesis 9).

    An event view derives a higher-level event from a pattern of
    lower-level ones, mirroring what deductive rules do for Web data:
    "the same advantages apply for querying and reasoning with event
    data".  A derivation rule pairs an event query (the trigger) with a
    construct term building the payload of the derived event.  The rule
    engine ({!Xchange_rules.Engine}) runs derivation rules beside the
    ECA rules, in the order {!stratify} gives them: each detection of a
    trigger derives one event, stamped with the detection's end time and
    sent by ["derived:<name>"], and that event reaches the later strata
    and every ECA rule.

    Thesis 9 explicitly allows the language to "be more restrictive
    about rules for events for efficiency reasons (e.g., reject
    recursive rules)" — {!stratify} rejects programs in which a derived
    event label can (transitively) trigger its own derivation. *)

open Xchange_query

type rule = {
  name : string;
  derived_label : string;  (** label of the event this rule derives *)
  trigger : Event_query.t;
  payload : Construct.t;  (** instantiated with each detection's bindings *)
}

type program = rule list

val rule :
  name:string -> derives:string -> trigger:Event_query.t -> payload:Construct.t -> rule

val stratify : program -> (program, string) result
(** Orders the rules so that each one triggers only on external labels
    or on labels derived by earlier rules: an event a rule derives
    reaches only the rules after it.  Fails on recursive programs,
    including rules triggered by ["*"] wildcard atomic queries (an
    atomic query without a label), which would always be recursive. *)
