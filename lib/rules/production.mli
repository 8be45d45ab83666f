(** Production (Condition-Action) rules — the baseline of Thesis 1.

    A production rule ["if condition do action"] fires when the
    condition {e becomes} true.  Footnote 4 of the paper is normative
    here: the production rule "fires only once, when the condition
    becomes true", unlike the ECA rule [on true if C do A] which would
    fire on every event while C holds.  We implement transition
    semantics at answer granularity: each polling cycle evaluates the
    condition and fires the action for every answer that was {e not} in
    the previous cycle's answer set; an answer that disappears and later
    reappears fires again.

    Production engines must be {e polled} — they have no events to react
    to — which is exactly the cost E1 measures against ECA rules. *)

open Xchange_query
open Xchange_obs

type rule = { name : string; condition : Condition.t; action : Action.t }

type t

val create : rule list -> t
(** Each rule keeps its own [previous] answer set (the transition
    semantics) and evaluates its own condition on every cycle. *)

val metrics : t -> Obs.Metrics.t
(** The engine's registry: [production.cycles],
    [production.condition_evaluations], [production.firings],
    [production.errors]. *)

val poll :
  env:Condition.env ->
  ops:Action.ops ->
  procs:(string -> Action.proc option) ->
  t ->
  (string * Subst.t) list
(** One polling cycle: evaluates every rule's condition against the
    current store state and fires actions for newly-true answers.
    Returns the (rule name, answer) pairs that fired. *)
