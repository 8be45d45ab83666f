(** Event-Condition-Action rules (Theses 1, 9).

    The rule forms of the paper:
    - ECA — ["on event if condition do action"]: one branch;
    - ECAA — [on E if C do A1 else A2]: one branch plus an alternative
      action fired when the condition does {e not} hold, evaluating the
      condition only once (Thesis 9);
    - ECnAn — several condition/action pairs; the {e first} branch whose
      condition holds fires (Knolmayer et al.).

    Per detection of the event query, the branches are tried in order;
    the first branch with a non-empty answer set executes its action
    {b once per answer}.  If no branch succeeds and an [else_action] is
    present, it executes once with the detection's own bindings. *)

open Xchange_query
open Xchange_event
open Xchange_obs

type branch = { condition : Condition.t; action : Action.t }

type t = {
  name : string;
  event : Event_query.t;
  branches : branch list;
  else_action : Action.t option;
  consume : bool;  (** use up constituent events on firing (Thesis 5) *)
  selection : Incremental.selection;
}

val make :
  ?consume:bool ->
  ?selection:Incremental.selection ->
  ?else_:Action.t ->
  name:string ->
  on:Event_query.t ->
  ?if_:Condition.t ->
  Action.t ->
  t
(** An ECA rule (one branch; [if_] defaults to [Condition.True]); add
    [?else_] for ECAA. *)

val make_ecnan :
  ?consume:bool ->
  ?selection:Incremental.selection ->
  ?else_:Action.t ->
  name:string ->
  on:Event_query.t ->
  branch list ->
  t

type firing = {
  rule : string;
  branch : int option;  (** [None] when the else-action fired *)
  bindings : Subst.t;
  outcome : Action.outcome;
}

val fire :
  ?evaluations:Obs.Metrics.Counter.t ->
  env:Condition.env ->
  ops:Action.ops ->
  procs:(string -> Action.proc option) ->
  t ->
  Instance.t ->
  (firing list, string) result list
(** Processes one detection of the rule's event query: branch selection,
    condition evaluation (one [evaluations] increment per branch
    condition evaluated) and action execution. *)

val pp : t Fmt.t
