open Xchange_query
open Xchange_event
open Xchange_obs

type branch = { condition : Condition.t; action : Action.t }

type t = {
  name : string;
  event : Event_query.t;
  branches : branch list;
  else_action : Action.t option;
  consume : bool;
  selection : Incremental.selection;
}

let make ?(consume = false) ?(selection = Incremental.Each) ?else_ ~name ~on
    ?(if_ = Condition.True) action =
  {
    name;
    event = on;
    branches = [ { condition = if_; action } ];
    else_action = else_;
    consume;
    selection;
  }

let make_ecnan ?(consume = false) ?(selection = Incremental.Each) ?else_ ~name ~on branches =
  { name; event = on; branches; else_action = else_; consume; selection }

type firing = {
  rule : string;
  branch : int option;
  bindings : Subst.t;
  outcome : Action.outcome;
}

let fire ?evaluations ~env ~ops ~procs rule (detection : Instance.t) =
  let subst = detection.Instance.subst in
  let run_action ~branch ~answer_subst ~answers action =
    (* sends the action performs emit their spans under this one, so the
       trace tree runs detection -> action -> outbound messages *)
    let span =
      if Obs.enabled () then
        Obs.Trace.begin_span ~cat:"action"
          ~args:[ ("rule", rule.name) ]
          ~name:"action" ~vt:(ops.Action.now ()) ()
      else 0
    in
    let result = Action.exec ~env ~ops ~procs ~subst:answer_subst ~answers action in
    Obs.Trace.end_span span ~vt:(ops.Action.now ());
    Result.map
      (fun outcome -> [ { rule = rule.name; branch; bindings = answer_subst; outcome } ])
      result
  in
  let rec try_branches i = function
    | [] -> (
        match rule.else_action with
        | Some action -> [ run_action ~branch:None ~answer_subst:subst ~answers:[ subst ] action ]
        | None -> [])
    | b :: rest -> (
        Option.iter Obs.Metrics.Counter.incr evaluations;
        match Condition.eval env subst b.condition with
        | [] -> try_branches (i + 1) rest
        | answers ->
            List.map
              (fun answer_subst -> run_action ~branch:(Some i) ~answer_subst ~answers b.action)
              answers)
  in
  try_branches 0 rule.branches

let pp_branch ppf (i, b) =
  Fmt.pf ppf "if[%d] %a do %a" i Condition.pp b.condition Action.pp b.action

let pp ppf rule =
  Fmt.pf ppf "@[<v 2>rule %s:@ on %a@ %a%a@]" rule.name Event_query.pp rule.event
    Fmt.(list ~sep:cut pp_branch)
    (List.mapi (fun i b -> (i, b)) rule.branches)
    Fmt.(option (any "@ else do " ++ Action.pp))
    rule.else_action
