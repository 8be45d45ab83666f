open Xchange_query
open Xchange_obs

type rule = { name : string; condition : Condition.t; action : Action.t }

type state = { rule : rule; mutable previous : Subst.set }

type t = {
  rules : state list;
  m : Obs.Metrics.t;
  c_cycles : Obs.Metrics.Counter.t;
  c_evals : Obs.Metrics.Counter.t;
  c_firings : Obs.Metrics.Counter.t;
  c_errors : Obs.Metrics.Counter.t;
}

let create rules =
  let m = Obs.Metrics.create () in
  {
    rules = List.map (fun rule -> { rule; previous = [] }) rules;
    m;
    c_cycles = Obs.Metrics.counter m "production.cycles";
    c_evals = Obs.Metrics.counter m "production.condition_evaluations";
    c_firings = Obs.Metrics.counter m "production.firings";
    c_errors = Obs.Metrics.counter m "production.errors";
  }

let metrics t = t.m

let poll ~env ~ops ~procs t =
  Obs.Metrics.Counter.incr t.c_cycles;
  List.concat_map
    (fun st ->
      Obs.Metrics.Counter.incr t.c_evals;
      let answers = Condition.eval env Subst.empty st.rule.condition in
      let fresh =
        List.filter (fun a -> not (List.exists (Subst.equal a) st.previous)) answers
      in
      st.previous <- answers;
      List.filter_map
        (fun subst ->
          match Action.exec ~env ~ops ~procs ~subst ~answers st.rule.action with
          | Ok _ ->
              Obs.Metrics.Counter.incr t.c_firings;
              Some (st.rule.name, subst)
          | Error _ ->
              Obs.Metrics.Counter.incr t.c_errors;
              None)
        fresh)
    t.rules
