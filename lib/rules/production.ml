open Xchange_query
open Xchange_obs

type rule = { name : string; condition : Condition.t; action : Action.t }

(* Shared-condition group: rules with structurally equal conditions
   evaluate once per cycle *generation* — any action execution bumps
   the generation, because an action may mutate the data a shared
   condition reads and a later rule must observe the post-action
   answers exactly as it would evaluating privately. *)
type group = {
  g_condition : Condition.t;
  mutable g_gen : int;  (* generation the cache was filled at; -1 = never *)
  mutable g_answers : Subst.set;
}

type state = { rule : rule; group : group option; mutable previous : Subst.set }

type t = {
  rules : state list;
  mutable gen : int;  (* bumped per cycle and after every action *)
  m : Obs.Metrics.t;
  c_cycles : Obs.Metrics.Counter.t;
  c_evals : Obs.Metrics.Counter.t;
  c_hits : Obs.Metrics.Counter.t;
  c_firings : Obs.Metrics.Counter.t;
  c_errors : Obs.Metrics.Counter.t;
}

let create ?(share = not Xchange_core.Escape.no_share) rules =
  let m = Obs.Metrics.create () in
  let groups = ref [] in
  let group_of condition =
    match List.find_opt (fun g -> g.g_condition = condition) !groups with
    | Some g -> g
    | None ->
        let g = { g_condition = condition; g_gen = -1; g_answers = [] } in
        groups := g :: !groups;
        g
  in
  {
    rules =
      List.map
        (fun rule ->
          {
            rule;
            group = (if share then Some (group_of rule.condition) else None);
            previous = [];
          })
        rules;
    gen = 0;
    m;
    c_cycles = Obs.Metrics.counter m "production.cycles";
    c_evals = Obs.Metrics.counter m "production.condition_evaluations";
    c_hits = Obs.Metrics.counter m "production.condition_hits";
    c_firings = Obs.Metrics.counter m "production.firings";
    c_errors = Obs.Metrics.counter m "production.errors";
  }

let metrics t = t.m

let poll ~env ~ops ~procs t =
  Obs.Metrics.Counter.incr t.c_cycles;
  t.gen <- t.gen + 1;
  List.concat_map
    (fun st ->
      let evaluate () =
        Obs.Metrics.Counter.incr t.c_evals;
        Condition.eval env Subst.empty st.rule.condition
      in
      let answers =
        match st.group with
        | None -> evaluate ()
        | Some g ->
            if g.g_gen = t.gen then begin
              Obs.Metrics.Counter.incr t.c_hits;
              g.g_answers
            end
            else begin
              let a = evaluate () in
              g.g_gen <- t.gen;
              g.g_answers <- a;
              a
            end
      in
      let fresh =
        List.filter (fun a -> not (List.exists (Subst.equal a) st.previous)) answers
      in
      st.previous <- answers;
      List.filter_map
        (fun subst ->
          let result = Action.exec ~env ~ops ~procs ~subst ~answers st.rule.action in
          (* the action may have written what a shared condition reads:
             invalidate every group cache filled this generation *)
          t.gen <- t.gen + 1;
          match result with
          | Ok _ ->
              Obs.Metrics.Counter.incr t.c_firings;
              Some (st.rule.name, subst)
          | Error _ ->
              Obs.Metrics.Counter.incr t.c_errors;
              None)
        fresh)
    t.rules
