open Xchange_query
open Xchange_event
open Xchange_obs

type compiled = {
  qualified : string;
  rule : Eca.t;
  scope : Ruleset.scope;
  engine : Incremental.t;
}

(* A terminal node and the rules it feeds. *)
type terminal = {
  node : Beta.node;
  mutable subscribers : int list;  (** ascending; a later rule appends *)
}

(* An event-derivation rule and its trigger's engine. *)
type deriver = { spec : Deductive_event.rule; trigger : Incremental.t }

module Int_map = Map.Make (Int)

type cells = {
  c_lookups : Obs.Metrics.Counter.t;
  c_fed : Obs.Metrics.Counter.t;
  c_skipped : Obs.Metrics.Counter.t;
  c_advanced : Obs.Metrics.Counter.t;
  c_seen : Obs.Metrics.Counter.t;
  c_conditions : Obs.Metrics.Counter.t;
}

(* A rule's dispatch key is its index among the ECA rules, or
   [Array.length compiled + j] for derivation rule [j]. *)
type t = {
  root : Ruleset.t;
  compiled : compiled array;  (** in declaration order *)
  clocked : int list;
      (** the keys of the rules that see every input, ascending: those
          whose engine {!Incremental.observes_time} (absence timers,
          horizon-pruned or accumulated join state), and every rule on
          the full scan *)
  derivers : deriver array;  (** the event-derivation rules, in stratum order *)
  sub : int Sub_index.t option;
      (** dispatch keys registered by (label, payload fingerprint): the
          atoms of every non-terminal rule under its key and those of
          every terminal node under [-1 - Beta.id]; [Some] iff [index]
          — dispatch then refutes rules whose atom patterns cannot
          match the payload; [None] reaches every rule, all clocked *)
  terminals : terminal Int_map.t;
      (** by [Beta.id]; empty (and unallocated) when no rule is
          terminal, as on the full scan and without sharing *)
  beta : Beta.t option;
      (** the shared beta network every rule's composite subtrees, the
          derivation rules' included, register in; [None] under
          [~share:false].  The alpha network it shares atoms through
          lives in the rules' matchers. *)
  horizon : Clock.span option;  (** as requested at [create] (kept for {!load_ruleset}) *)
  index : bool;  (** as requested at [create] (kept for {!load_ruleset}) *)
  share : bool;  (** as requested at [create] (kept for {!load_ruleset}) *)
  fresh_event_id : (unit -> int) option;  (** derived-event id allocator *)
  remote_deps : ([ `Doc | `Rdf ] * string) list;
      (** remote URIs any rule/view/procedure condition can touch *)
  clocked_remote_deps : ([ `Doc | `Rdf ] * string) list;
      (** remote URIs an advance can reach: those of the timer-bearing
          rules, or all of them when a derivation rule has timers *)
  m : Obs.Metrics.t;
  c : cells;
}

(* the engine of the rule with dispatch key [k] *)
let rule_engine compiled derivers k =
  let n = Array.length compiled in
  if k < n then compiled.(k).engine else derivers.(k - n).trigger

(* every rule's engine, ECA rules then derivation rules *)
let engines t =
  List.init
    (Array.length t.compiled + Array.length t.derivers)
    (rule_engine t.compiled t.derivers)

let join_stats t =
  Incremental.sum_join_stats
    ((match t.beta with Some b -> Beta.join_stats b | None -> Incremental.zero_join_stats)
    :: List.map Incremental.join_stats (engines t))

let live_instances t =
  List.fold_left (fun acc e -> acc + Incremental.live_instances e) 0 (engines t)
  + match t.beta with Some b -> Beta.live_instances b | None -> 0

let ( let* ) = Result.bind

(* Static remote-resource analysis: every condition a compiled rule can
   evaluate — its branches, conditions embedded in its actions, and the
   bodies of the views visible from its scope.  Resources are literals
   in the condition language, so this is complete: the Web substrate
   prefetches exactly these URIs through real round-trips before
   handing an event to the engine. *)
let rule_conditions cr =
  let branch_conds = List.map (fun b -> b.Eca.condition) cr.rule.Eca.branches in
  let action_conds =
    List.concat_map Action.conditions
      (List.map (fun b -> b.Eca.action) cr.rule.Eca.branches
      @ Option.to_list cr.rule.Eca.else_action)
  in
  let view_conds =
    List.map (fun (r : Deductive.rule) -> r.Deductive.body) (Ruleset.views_in_scope cr.scope)
  in
  branch_conds @ action_conds @ view_conds

let remote_of conds =
  List.concat_map Condition.resources conds
  |> List.filter_map (function
       | kind, Condition.Remote uri -> Some (kind, uri)
       | _, (Condition.Local _ | Condition.View _) -> None)
  |> List.sort_uniq Stdlib.compare

(* merge two ascending duplicate-free int lists *)
let merge_sorted a b =
  let rec go a b acc =
    match (a, b) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: a', y :: b' ->
        if x < y then go a' b (x :: acc)
        else if y < x then go a b' (y :: acc)
        else go a' b' (x :: acc)
  in
  go a b []

let create ?horizon ?(index = not Xchange_core.Escape.no_subindex)
    ?(share = not Xchange_core.Escape.no_share) ?fresh_event_id root =
  let* () = Ruleset.validate root in
  let m = Obs.Metrics.create () in
  (* One alpha network per engine: every rule's atomic matchers, the
     derivation rules' included, register in it, so an occurrence is
     evaluated once per distinct pattern whatever the rule count. *)
  let alpha = if share then Some (Alpha.create ~metrics:m ()) else None in
  let share_hook = Option.map Alpha.subscribe alpha in
  (* One beta network per engine: every rule's composite subtrees, the
     derivation rules' included, register in it, so an event is joined
     once per distinct subtree whatever the rule count.  Its pipelines
     share atoms through the same alpha network. *)
  let beta = Option.map (fun alpha -> Beta.create ~metrics:m ?horizon ~index ~alpha ()) alpha in
  (* [Incremental.create] offers a composite root to the hook first, and
     a shared root ends its compilation: the last node subscribed is the
     rule's terminal node — the node dispatch reaches the rule through —
     when it was subscribed for the root itself *)
  let last_sub = ref None in
  let share_sub_hook =
    Option.map
      (fun b ~ctx q ->
        Option.map
          (fun (node, matcher) ->
            last_sub := Some (q, node);
            matcher)
          (Beta.subscribe b ~ctx q))
      beta
  in
  let* built =
    List.fold_left
      (fun acc (qualified, scope, rule) ->
        let* acc = acc in
        last_sub := None;
        match
          Incremental.create ~consume:rule.Eca.consume ~selection:rule.Eca.selection ?horizon
            ~index ?share:share_hook ?share_sub:share_sub_hook rule.Eca.event
        with
        | Error e -> Error (Fmt.str "rule %s: %s" qualified e)
        | Ok engine ->
            let terminal =
              match !last_sub with
              | Some (q, node) when q == rule.Eca.event -> Some node
              | _ -> None
            in
            Ok (({ qualified; rule; scope; engine }, terminal) :: acc))
      (Ok []) (Ruleset.scoped_rules root)
  in
  let built = List.rev built in
  (* every scope's visible views must be stratified *)
  let* () =
    List.fold_left
      (fun acc (qualified, scope, _) ->
        let* () = acc in
        match Deductive.check_stratified (Ruleset.views_in_scope scope) with
        | Ok () -> Ok ()
        | Error e -> Error (Fmt.str "rule %s: %s" qualified e))
      (Ok ()) (Ruleset.scoped_rules root)
  in
  (* derivation rules compile after the ECA rules, in stratum order *)
  let* derivers =
    let* ordered = Deductive_event.stratify (Ruleset.all_event_rules root) in
    List.fold_left
      (fun acc (spec : Deductive_event.rule) ->
        let* acc = acc in
        Incremental.create ?horizon ~index ?share:share_hook ?share_sub:share_sub_hook
          spec.Deductive_event.trigger
        |> Result.map (fun trigger -> { spec; trigger } :: acc)
        |> Result.map_error (Fmt.str "rule %s: %s" spec.Deductive_event.name))
      (Ok []) ordered
  in
  let derivers = Array.of_list (List.rev derivers) in
  let compiled = Array.of_list (List.map fst built) in
  let clocked =
    List.filter
      (fun k -> (not index) || Incremental.observes_time (rule_engine compiled derivers k))
      (List.init (Array.length compiled + Array.length derivers) Fun.id)
  in
  let proc_conds =
    List.concat_map
      (fun (_, (p : Action.proc)) -> Action.conditions p.Action.body)
      (Ruleset.all_procedures root)
  in
  let deps_of crs =
    remote_of (List.concat_map rule_conditions crs @ proc_conds)
  in
  let all_crs = Array.to_list compiled in
  let remote_deps = deps_of all_crs in
  (* an event a derivation timer derives on advance can reach any rule *)
  let clocked_remote_deps =
    if Array.exists (fun d -> Event_query.has_timers d.spec.Deductive_event.trigger) derivers
    then remote_deps
    else
      match List.filter (fun cr -> Event_query.has_timers cr.rule.Eca.event) all_crs with
      | [] -> []  (* no timer can fire, so advancing needs no prefetch *)
      | timed -> deps_of timed
  in
  (* Discrimination: every atomic sub-query of every rule, keyed by its
     event label and what its payload pattern requires, so an event
     touches only the rules that can react to it instead of the whole
     rule base (Thesis 7: never re-scan).  Feeding a refuted (rule,
     event) pair would be a no-op — the atom's plan cannot match.  A
     terminal node's atoms are registered once, for all the rules it
     feeds (Rete's terminal-node activation).  A derivation rule keeps
     its own atoms, registered after the ECA rules': derivation programs
     are small, so terminal activation would buy them nothing. *)
  let sub, terminals =
    if index then begin
      let s = Sub_index.create ~metrics:m () in
      let terminals = ref Int_map.empty in
      let register q key =
        List.iter
          (fun (a : Event_query.atomic) ->
            ignore (Sub_index.register s ?label:a.Event_query.label a.Event_query.pattern key))
          (Event_query.atoms q)
      in
      List.iteri
        (fun i (cr, terminal) ->
          match terminal with
          | None -> register cr.rule.Eca.event i
          | Some node -> (
              match Int_map.find_opt (Beta.id node) !terminals with
              | Some tm -> tm.subscribers <- i :: tm.subscribers
              | None ->
                  terminals := Int_map.add (Beta.id node) { node; subscribers = [ i ] } !terminals;
                  (* the node's first rule stands for it: its atoms are
                     the node's up to variable names, which the index
                     ignores *)
                  register cr.rule.Eca.event (-1 - Beta.id node)))
        built;
      Array.iteri
        (fun j d -> register d.spec.Deductive_event.trigger (Array.length compiled + j))
        derivers;
      Int_map.iter (fun _ tm -> tm.subscribers <- List.rev tm.subscribers) !terminals;
      (Some s, !terminals)
    end
    else (None, Int_map.empty)
  in
  let t =
    {
      root;
      compiled;
      clocked;
      derivers;
      sub;
      terminals;
      beta;
      horizon;
      index;
      share;
      fresh_event_id;
      remote_deps;
      clocked_remote_deps;
      m;
      c =
        {
          c_lookups = Obs.Metrics.counter m "engine.dispatch_lookups";
          c_fed = Obs.Metrics.counter m "engine.rules_fed";
          c_skipped = Obs.Metrics.counter m "engine.rules_skipped";
          c_advanced = Obs.Metrics.counter m "engine.rules_advanced";
          c_seen = Obs.Metrics.counter m "engine.events_seen";
          c_conditions = Obs.Metrics.counter m "engine.condition_evaluations";
        };
    }
  in
  (* aggregates the inner incremental engines already own: pull cells,
     sampled at snapshot time *)
  Obs.Metrics.gauge_fn m "engine.live_instances" (fun () -> float_of_int (live_instances t));
  Obs.Metrics.counter_fn m "engine.join.probes" (fun () ->
      (join_stats t).Incremental.probes);
  Obs.Metrics.counter_fn m "engine.join.pairs_probed" (fun () ->
      (join_stats t).Incremental.pairs_probed);
  Obs.Metrics.counter_fn m "engine.join.pairs_skipped" (fun () ->
      (join_stats t).Incremental.pairs_skipped);
  Obs.Metrics.counter_fn m "engine.join.instances_pruned" (fun () ->
      (join_stats t).Incremental.instances_pruned);
  Ok t

let create_exn ?horizon ?index ?share ?fresh_event_id root =
  match create ?horizon ?index ?share ?fresh_event_id root with
  | Ok t -> t
  | Error e -> invalid_arg ("Engine.create: " ^ e)

type outcome = {
  firings : Eca.firing list;
  derived_events : Event.t list;
  errors : (string * string) list;
}

let empty_outcome = { firings = []; derived_events = []; errors = [] }

(* Outcomes are accumulated with [firings] and [errors] reversed (cons /
   rev_append instead of the quadratic [acc @ new]); [finish] restores
   processing order once per entry point. *)
let finish acc = { acc with firings = List.rev acc.firings; errors = List.rev acc.errors }

let fire_detections t ~env ~ops cr detections acc =
  List.fold_left
    (fun acc detection ->
      let span =
        if Obs.enabled () then
          Obs.Trace.begin_span ~cat:"rule"
            ~args:[ ("rule", cr.qualified) ]
            ~name:"firing" ~vt:(ops.Action.now ()) ()
        else 0
      in
      let scoped_env = Deductive.extend_env env (Ruleset.views_in_scope cr.scope) in
      let procs name = Ruleset.lookup_procedure cr.scope name in
      let results =
        Eca.fire ~evaluations:t.c.c_conditions ~env:scoped_env ~ops ~procs cr.rule detection
      in
      let acc =
        List.fold_left
          (fun acc result ->
            match result with
            | Ok firings -> { acc with firings = List.rev_append firings acc.firings }
            | Error e -> { acc with errors = (cr.qualified, e) :: acc.errors })
          acc results
      in
      Obs.Trace.end_span span ~vt:(ops.Action.now ());
      acc)
    acc detections

(* Dispatch keys an event can reach, ascending: terminal nodes first
   (negative keys), then the rules with an atom whose label and payload
   fingerprint the event satisfies. *)
let candidates sub ev =
  List.sort_uniq Int.compare
    (List.map snd (Sub_index.lookup sub ~label:ev.Event.label ev.Event.payload))

(* Each terminal node a batch reaches is stepped on every event of the
   batch, in batch order — the steps a subscriber's feed would make, so
   the node observes the same inputs whether or not its rules are fed;
   its subscribers join [rules] only if it detected something, since
   otherwise their feeds would be no-ops. *)
let rec activate t beta batch = function
  | k :: rest when k < 0 ->
      let tm = Int_map.find (-1 - k) t.terminals in
      let detected =
        List.fold_left (fun acc ev -> Beta.detects beta tm.node ev || acc) false batch
      in
      let visit = activate t beta batch rest in
      if detected then merge_sorted visit tm.subscribers else visit
  | rules -> rules

let detect ~ops cr ev =
  let detections = Incremental.feed cr.engine ev in
  if Obs.enabled () && detections <> [] then
    ignore
      (Obs.Trace.instant ~cat:"rule"
         ~args:[ ("rule", cr.qualified); ("count", string_of_int (List.length detections)) ]
         ~name:"detect" ~vt:(ops.Action.now ()) ());
  detections

(* One batch: the [inputs] (the handled event, or none on a clock
   advance to [time]) and what the derivation rules derive from them.
   Each event is looked up in the sub-index once, and its keys serve
   the derivation strata and the ECA rules alike.  A rule is reached by
   the batch so far when its key is among [keys]: the clocked rules',
   the candidates of the batch's events, and (for an ECA rule) the
   subscribers of every terminal node that detected something.  Every
   other rule would see only events its atoms cannot match or its node
   turned into nothing, and its engine does not observe time, so
   feeding it would change nothing.  The ECA rules are visited in
   ascending order (= declaration order, so firings come out exactly as
   the full scan produced them), each fed the whole batch.  On an
   advance a clocked rule's clock moves too: a derivation rule's before
   it is fed, an ECA rule's after, its timer detections firing first.
   The ECA rules count in [engine.dispatch_lookups], [rules_fed] and
   [rules_skipped] on event batches only; the derivation rules on both. *)
let run t ~env ~ops ?time inputs =
  (* one memo generation per batch for both shared networks: the first
     subscriber an event reaches evaluates it, the rest hit the memo *)
  Option.iter Beta.begin_batch t.beta;
  let n = Array.length t.compiled in
  let lookup keys evs =
    match t.sub with
    | Some sub -> List.fold_left (fun acc ev -> merge_sorted acc (candidates sub ev)) keys evs
    | None -> keys
  in
  let tick engine time =
    Obs.Metrics.Counter.incr t.c.c_advanced;
    Incremental.advance_to engine time
  in
  (* each detection of a derivation rule derives an event for the later
     strata and the ECA rules, or a payload error *)
  let rec derive j batch keys acc =
    if j = Array.length t.derivers then (batch, keys, acc)
    else if not (List.mem (n + j) keys) then begin
      Obs.Metrics.Counter.incr t.c.c_skipped;
      derive (j + 1) batch keys acc
    end
    else begin
      let d = t.derivers.(j) in
      Obs.Metrics.Counter.incr ~by:(List.length batch) t.c.c_fed;
      let timed =
        match time with Some time when List.mem (n + j) t.clocked -> tick d.trigger time | _ -> []
      in
      let { Deductive_event.name; derived_label; payload; _ } = d.spec in
      let derived, errors =
        List.partition_map
          (fun (i : Instance.t) ->
            match Construct.instantiate payload i.Instance.subst [ i.Instance.subst ] with
            | Error e -> Either.Right (name, e)
            | Ok payload ->
                let id = Option.map (fun f -> f ()) t.fresh_event_id in
                Either.Left
                  (Event.make ?id ~sender:("derived:" ^ name) ~occurred_at:i.Instance.t_end
                     ~label:derived_label payload))
          (timed @ List.concat_map (Incremental.feed d.trigger) batch)
      in
      derive (j + 1) (batch @ derived) (lookup keys derived)
        {
          acc with
          derived_events = acc.derived_events @ derived;
          errors = List.rev_append errors acc.errors;
        }
    end
  in
  let batch, keys, acc = derive 0 inputs (lookup t.clocked inputs) empty_outcome in
  (* [clocked] walks [t.clocked] alongside the ECA rules visited, which
     include every clocked one *)
  let rec dispatch clocked fed acc = function
    | i :: rest when i < n ->
        let cr = t.compiled.(i) in
        let detections = List.fold_left (fun acc ev -> acc @ detect ~ops cr ev) [] batch in
        let timed, clocked =
          match clocked with
          | k :: ks when k = i -> (Option.fold ~none:[] ~some:(tick cr.engine) time, ks)
          | _ -> ([], clocked)
        in
        dispatch clocked (fed + 1) (fire_detections t ~env ~ops cr (timed @ detections) acc) rest
    | _ -> (fed, acc)
  in
  let fed, acc =
    dispatch t.clocked 0 acc
      (match t.beta with Some beta -> activate t beta batch keys | None -> keys)
  in
  if Option.is_none time then begin
    Obs.Metrics.Counter.incr t.c.c_lookups;
    Obs.Metrics.Counter.incr ~by:(fed * List.length batch) t.c.c_fed;
    Obs.Metrics.Counter.incr ~by:(n - fed) t.c.c_skipped
  end;
  finish acc

let handle_event t ~env ~ops event =
  Obs.Metrics.Counter.incr t.c.c_seen;
  if Event.expired event (ops.Action.now ()) then empty_outcome
  else begin
    let span =
      if Obs.enabled () then
        Obs.Trace.begin_span ~cat:"engine"
          ~args:[ ("label", event.Event.label) ]
          ~name:"event" ~vt:(ops.Action.now ()) ()
      else 0
    in
    let out = run t ~env ~ops [ event ] in
    (if span <> 0 then
       Obs.Trace.end_span span ~vt:(ops.Action.now ())
         ~args:
           [
             ("firings", string_of_int (List.length out.firings));
             ("derived", string_of_int (List.length out.derived_events));
           ]);
    out
  end

let advance t ~env ~ops time = run t ~env ~ops ~time []

let load_ruleset t incoming =
  let merged = { t.root with Ruleset.children = t.root.Ruleset.children @ [ incoming ] } in
  create ?horizon:t.horizon ~index:t.index ~share:t.share ?fresh_event_id:t.fresh_event_id
    merged

let ruleset t = t.root
let rule_names t = Array.to_list (Array.map (fun cr -> cr.qualified) t.compiled)
let metrics t = t.m
let remote_resources t = t.remote_deps
let clocked_remote_resources t = t.clocked_remote_deps

let min_opt a b =
  match (a, b) with None, x | x, None -> x | Some x, Some y -> Some (min x y)

(* only the clocked rules can hold a deadline: the other rules have no
   timers *)
let next_deadline t =
  List.fold_left
    (fun acc k -> min_opt acc (Incremental.next_deadline (rule_engine t.compiled t.derivers k)))
    None t.clocked
