open Xchange_query
open Xchange_event
open Xchange_obs

type compiled = {
  qualified : string;
  rule : Eca.t;
  scope : Ruleset.scope;
  engine : Incremental.t;
}

type cells = {
  c_lookups : Obs.Metrics.Counter.t;
  c_fed : Obs.Metrics.Counter.t;
  c_skipped : Obs.Metrics.Counter.t;
  c_advanced : Obs.Metrics.Counter.t;
  c_seen : Obs.Metrics.Counter.t;
  c_conditions : Obs.Metrics.Counter.t;
}

type t = {
  root : Ruleset.t;
  compiled : compiled array;  (** in declaration order *)
  clocked : int list;
      (** rules that see every input, ascending: those whose engine
          {!Incremental.observes_time} (absence timers, horizon-pruned
          or accumulated join state) *)
  sub : int Sub_index.t option;
      (** every rule atom registered by (label, payload fingerprint);
          [Some] iff [index] — dispatch then refutes rules whose atom
          patterns cannot match the payload; [None] reaches every rule *)
  beta : Beta.t option;
      (** the shared beta network every rule's composite subtrees (and
          the derivation network's) register in; [None] under
          [~share:false].  The alpha network it shares atoms through
          lives in the rules' matchers. *)
  derivation : Deductive_event.t;
  horizon : Clock.span option;  (** as requested at [create] (kept for {!load_ruleset}) *)
  index : bool;  (** as requested at [create] (kept for {!load_ruleset}) *)
  share : bool;  (** as requested at [create] (kept for {!load_ruleset}) *)
  fresh_event_id : (unit -> int) option;
      (** derived-event id allocator (kept for {!load_ruleset}) *)
  remote_deps : ([ `Doc | `Rdf ] * string) list;
      (** remote URIs any rule/view/procedure condition can touch *)
  clocked_remote_deps : ([ `Doc | `Rdf ] * string) list;
      (** remote URIs reachable from timer-bearing rules only *)
  m : Obs.Metrics.t;
  c : cells;
}

let join_stats t =
  Incremental.sum_join_stats
    (Deductive_event.join_stats t.derivation
    :: (match t.beta with Some b -> Beta.join_stats b | None -> Incremental.zero_join_stats)
    :: Array.to_list (Array.map (fun cr -> Incremental.join_stats cr.engine) t.compiled))

let live_instances t =
  Array.fold_left (fun acc cr -> acc + Incremental.live_instances cr.engine) 0 t.compiled
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
  (* One alpha network per engine: every rule's atomic matchers — and
     the event-derivation network's — register in it, so an occurrence
     is evaluated once per distinct pattern whatever the rule count. *)
  let alpha = if share then Some (Alpha.create ~metrics:m ()) else None in
  let share_hook = Option.map Alpha.subscribe alpha in
  (* One beta network per engine: every rule's composite subtrees — and
     the derivation network's — register in it, so an event is joined
     once per distinct subtree whatever the rule count.  Its pipelines
     share atoms through the same alpha network. *)
  let beta =
    if share then
      Some (Beta.create ~metrics:m ?horizon ~index ?share_atoms:share_hook ())
    else None
  in
  let share_sub_hook = Option.map Beta.subscribe beta in
  let* compiled =
    List.fold_left
      (fun acc (qualified, scope, rule) ->
        let* acc = acc in
        match
          Incremental.create ~consume:rule.Eca.consume ~selection:rule.Eca.selection ?horizon
            ~index ?share:share_hook ?share_sub:share_sub_hook rule.Eca.event
        with
        | Error e -> Error (Fmt.str "rule %s: %s" qualified e)
        | Ok engine -> Ok ({ qualified; rule; scope; engine } :: acc))
      (Ok []) (Ruleset.scoped_rules root)
  in
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
  let* derivation =
    Deductive_event.compile ?horizon ~index ?share:share_hook
      ?share_sub:share_sub_hook ?fresh_id:fresh_event_id
      (Ruleset.all_event_rules root)
  in
  let compiled = Array.of_list (List.rev compiled) in
  let clocked =
    List.filter
      (fun i -> Incremental.observes_time compiled.(i).engine)
      (List.init (Array.length compiled) Fun.id)
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
  let clocked_remote_deps =
    match List.filter (fun cr -> Event_query.has_timers cr.rule.Eca.event) all_crs with
    | [] -> []  (* no timer can fire, so advancing needs no prefetch *)
    | timed -> deps_of timed
  in
  (* Discrimination: every atomic sub-query of every rule, keyed by its
     event label and what its payload pattern requires, so an event
     touches only the rules that can react to it instead of the whole
     rule base (Thesis 7: never re-scan).  Feeding a refuted (rule,
     event) pair would be a no-op — the atom's plan cannot match. *)
  let sub =
    if index then begin
      let s = Sub_index.create ~metrics:m () in
      Array.iteri
        (fun i cr ->
          List.iter
            (fun (a : Event_query.atomic) ->
              ignore (Sub_index.register s ?label:a.Event_query.label a.Event_query.pattern i))
            (Event_query.atoms cr.rule.Eca.event))
        compiled;
      Some s
    end
    else None
  in
  let t =
    {
      root;
      compiled;
      clocked;
      sub;
      beta;
      derivation;
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

(* Rules an event can reach, ascending: those with an atom whose label
   and payload fingerprint the event satisfies. *)
let candidates sub ev =
  List.sort_uniq Int.compare
    (List.map snd (Sub_index.lookup sub ~label:ev.Event.label ev.Event.payload))

(* The rules that see a batch of events, ascending (= declaration order,
   so firings come out exactly as the full scan produced them): the
   clocked rules plus every rule some event of the batch can reach.
   Each of them gets the whole batch, as under the full scan.  Every
   other rule would see only events its atoms cannot match, and its
   engine does not observe time, so feeding it would change nothing.
   Without the sub-index every batch reaches every rule: the full
   scan. *)
let reached t batch =
  match t.sub with
  | Some sub ->
      List.fold_left (fun acc ev -> merge_sorted acc (candidates sub ev)) t.clocked batch
  | None -> List.init (Array.length t.compiled) Fun.id

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
    (* one beta memo generation per batch: the first subscriber an
       event reaches steps the shared pipeline, the rest hit the memo *)
    Option.iter Beta.begin_batch t.beta;
    let derived = Deductive_event.feed t.derivation event in
    let batch = event :: derived in
    let visit = reached t batch in
    Obs.Metrics.Counter.incr t.c.c_lookups;
    Obs.Metrics.Counter.incr ~by:(List.length visit * List.length batch) t.c.c_fed;
    Obs.Metrics.Counter.incr ~by:(Array.length t.compiled - List.length visit) t.c.c_skipped;
    let acc =
      List.fold_left
        (fun acc i ->
          let cr = t.compiled.(i) in
          List.fold_left
            (fun acc ev ->
              let detections = Incremental.feed cr.engine ev in
              if Obs.enabled () && detections <> [] then
                ignore
                  (Obs.Trace.instant ~cat:"rule"
                     ~args:
                       [
                         ("rule", cr.qualified);
                         ("count", string_of_int (List.length detections));
                       ]
                     ~name:"detect" ~vt:(ops.Action.now ()) ());
              fire_detections t ~env ~ops cr detections acc)
            acc batch)
        { empty_outcome with derived_events = derived }
        visit
    in
    let out = finish acc in
    (if span <> 0 then
       Obs.Trace.end_span span ~vt:(ops.Action.now ())
         ~args:
           [
             ("firings", string_of_int (List.length out.firings));
             ("derived", string_of_int (List.length out.derived_events));
           ]);
    out
  end

(* A bare clock advance moves only the clocked rules (every rule on the
   full scan); the events it derives reach their candidates through the
   same path as [handle_event].  A reached rule is fed the derived events before its
   clock moves, and its timer detections fire first. *)
let advance t ~env ~ops time =
  Option.iter Beta.begin_batch t.beta;
  let derived = Deductive_event.advance_to t.derivation time in
  let acc =
    List.fold_left
      (fun acc i ->
        let cr = t.compiled.(i) in
        let fed = List.concat_map (fun ev -> Incremental.feed cr.engine ev) derived in
        let timed =
          if t.index && not (Incremental.observes_time cr.engine) then []
          else begin
            Obs.Metrics.Counter.incr t.c.c_advanced;
            Incremental.advance_to cr.engine time
          end
        in
        fire_detections t ~env ~ops cr (timed @ fed) acc)
      { empty_outcome with derived_events = derived }
      (reached t derived)
  in
  finish acc

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

(* only clocked rules can hold a deadline: the others have no timers *)
let next_deadline t =
  List.fold_left
    (fun acc i -> min_opt acc (Incremental.next_deadline t.compiled.(i).engine))
    None t.clocked
