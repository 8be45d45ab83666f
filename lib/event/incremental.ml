open Xchange_query

type selection = Each | First | Last

type input = Ev of Event.t | Now of Clock.time

module KTbl = Hashtbl.Make (struct
  type t = Subst.t

  let equal = Subst.equal
  let hash = Subst.hash
end)

type atom_matcher = Event.t -> Subst.set

type subtree_matcher = Event.t -> Instance.t list

(* Real payload-matcher executions (same pattern as Plan's work
   counters): the unshared path bumps it on every gated match, the
   shared alpha network only on memo misses — so the counter measures
   atomic evaluation work comparably across both modes.  Domain-local
   so sharded schedulers never contend; readers sum over domains. *)
let matcher_runs = Xchange_core.Domain_local.Counter.create ()

let note_atomic_run () = Xchange_core.Domain_local.Counter.incr matcher_runs
let atomic_matcher_runs () = Xchange_core.Domain_local.Counter.total matcher_runs
let reset_atomic_matcher_runs () = Xchange_core.Domain_local.Counter.reset matcher_runs

type node = {
  store : Istore.t;
      (** partial matches, arrival order; hash-partitioned by the join
          key the parent probes with (empty when [index] is off) *)
  bound : Clock.span option;  (** [Some s]: prune when older than [now - s]; [None]: keep *)
  kind : kind;
}

and kind =
  | NAtomic of atom_matcher
      (** envelope gating + payload matching, compiled once at build
          time (a {!Plan} when plan routing is on, the interpreter
          otherwise), so the per-event hot path skips even the global
          plan-cache lookup.  With [~share] the matcher is a shared
          alpha node: one evaluation per distinct atomic pattern per
          occurrence, fanned out to every subscribing rule. *)
  | NAnd of node list
  | NOr of node list
  | NSeq of node list
  | NWithin of node * Clock.span
  | NAbsent of absent_state
  | NTimes of int * node * Clock.span
  | NAgg of acc_state
  | NRises of acc_state
  | NShared of shared_sub
      (** the whole composite subtree is evaluated by a shared beta node
          ({!Xchange_rules.Beta}): one join pipeline per distinct
          (canonicalized) subtree, fanned out to every subscribing rule.
          Per-rule state shrinks to this projection: the parent-facing
          store plus consumption bookkeeping — consuming rules filter
          the shared output against their consumed event ids instead of
          purging the shared stores (equivalent for the timerless,
          accumulator-free subtrees the beta network accepts, because
          their detections are monotone functions of constituent ids). *)

and shared_sub = {
  sub_matcher : subtree_matcher;
  mutable consumed : (int, unit) Hashtbl.t option;
      (** event ids this rule consumed, from its first consumption on;
          shared detections touching any of them are filtered out of
          this rule's view *)
}

and absent_state = {
  a_start : node;
  a_blocker : node;
  a_span : Clock.span;
  mutable pending : (Clock.time * Instance.t) list;  (** (deadline, start instance) *)
}

and acc_state = {
  src : node;
  acc_var : string;
  acc_window : int;  (** values per aggregate; Rises keeps window+1 *)
  acc_op : Construct.agg option;  (** [None] for Rises *)
  acc_ratio : float;  (** Rises only *)
  acc_bind : string;
  src_vars : string list;
  groups : (float * Instance.t) list KTbl.t;
      (** group key -> retained (value, instance) entries, oldest first *)
}

(* ---- compilation ---------------------------------------------------- *)

(* Join keys: each child of an [And]/[Seq] is partitioned by the
   variables it shares with at least one sibling; a [Times] child by all
   its variables (instances of the same child must agree everywhere to
   combine); an [Absent] blocker by the variables it shares with the
   start.  Bucketing on any subset of the shared variables is sound —
   the probe only skips stored instances that bind every key variable to
   something the probing partial match conflicts with, and
   [Instance.combine] would have rejected exactly those — the key choice
   is purely a selectivity decision. *)
let shared_keys qs =
  let per_child = List.map Event_query.vars qs in
  List.mapi
    (fun i vs ->
      let others = List.concat (List.filteri (fun j _ -> j <> i) per_child) in
      List.sort_uniq String.compare (List.filter (fun v -> List.mem v others) vs))
    per_child

let inter_vars q1 q2 =
  let v1 = Event_query.vars q1 in
  List.sort_uniq String.compare (List.filter (fun v -> List.mem v v1) (Event_query.vars q2))

(* [ctx] is the span of the nearest enclosing window operator: children
   joined by And/Seq below it can be pruned once older than it.
   [stored_bound] is how long the parent keeps reading this node's
   stored instances (Some 0 when the parent only consumes fresh ones).
   [key] is the hash-partition key the parent probes this node's store
   with ([] = unpartitioned; always [] when [index] is off, so the
   naive path pays no bucket upkeep).

   Timer caveat: absence detections carry [t_end = deadline] but arrive
   at the first activity after it, so a sibling of a timer-bearing
   subtree may be joined arbitrarily late — such siblings (and the
   stored state joined with late instances generally) must not be
   window-pruned.  [has_timers] disables the window bound in exactly
   those places; an engine [horizon] still caps them (an explicit
   exactness/memory trade-off). *)
(* Envelope gate shared by both matcher paths. *)
let envelope_ok (a : Event_query.atomic) (e : Event.t) =
  (match a.Event_query.label with
  | Some l -> String.equal l e.Event.label
  | None -> true)
  &&
  match a.Event_query.sender with
  | Some s -> String.equal s e.Event.sender
  | None -> true

let rec build ?horizon ?share ?share_sub ~index ~ctx ~stored_bound ~key q : node =
  {
    store = Istore.create ~key:(if index then key else []);
    bound =
      (match (stored_bound, horizon) with
      | Some b, Some h -> Some (min b h)
      | Some b, None -> Some b
      | None, h -> h);
    kind = build_kind ?horizon ?share ?share_sub ~index ~ctx q;
  }

(* A node's operator without its store: the root has none, as nothing
   reads its detections back. *)
and build_kind ?horizon ?share ?share_sub ~index ~ctx (q : Event_query.t) : kind =
  let join_children qs =
    (* a child may be pruned by the window only if no sibling can hand
       it a late (timer-completed) join partner *)
    let keys = shared_keys qs in
    List.mapi
      (fun i q ->
        let sibling_timers =
          List.exists Event_query.has_timers (List.filteri (fun j _ -> j <> i) qs)
        in
        let sb = if sibling_timers then None else ctx in
        build ?horizon ?share ?share_sub ~index ~ctx ~stored_bound:sb
          ~key:(List.nth keys i) q)
      qs
  in
  let child ?(key = []) ~ctx ~stored_bound q =
    build ?horizon ?share ?share_sub ~index ~ctx ~stored_bound ~key q
  in
  (* Composite subtrees first consult the shared beta network; it
     declines (returns [None]) subtrees whose semantics cannot be
     replayed per rule — timers, accumulators, horizon-incompatible
     retention — and those fall through to a private compilation.  The
     hook sees [ctx] because the enclosing window decides the internal
     pruning bounds the shared pipeline must replicate. *)
  let try_share () =
    match (share_sub, q) with
    | None, _ | _, Event_query.Atomic _ -> None
    | Some subscribe, _ ->
        subscribe ~ctx q
        |> Option.map (fun sub_matcher -> NShared { sub_matcher; consumed = None })
  in
  match try_share () with
  | Some kind -> kind
  | None -> (
  let compile_atomic (a : Event_query.atomic) : atom_matcher =
    match share with
    | Some subscribe -> subscribe a
    | None ->
        let payload_matches = Simulate.matcher a.Event_query.pattern in
        fun e ->
          if not (envelope_ok a e) then []
          else begin
            note_atomic_run ();
            payload_matches e.Event.payload
          end
  in
  match q with
  | Event_query.Atomic a -> NAtomic (compile_atomic a)
  | Event_query.And qs -> NAnd (join_children qs)
  | Event_query.Seq qs -> NSeq (join_children qs)
  | Event_query.Or qs -> NOr (List.map (child ~ctx ~stored_bound:(Some 0)) qs)
  | Event_query.Within (q, span) ->
      let inner_ctx = if Event_query.has_timers q then None else Some span in
      NWithin (child ~ctx:inner_ctx ~stored_bound:(Some 0) q, span)
  | Event_query.Absent (q1, q2, span) ->
      (* the span bounds when blockers matter relative to the start's
         END — it does not bound the start's own joins (ctx inherits) *)
      let blocker_bound = if Event_query.has_timers q1 then None else Some span in
      NAbsent
        {
          a_start = child ~ctx ~stored_bound:(Some 0) q1;
          a_blocker = child ~key:(inter_vars q1 q2) ~ctx ~stored_bound:blocker_bound q2;
          a_span = span;
          pending = [];
        }
  | Event_query.Times (n, q, span) ->
      let child_bound = if Event_query.has_timers q then None else Some span in
      let child_ctx = if Event_query.has_timers q then None else Some span in
      NTimes (n, child ~key:(Event_query.vars q) ~ctx:child_ctx ~stored_bound:child_bound q, span)
  | Event_query.Agg spec ->
      NAgg
        {
          src = child ~ctx ~stored_bound:(Some 0) spec.Event_query.over;
          acc_var = spec.Event_query.var;
          acc_window = spec.Event_query.window;
          acc_op = Some spec.Event_query.op;
          acc_ratio = 1.;
          acc_bind = spec.Event_query.bind;
          src_vars = Event_query.vars spec.Event_query.over;
          groups = KTbl.create 16;
        }
  | Event_query.Rises spec ->
      NRises
        {
          src = child ~ctx ~stored_bound:(Some 0) spec.Event_query.r_over;
          acc_var = spec.Event_query.r_var;
          acc_window = spec.Event_query.r_window;
          acc_op = None;
          acc_ratio = spec.Event_query.r_ratio;
          acc_bind = spec.Event_query.r_bind;
          src_vars = Event_query.vars spec.Event_query.r_over;
          groups = KTbl.create 16;
        })

(* ---- joins ---------------------------------------------------------- *)

let prune node now =
  match node.bound with
  | None -> ()
  | Some b -> Istore.prune node.store ~keep_from:(now - b)

(* Tuples with at least one fresh component, each enumerated exactly
   once: the pivot is the first child contributing a fresh instance —
   children before it draw from stored instances only, the pivot from
   fresh only, children after it from both.

   The naive joiner below is the pre-refactor nested loop (kept behind
   [~index:false] as the reference the property suite compares against);
   the only addition is pair accounting so BENCH_event can report probed
   pairs for both paths under the same metric: candidates enumerated at
   every extension step. *)
let join_naive ~ordered pairs =
  let children_old_fresh =
    List.map (fun (c, fresh) -> (Istore.stats c.store, Istore.to_list c.store, fresh)) pairs
  in
  let n = List.length children_old_fresh in
  let pools pivot =
    List.mapi
      (fun i (st, old, fresh) ->
        (st, if i < pivot then old else if i = pivot then fresh else old @ fresh))
      children_old_fresh
  in
  let extend_tuples pools =
    match pools with
    | [] -> []
    | (st0, first) :: rest ->
        let rec extend acc last = function
          | [] -> [ acc ]
          | (st, instances) :: rest' ->
              List.concat_map
                (fun i ->
                  st.Istore.pairs_probed <- st.Istore.pairs_probed + 1;
                  if ordered && not (Instance.strictly_before last i) then []
                  else
                    match Instance.combine [ acc; i ] with
                    | Some c -> extend c i rest'
                    | None -> [])
                instances
        in
        List.concat_map
          (fun i ->
            st0.Istore.pairs_probed <- st0.Istore.pairs_probed + 1;
            extend i i rest)
          first
  in
  let rec per_pivot pivot acc =
    if pivot >= n then acc else per_pivot (pivot + 1) (extend_tuples (pools pivot) @ acc)
  in
  Instance.dedup (per_pivot 0 [])

(* Indexed join: grow each tuple outward from the pivot's fresh
   instance, probing every other child's store with the accumulated
   bindings — only the hash partition a candidate could merge with is
   enumerated, and for ordered (Seq) joins the probe binary-searches the
   time-compatible run instead of scanning out-of-order pairs.  The
   pools per child are exactly the naive joiner's (old-only left of the
   pivot, fresh-only at it, both right of it), so the result set is
   identical; enumeration order differs but both paths dedup. *)
let join_indexed ~ordered pairs =
  let arr = Array.of_list pairs in
  let n = Array.length arr in
  let results = ref [] in
  let rec go_left acc ~first j =
    if j < 0 then results := acc :: !results
    else
      let c, _ = arr.(j) in
      let before = if ordered then Some first else None in
      List.iter
        (fun cand ->
          match Instance.combine [ acc; cand ] with
          | Some acc' -> go_left acc' ~first:cand (j - 1)
          | None -> ())
        (Istore.probe ?before c.store acc.Instance.subst)
  in
  let rec go_right acc ~pivot_first ~last j ~pivot =
    if j >= n then go_left acc ~first:pivot_first (pivot - 1)
    else
      let c, fresh = arr.(j) in
      let extend cand =
        match Instance.combine [ acc; cand ] with
        | Some acc' -> go_right acc' ~pivot_first ~last:cand (j + 1) ~pivot
        | None -> ()
      in
      let after = if ordered then Some last else None in
      List.iter extend (Istore.probe ?after c.store acc.Instance.subst);
      List.iter
        (fun f -> if (not ordered) || Instance.strictly_before last f then extend f)
        fresh
  in
  Array.iteri
    (fun pivot (_, fresh) ->
      List.iter (fun f -> go_right f ~pivot_first:f ~last:f (pivot + 1) ~pivot) fresh)
    arr;
  Instance.dedup !results

let join_fresh ~index ~ordered pairs =
  if index then join_indexed ~ordered pairs else join_naive ~ordered pairs

(* Size-n subsets combining within [span] and containing at least one
   fresh instance: the pivot is the first fresh member (by position);
   the rest are drawn from the later fresh instances, then the stored
   pool — walked by index over one shared pool per mode instead of
   rebuilding [rest @ old] per pivot. *)
let times_fresh ~index n span child fresh =
  if n = 0 then []
  else begin
    let fresh_arr = Array.of_list fresh in
    let nf = Array.length fresh_arr in
    let naive_pool = if index || nf = 0 then [] else Istore.to_list child.store in
    let results = ref [] in
    let rec choose_old acc count pool =
      if count = 0 then results := acc :: !results
      else
        match pool with
        | [] -> ()
        | i :: rest ->
            (match Instance.combine [ acc; i ] with
            | Some c when Instance.span c <= span -> choose_old c (count - 1) rest
            | Some _ | None -> ());
            choose_old acc count rest
    in
    let rec choose_fresh acc count k ~old =
      if count = 0 then results := acc :: !results
      else if k >= nf then choose_old acc count old
      else begin
        (match Instance.combine [ acc; fresh_arr.(k) ] with
        | Some c when Instance.span c <= span -> choose_fresh c (count - 1) (k + 1) ~old
        | Some _ | None -> ());
        choose_fresh acc count (k + 1) ~old
      end
    in
    for j = 0 to nf - 1 do
      let f = fresh_arr.(j) in
      let old =
        if index then Istore.probe child.store f.Instance.subst
        else begin
          Istore.note_scan child.store;
          naive_pool
        end
      in
      choose_fresh f (n - 1) (j + 1) ~old
    done;
    Instance.dedup !results
  end

(* ---- accumulation --------------------------------------------------- *)

let numeric_of subst var = Option.bind (Subst.find var subst) Xchange_data.Term.as_num

(* every reduction is guarded against an empty value list: an average
   (or min/max) over zero values must yield no binding, never a
   nan/infinity that silently poisons downstream substitutions *)
let avg_opt = function
  | [] -> None
  | vals -> Some (List.fold_left ( +. ) 0. vals /. float_of_int (List.length vals))

let reduce op vals =
  match vals with
  | [] -> None
  | _ -> (
      match op with
      | Construct.Count -> Some (float_of_int (List.length vals))
      | Construct.Sum -> Some (List.fold_left ( +. ) 0. vals)
      | Construct.Avg -> avg_opt vals
      | Construct.Min -> Some (List.fold_left Float.min Float.infinity vals)
      | Construct.Max -> Some (List.fold_left Float.max Float.neg_infinity vals))

let group_key st subst =
  Subst.restrict (List.filter (fun v -> not (String.equal v st.acc_var)) st.src_vars) subst

let rec drop_first k l = if k <= 0 then l else match l with [] -> [] | _ :: tl -> drop_first (k - 1) tl

let last_n n l =
  let len = List.length l in
  if len <= n then l else drop_first (len - n) l

let acc_feed st fresh =
  (* process fresh source instances in canonical order (matches the
     Backward arrival sort for time-ordered streams) *)
  let fresh = List.sort Instance.compare fresh in
  let keep = match st.acc_op with Some _ -> st.acc_window | None -> st.acc_window + 1 in
  List.concat_map
    (fun i ->
      match numeric_of i.Instance.subst st.acc_var with
      | None -> []
      | Some v ->
          let key = group_key st i.Instance.subst in
          let entries =
            match KTbl.find_opt st.groups key with Some es -> es | None -> []
          in
          let entries = last_n (keep - 1) entries @ [ (v, i) ] in
          KTbl.replace st.groups key entries;
          let vals = List.map fst entries in
          let emit value slice =
            let latest = snd (List.nth slice (List.length slice - 1)) in
            match Subst.add st.acc_bind (Xchange_data.Term.num value) latest.Instance.subst with
            | None -> []
            | Some subst ->
                let first = snd (List.hd slice) in
                [
                  Instance.timer subst ~t_start:first.Instance.t_start
                    ~t_end:latest.Instance.t_end
                    ~ids:
                      (List.sort_uniq Int.compare
                         (List.concat_map (fun (_, i) -> i.Instance.ids) slice));
                ]
          in
          (match st.acc_op with
          | Some op ->
              if List.length entries < st.acc_window then []
              else
                let slice = last_n st.acc_window entries in
                let vals = last_n st.acc_window vals in
                (match reduce op vals with
                | None -> []
                | Some value -> emit value slice)
          | None ->
              let w = st.acc_window in
              if List.length entries < w + 1 then []
              else
                let slice = last_n (w + 1) entries in
                let vals = last_n (w + 1) vals in
                (match (avg_opt (List.filteri (fun j _ -> j < w) vals),
                        avg_opt (List.filteri (fun j _ -> j >= 1) vals))
                 with
                | Some old_avg, Some new_avg when new_avg >= st.acc_ratio *. old_avg ->
                    emit new_avg slice
                | _ -> [])))
    fresh

(* ---- stepping ------------------------------------------------------- *)

(* [fresh_of] computes a node's fresh instances WITHOUT pruning or
   storing; [step] prunes first and appends the fresh instances after.
   Join parents use [fresh_of] on their children so they can probe the
   child stores as the "old" pools while the children's fresh instances
   are still separate lists (the pivot bookkeeping above) — and they
   prune each child only AFTER the join, so the probed pool is exactly
   the pool the pre-refactor engine captured before its child step
   pruned.  That one-step staleness is load-bearing: an event fed after
   the clock has already advanced past its time (repeated timestamps,
   an [advance_to] between feeds) must still find the partners that
   were live at ITS time, not at the clock's. *)
let rec fresh_of ~index kind input ~now : Instance.t list =
  match kind with
  | NAtomic matcher -> (
      match input with
      | Now _ -> []
      | Ev e ->
          matcher e
          |> List.map (fun subst -> Instance.atomic subst (Event.time e) e.Event.id))
  | NShared st -> (
      match input with
      | Now _ ->
          (* the beta network only shares timerless subtrees, which
             never produce on a bare clock advance *)
          []
      | Ev e ->
          let out = st.sub_matcher e in
          match st.consumed with
          | None -> out
          | Some consumed ->
              List.filter (fun i -> not (List.exists (Hashtbl.mem consumed) i.Instance.ids)) out)
  | NAnd children -> join_children ~index ~ordered:false children input ~now
  | NSeq children -> join_children ~index ~ordered:true children input ~now
  | NOr children ->
      Instance.dedup (List.concat_map (fun c -> step ~index c input ~now) children)
  | NWithin (child, span) ->
      List.filter (fun i -> Instance.span i <= span) (step ~index child input ~now)
  | NAbsent st ->
      let fresh_starts = step ~index st.a_start input ~now in
      let fresh_blockers = fresh_of ~index st.a_blocker.kind input ~now in
      let blocks i1 deadline i2 =
        Instance.strictly_before i1 i2
        && i2.Instance.t_start <= deadline
        && Option.is_some (Subst.merge i1.Instance.subst i2.Instance.subst)
      in
      (* fresh blockers cancel pending starts they join with *)
      st.pending <-
        List.filter
          (fun (deadline, i1) ->
            not (List.exists (blocks i1 deadline) fresh_blockers))
          st.pending;
      (* fresh starts become pending unless an already-seen blocker
         (stored or same-feed) blocks them *)
      List.iter
        (fun i1 ->
          let deadline = Clock.add i1.Instance.t_end st.a_span in
          let stored_blockers =
            if index then Istore.probe ~after:i1 st.a_blocker.store i1.Instance.subst
            else Istore.scan st.a_blocker.store
          in
          let blocked =
            List.exists (blocks i1 deadline) stored_blockers
            || List.exists (blocks i1 deadline) fresh_blockers
          in
          if not blocked then st.pending <- (deadline, i1) :: st.pending)
        fresh_starts;
      prune st.a_blocker now;
      Istore.add_list st.a_blocker.store fresh_blockers;
      (* resolve deadlines: strictly past on event feeds (an event at
         exactly the deadline could still block), inclusive on explicit
         time advances *)
      let ripe deadline =
        match input with Ev e -> deadline < Event.time e | Now t -> deadline <= t
      in
      let done_, waiting = List.partition (fun (d, _) -> ripe d) st.pending in
      st.pending <- waiting;
      List.map
        (fun (deadline, i1) ->
          Instance.timer i1.Instance.subst ~t_start:i1.Instance.t_start ~t_end:deadline
            ~ids:i1.Instance.ids)
        done_
      |> Instance.dedup
  | NTimes (n, child, span) ->
      let fresh = fresh_of ~index child.kind input ~now in
      let out = times_fresh ~index n span child fresh in
      prune child now;
      Istore.add_list child.store fresh;
      out
  | NAgg st | NRises st ->
      let fresh = step ~index st.src input ~now in
      Instance.dedup (acc_feed st fresh)

and join_children ~index ~ordered children input ~now =
  let pairs = List.map (fun c -> (c, fresh_of ~index c.kind input ~now)) children in
  let out = join_fresh ~index ~ordered pairs in
  List.iter
    (fun (c, fr) ->
      prune c now;
      Istore.add_list c.store fr)
    pairs;
  out

and step ~index node input ~now =
  prune node now;
  let fresh = fresh_of ~index node.kind input ~now in
  Istore.add_list node.store fresh;
  fresh

(* ---- time sensitivity ----------------------------------------------- *)

(* Whether an input that no atom can match — a bare clock advance, or an
   event of a label the query never names — can still change later
   answers.  Mirrors [build]'s retention bounds.  Such an input resolves
   absence deadlines and prunes stored join state, nothing else.
   Pruning is harmless when a span check later rejects every tuple the
   pruned instance could still have joined: with inputs in time order,
   an instance pruned at [now] to window [w] only combines into tuples
   spanning more than [w].  That check is the enclosing [Within], or
   [Times]' own span when it combines at least two instances, and only
   if no accumulator absorbs the over-long tuple first.  Pruning to an
   engine horizon narrower than the window (or the only bound) is
   semantics-bearing. *)
let time_sensitive ?horizon q =
  let narrower span = match horizon with Some h -> h < span | None -> false in
  (* [ctx]: the window joins below are pruned to; [guarded]: that
     window's span check sees every tuple built from them *)
  let rec go ~ctx ~guarded (q : Event_query.t) =
    match q with
    | Event_query.Atomic _ -> false
    | Event_query.Absent _ -> true
    | Event_query.And qs | Event_query.Seq qs ->
        (match ctx with None -> Option.is_some horizon | Some w -> narrower w || not guarded)
        || List.exists (go ~ctx ~guarded) qs
    | Event_query.Or qs -> List.exists (go ~ctx ~guarded) qs
    | Event_query.Within (q, w) -> go ~ctx:(Some w) ~guarded:true q
    | Event_query.Times (n, q, s) -> narrower s || go ~ctx:(Some s) ~guarded:(n >= 2) q
    | Event_query.Agg { Event_query.over = q; _ } | Event_query.Rises { Event_query.r_over = q; _ }
      ->
        go ~ctx ~guarded:false q
  in
  go ~ctx:None ~guarded:true q

(* ---- engine --------------------------------------------------------- *)

type t = {
  root : kind;
  consume : bool;
  selection : selection;
  index : bool;
  observes_time : bool;
  mutable clock : Clock.time;
}

let create ?(consume = false) ?(selection = Each) ?horizon ?(index = true) ?share
    ?share_sub q =
  match Event_query.validate q with
  | Error e -> Error e
  | Ok () ->
      Ok
        {
          root = build_kind ?horizon ?share ?share_sub ~index ~ctx:None q;
          consume;
          selection;
          index;
          observes_time = time_sensitive ?horizon q;
          clock = Clock.origin;
        }

let create_exn ?consume ?selection ?horizon ?index ?share ?share_sub q =
  match create ?consume ?selection ?horizon ?index ?share ?share_sub q with
  | Ok t -> t
  | Error e -> invalid_arg ("Incremental.create: " ^ e)

(* The engine a shared beta node runs internally: compiled below the
   enclosing-window context [ctx] of the original occurrence so the
   internal pruning bounds match the private compilation it replaces.
   No [share_sub]: nesting a shared node inside the pipeline that backs
   it would recurse through the beta network forever — the pipeline
   shares atoms (via [share]) and nothing else.  The subtree comes from
   an already-validated rule query, so validation is skipped. *)
let create_sub ?horizon ?(index = true) ?share ~ctx q =
  {
    root = build_kind ?horizon ?share ~index ~ctx q;
    consume = false;
    selection = Each;
    index;
    observes_time = time_sensitive ?horizon q;
    clock = Clock.origin;
  }

let rec purge_ids kind ids =
  let untouched i = not (List.exists (fun id -> List.mem id ids) i.Instance.ids) in
  let purge node =
    Istore.filter_inplace untouched node.store;
    purge_ids node.kind ids
  in
  match kind with
  | NAtomic _ -> ()
  | NShared st ->
      (* never purge the shared pipeline (other subscribers may not
         consume); remember the ids and filter this rule's view *)
      let consumed =
        match st.consumed with
        | Some c -> c
        | None ->
            let c = Hashtbl.create 8 in
            st.consumed <- Some c;
            c
      in
      List.iter (fun id -> Hashtbl.replace consumed id ()) ids
  | NAnd cs | NOr cs | NSeq cs -> List.iter purge cs
  | NWithin (c, _) | NTimes (_, c, _) -> purge c
  | NAbsent st ->
      st.pending <- List.filter (fun (_, i) -> untouched i) st.pending;
      purge st.a_start;
      purge st.a_blocker
  | NAgg st | NRises st ->
      KTbl.filter_map_inplace
        (fun _ entries ->
          match List.filter (fun (_, i) -> untouched i) entries with
          | [] -> None
          | kept -> Some kept)
        st.groups;
      purge st.src

let select_and_consume t detections =
  let picked =
    match (t.selection, detections) with
    | _, [] -> []
    | Each, ds -> ds
    | First, ds ->
        [ List.fold_left (fun best d -> if Instance.compare d best < 0 then d else best) (List.hd ds) ds ]
    | Last, ds ->
        [ List.fold_left (fun best d -> if Instance.compare d best > 0 then d else best) (List.hd ds) ds ]
  in
  if not t.consume then picked
  else
    (* consume left to right; drop detections sharing events with an
       already-consumed one *)
    List.fold_left
      (fun kept d ->
        let clashes = List.exists (fun k -> not (Instance.disjoint_ids k d)) kept in
        if clashes then kept
        else begin
          purge_ids t.root d.Instance.ids;
          d :: kept
        end)
      [] picked
    |> List.rev

(* The root is nobody's child, so it has no store: [fresh_of], not
   [step]. *)
let feed t e =
  if Event.time e > t.clock then t.clock <- Event.time e;
  let detections = fresh_of ~index:t.index t.root (Ev e) ~now:t.clock in
  select_and_consume t detections

let advance_to t time =
  if time > t.clock then t.clock <- time;
  let detections = fresh_of ~index:t.index t.root (Now time) ~now:t.clock in
  select_and_consume t detections

let observes_time t = t.observes_time

let rec count_kind = function
  | NAtomic _ | NShared _ -> 0 (* the shared pipeline's state is Beta's to report *)
  | NAnd cs | NOr cs | NSeq cs -> List.fold_left (fun acc c -> acc + count_node c) 0 cs
  | NWithin (c, _) | NTimes (_, c, _) -> count_node c
  | NAbsent st -> List.length st.pending + count_node st.a_start + count_node st.a_blocker
  | NAgg st | NRises st ->
      KTbl.fold (fun _ entries acc -> acc + List.length entries) st.groups 0 + count_node st.src

and count_node node = Istore.length node.store + count_kind node.kind

let live_instances t = count_kind t.root

(* ---- join observability --------------------------------------------- *)

type join_stats = {
  probes : int;
  pairs_probed : int;
  pairs_skipped : int;
  instances_pruned : int;
  buckets : int;
  keyed_nodes : int;
}

let zero_join_stats =
  { probes = 0; pairs_probed = 0; pairs_skipped = 0; instances_pruned = 0; buckets = 0; keyed_nodes = 0 }

let add_join_stats acc store =
  let st = Istore.stats store in
  {
    probes = acc.probes + st.Istore.probes;
    pairs_probed = acc.pairs_probed + st.Istore.pairs_probed;
    pairs_skipped = acc.pairs_skipped + st.Istore.pairs_skipped;
    instances_pruned = acc.instances_pruned + st.Istore.pruned;
    buckets = acc.buckets + Istore.buckets store;
    keyed_nodes = (acc.keyed_nodes + if Istore.key store = [] then 0 else 1);
  }

let rec kind_join_stats acc = function
  | NAtomic _ | NShared _ -> acc
  | NAnd cs | NOr cs | NSeq cs -> List.fold_left node_join_stats acc cs
  | NWithin (c, _) | NTimes (_, c, _) -> node_join_stats acc c
  | NAbsent st -> node_join_stats (node_join_stats acc st.a_start) st.a_blocker
  | NAgg st | NRises st -> node_join_stats acc st.src

and node_join_stats acc node = kind_join_stats (add_join_stats acc node.store) node.kind

let join_stats t = kind_join_stats zero_join_stats t.root

let sum_join_stats l =
  List.fold_left
    (fun a b ->
      {
        probes = a.probes + b.probes;
        pairs_probed = a.pairs_probed + b.pairs_probed;
        pairs_skipped = a.pairs_skipped + b.pairs_skipped;
        instances_pruned = a.instances_pruned + b.instances_pruned;
        buckets = a.buckets + b.buckets;
        keyed_nodes = a.keyed_nodes + b.keyed_nodes;
      })
    zero_join_stats l

let min_opt a b =
  match (a, b) with None, x | x, None -> x | Some x, Some y -> Some (min x y)

let rec deadline = function
  | NAtomic _ | NShared _ -> None (* shared subtrees are timerless by construction *)
  | NAnd cs | NOr cs | NSeq cs ->
      List.fold_left (fun acc c -> min_opt acc (deadline c.kind)) None cs
  | NWithin (c, _) | NTimes (_, c, _) -> deadline c.kind
  | NAbsent st ->
      let own = List.fold_left (fun acc (d, _) -> min_opt acc (Some d)) None st.pending in
      min_opt own (min_opt (deadline st.a_start.kind) (deadline st.a_blocker.kind))
  | NAgg st | NRises st -> deadline st.src.kind

let next_deadline t = deadline t.root
