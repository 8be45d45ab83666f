(* Shared beta network: one join pipeline per distinct composite
   sub-query, fanned out to every subscribing rule.  See beta.mli for
   the contract.  Bucketing, refcounts and shedding live in
   {!Node_bucket} (shared with the alpha network); the invariants kept
   here:

   - nodes are keyed by {!Event_query.composite_digest} of the
     canonicalized (alpha-renamed) subtree plus its enclosing-window
     context; structural equality of (canonical query, context) decides
     within a bucket, so digest collisions cost duplicated pipelines,
     never wrong answers;
   - a node's pipeline is stepped {e exactly once} per event per engine
     batch, whichever subscriber asks first; later subscribers in the
     same batch are served from the generation memo.  [begin_batch]
     opens a new generation — the memo must NOT be a bounded cache
     (re-stepping a stateful pipeline would double-apply the event);
   - subscribers get instances renamed back into their own variable
     names through the canonicalization bijection (identity for rules
     already in canonical form — the common case in generated rulesets
     is skipped without allocation);
   - only subtrees whose shared evaluation is observationally identical
     to the private compilation are accepted: no timers (absence
     deadlines fire on clock advances the shared pipeline never sees),
     no accumulators (their group buffers cannot be consumption-
     filtered by event ids), and — when the engine has a horizon —
     only window-bounded subtrees (horizon pruning of unbounded state
     is semantics-bearing; window-derived pruning is not, because every
     window is also enforced by span checks at detection time). *)

open Xchange_event
open Xchange_obs

type pnode = {
  p_q : Event_query.t;  (* canonical form — the sharing identity *)
  p_ctx : Clock.span option;  (* enclosing-window context, part of the key *)
  p_key : string;  (* digest, = the bucket this node lives in *)
  pipe : Incremental.t;  (* the one pipeline all subscribers share *)
  memo : (int, Instance.t list) Hashtbl.t;
      (* event id -> canonical detections, valid for [gen] only *)
  mutable gen : int;  (* generation the memo belongs to; -1 = never stepped *)
  mutable refs : int;  (* live handles; 0 = released, node is dead *)
}

type handle = pnode

module Net = Node_bucket.Make (struct
  type t = pnode
  type key = Event_query.t * Clock.span option

  let equal (q, ctx) n = n.p_q = q && n.p_ctx = ctx
  let bucket n = n.p_key
  let refs n = n.refs
  let set_refs n r = n.refs <- r
end)

type t = {
  net : Net.t;
  m : Obs.Metrics.t;
  horizon : Clock.span option;
  index : bool;
  share_atoms : (Event_query.atomic -> Incremental.atom_matcher) option;
  mutable generation : int;
  mutable steps : int;
  mutable hits : int;
  mutable fanout : int;
}

let join_stats t =
  Net.fold
    (fun n acc -> Incremental.sum_join_stats [ acc; Incremental.join_stats n.pipe ])
    t.net Incremental.zero_join_stats

let live_instances t =
  Net.fold (fun n acc -> acc + Incremental.live_instances n.pipe) t.net 0

let default_digest (q, ctx) = Event_query.composite_digest ~ctx q

let create ?metrics ?(digest = default_digest) ?horizon ?(index = true) ?share_atoms ()
    =
  let m = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  let t =
    {
      net = Net.create ~name:"Beta" ~digest;
      m;
      horizon;
      index;
      share_atoms;
      generation = 0;
      steps = 0;
      hits = 0;
      fanout = 0;
    }
  in
  Obs.Metrics.gauge_fn m "beta.nodes" (fun () -> float_of_int (Net.distinct t.net));
  Obs.Metrics.gauge_fn m "beta.registrations" (fun () ->
      float_of_int (Net.registrations t.net));
  Obs.Metrics.counter_fn m "beta.steps" (fun () -> t.steps);
  Obs.Metrics.counter_fn m "beta.hits" (fun () -> t.hits);
  Obs.Metrics.counter_fn m "beta.fanout" (fun () -> t.fanout);
  Obs.Metrics.counter_fn m "beta.pairs_probed" (fun () ->
      (join_stats t).Incremental.pairs_probed);
  Obs.Metrics.gauge_fn m "beta.live_instances" (fun () -> float_of_int (live_instances t));
  t

let metrics t = t.m

let begin_batch t = t.generation <- t.generation + 1

(* Shared evaluation must be observationally identical to the private
   compilation it replaces; decline anything where it is not:
   - [Atomic]: the alpha network's job, nothing to join;
   - timers: absence deadlines resolve on per-rule clock advances the
     shared pipeline never observes;
   - accumulators: Agg/Rises group buffers are not reconstructible from
     detection ids, so consumption cannot be replayed as an id filter;
   - horizon without a window bound: pruning unbounded join state at
     the horizon changes answers, so sharing across rules (whose
     private clocks advance at different moments) could skew them;
     window-bounded subtrees are safe because every window is also
     enforced by span checks at detection time — pruning timing only
     affects memory, never answers. *)
let shareable t (q : Event_query.t) =
  match q with
  | Event_query.Atomic _ -> false
  | _ ->
      (not (Event_query.has_timers q))
      && (not (Event_query.has_accumulators q))
      && (match t.horizon with
         | None -> true
         | Some h -> (
             match Event_query.max_window q with Some w -> w <= h | None -> false))

let register t ~ctx q =
  if not (shareable t q) then None
  else
    let cq, _ = Event_query.canonicalize q in
    let node, _fresh =
      Net.register t.net (cq, ctx) ~build:(fun ~digest ->
          {
            p_q = cq;
            p_ctx = ctx;
            p_key = digest;
            pipe =
              Incremental.create_sub ?horizon:t.horizon ~index:t.index
                ?share:t.share_atoms ~ctx cq;
            memo = Hashtbl.create 8;
            gen = -1;
            refs = 0;  (* Net.register sets the first reference *)
          })
    in
    Some node

let release t node = Net.release t.net node

(* Step the shared pipeline once per event per generation; every other
   subscriber is served the memoized canonical detections. *)
let step_memo t node (e : Event.t) =
  if node.gen <> t.generation then begin
    Hashtbl.reset node.memo;
    node.gen <- t.generation
  end;
  match Hashtbl.find_opt node.memo e.Event.id with
  | Some r ->
      t.hits <- t.hits + 1;
      r
  | None ->
      t.steps <- t.steps + 1;
      let r = Incremental.feed node.pipe e in
      Hashtbl.add node.memo e.Event.id r;
      r

let matcher t node ~rename : Incremental.subtree_matcher =
  let identity = List.for_all (fun (c, o) -> String.equal c o) rename in
  let project =
    if identity then fun i -> i
    else fun (i : Instance.t) ->
      let bindings =
        List.map
          (fun (v, tm) ->
            match List.assoc_opt v rename with Some o -> (o, tm) | None -> (v, tm))
          (Xchange_query.Subst.to_list i.Instance.subst)
      in
      match Xchange_query.Subst.of_list bindings with
      | Some subst -> { i with Instance.subst }
      | None ->
          (* the canonicalization mapping is a bijection, so renaming
             cannot merge two bindings into a conflict *)
          assert false
  in
  fun e ->
    let out = step_memo t node e in
    t.fanout <- t.fanout + List.length out;
    if identity then out
    else
      (* [Instance.compare] tie-breaks on the substitution, and every
         node's fresh list is emitted [Instance.dedup]-sorted — so the
         private compilation orders same-span detections by the rule's
         OWN variable names.  The shared pipeline sorted in canonical
         name space; re-sort after renaming or firing order diverges. *)
      List.sort Instance.compare (List.map project out)

let subscribe t ~ctx q =
  if not (shareable t q) then None
  else
    let _, rename = Event_query.canonicalize q in
    register t ~ctx q |> Option.map (fun node -> matcher t node ~rename)
