(* Shared alpha network: one memoizing matcher per distinct atomic
   event query, fanned out to every subscribing rule.  See alpha.mli
   for the contract.  Bucketing, refcounts and shedding live in
   {!Node_bucket} (shared with the beta network); the invariants kept
   here:

   - the memo caches pure (pattern, payload) results keyed by event id,
     so serving from it is indistinguishable from re-evaluating;
   - the memo is a bounded LRU: a burst of fresh event ids past the cap
     evicts only the coldest entries, so the warm ids of an engine
     batch keep hitting (pinned by test_alpha's retention test — the
     old reset-on-cap wipe discarded them all). *)

open Xchange_query
open Xchange_event
open Xchange_obs

(* Within one engine batch an event reaches its subscribers back to
   back, so a handful of entries suffice; the cap only matters when
   event derivation interleaves many fresh ids. *)
let memo_cap = 64

type node = {
  atom : Event_query.atomic;
  key : string;  (* digest, = the bucket this node lives in *)
  payload_matches : Xchange_data.Term.t -> Subst.set;
  memo : (int, Subst.set) Lru.t;  (* event id -> substitutions *)
  mutable refs : int;  (* live handles; 0 = released, node is dead *)
}

type handle = node

module Net = Node_bucket.Make (struct
  type t = node
  type key = Event_query.atomic

  let equal atom n = n.atom = atom
  let bucket n = n.key
  let refs n = n.refs
  let set_refs n r = n.refs <- r
end)

type t = {
  net : Net.t;
  m : Obs.Metrics.t;
  mutable evaluations : int;
  mutable hits : int;
  mutable fanout : int;
}

let enabled () = not Xchange_core.Escape.no_share

let create ?metrics ?(digest = Event_query.atomic_digest) () =
  let m = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  let t =
    { net = Net.create ~name:"Alpha" ~digest; m; evaluations = 0; hits = 0; fanout = 0 }
  in
  Obs.Metrics.gauge_fn m "alpha.nodes" (fun () -> float_of_int (Net.distinct t.net));
  Obs.Metrics.gauge_fn m "alpha.registrations" (fun () ->
      float_of_int (Net.registrations t.net));
  Obs.Metrics.counter_fn m "alpha.evaluations" (fun () -> t.evaluations);
  Obs.Metrics.counter_fn m "alpha.hits" (fun () -> t.hits);
  Obs.Metrics.counter_fn m "alpha.fanout" (fun () -> t.fanout);
  t

let metrics t = t.m

let compile_payload (a : Event_query.atomic) =
  match Simulate.plan a.Event_query.pattern with
  | Some p -> Plan.matches p
  | None -> fun payload -> Simulate.matches a.Event_query.pattern payload

let register t atom =
  fst
    (Net.register t.net atom ~build:(fun ~digest ->
         {
           atom;
           key = digest;
           payload_matches = compile_payload atom;
           memo = Lru.create ~cap:memo_cap;
           refs = 0;  (* Net.register sets the first reference *)
         }))

let release t node = Net.release t.net node

let matcher t node : Incremental.atom_matcher =
 fun e ->
  if not (Incremental.envelope_ok node.atom e) then []
  else begin
    let substs =
      match Lru.find node.memo e.Event.id with
      | Some r ->
          t.hits <- t.hits + 1;
          r
      | None ->
          t.evaluations <- t.evaluations + 1;
          Incremental.note_atomic_run ();
          let r = node.payload_matches e.Event.payload in
          Lru.add node.memo e.Event.id r;
          r
    in
    t.fanout <- t.fanout + List.length substs;
    substs
  end

let subscribe t atom = matcher t (register t atom)
