(* Shared alpha network: one memoizing matcher per distinct atomic
   event query, fanned out to every subscribing rule.  See alpha.mli
   for the contract.  The invariants kept here:

   - nodes are keyed by the atom itself and compared with structural
     equality, so two subscriptions share exactly when their atoms are
     equal; the table lives as long as the engine that owns it;
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

module Memo = Lru.Make (Int)

type node = {
  atom : Event_query.atomic;
  payload_matches : Xchange_data.Term.t -> Subst.set;
  memo : Subst.set Memo.t;  (* event id -> substitutions *)
}

module Atoms = Hashtbl.Make (struct
  type t = Event_query.atomic

  let equal = ( = )
  let hash = Qterm.key_hash
end)

type t = {
  nodes : node Atoms.t;
  m : Obs.Metrics.t;
  mutable registrations : int;
  mutable evaluations : int;
  mutable hits : int;
  mutable fanout : int;
}

let create ?metrics () =
  let m = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  let t =
    { nodes = Atoms.create 64; m; registrations = 0; evaluations = 0; hits = 0; fanout = 0 }
  in
  Obs.Metrics.gauge_fn m "alpha.nodes" (fun () -> float_of_int (Atoms.length t.nodes));
  Obs.Metrics.gauge_fn m "alpha.registrations" (fun () -> float_of_int t.registrations);
  Obs.Metrics.counter_fn m "alpha.evaluations" (fun () -> t.evaluations);
  Obs.Metrics.counter_fn m "alpha.hits" (fun () -> t.hits);
  Obs.Metrics.counter_fn m "alpha.fanout" (fun () -> t.fanout);
  t

let metrics t = t.m

let node t atom =
  match Atoms.find_opt t.nodes atom with
  | Some n -> n
  | None ->
      let n =
        {
          atom;
          payload_matches = Simulate.matcher atom.Event_query.pattern;
          memo = Memo.create ~cap:memo_cap;
        }
      in
      Atoms.add t.nodes atom n;
      n

let subscribe t atom : Incremental.atom_matcher =
  let node = node t atom in
  t.registrations <- t.registrations + 1;
  fun e ->
    if not (Incremental.envelope_ok node.atom e) then []
    else begin
      let substs =
        match Memo.find node.memo e.Event.id with
        | Some r ->
            t.hits <- t.hits + 1;
            r
        | None ->
            t.evaluations <- t.evaluations + 1;
            Incremental.note_atomic_run ();
            let r = node.payload_matches e.Event.payload in
            Memo.add node.memo e.Event.id r;
            r
      in
      t.fanout <- t.fanout + List.length substs;
      substs
    end
