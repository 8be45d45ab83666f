(* Shared alpha network: one memoizing matcher per distinct atomic
   event query, fanned out to every subscribing rule.  See alpha.mli
   for the contract.  The invariants kept here:

   - nodes are keyed by the atom itself and compared with structural
     equality, so two subscriptions share exactly when their atoms are
     equal; the table lives as long as the engine that owns it;
   - the memo caches pure (pattern, payload) results keyed by event id,
     so serving from it is indistinguishable from re-evaluating;
   - the memo lives one engine batch, as Beta's does: [begin_batch]
     opens a new generation and a node drops an older generation's
     entries at its next use, so no result outlives the batch that
     computed it — an event id reused by a later batch is evaluated
     afresh. *)

open Xchange_query
open Xchange_event
open Xchange_obs

type node = {
  atom : Event_query.atomic;
  payload_matches : Xchange_data.Term.t -> Subst.set;
  memo : (int, Subst.set) Hashtbl.t;  (* event id -> substitutions, valid for [gen] only *)
  mutable gen : int;  (* generation the memo belongs to; -1 = never used *)
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
  mutable generation : int;
  mutable evaluations : int;
  mutable hits : int;
  mutable fanout : int;
}

let create ?metrics () =
  let m = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  let t =
    {
      nodes = Atoms.create 64;
      m;
      registrations = 0;
      generation = 0;
      evaluations = 0;
      hits = 0;
      fanout = 0;
    }
  in
  Obs.Metrics.gauge_fn m "alpha.nodes" (fun () -> float_of_int (Atoms.length t.nodes));
  Obs.Metrics.gauge_fn m "alpha.registrations" (fun () -> float_of_int t.registrations);
  Obs.Metrics.counter_fn m "alpha.evaluations" (fun () -> t.evaluations);
  Obs.Metrics.counter_fn m "alpha.hits" (fun () -> t.hits);
  Obs.Metrics.counter_fn m "alpha.fanout" (fun () -> t.fanout);
  t

let metrics t = t.m
let begin_batch t = t.generation <- t.generation + 1

let node t atom =
  match Atoms.find_opt t.nodes atom with
  | Some n -> n
  | None ->
      let n =
        {
          atom;
          payload_matches = Simulate.matcher atom.Event_query.pattern;
          memo = Hashtbl.create 8;
          gen = -1;
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
      if node.gen <> t.generation then begin
        Hashtbl.reset node.memo;
        node.gen <- t.generation
      end;
      let substs =
        match Hashtbl.find_opt node.memo e.Event.id with
        | Some r ->
            t.hits <- t.hits + 1;
            r
        | None ->
            t.evaluations <- t.evaluations + 1;
            Incremental.note_atomic_run ();
            let r = node.payload_matches e.Event.payload in
            Hashtbl.add node.memo e.Event.id r;
            r
      in
      t.fanout <- t.fanout + List.length substs;
      substs
    end
