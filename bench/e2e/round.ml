(* One round: build the workload's network, drive every tick through it
   in a closed loop, drain, run the fixed probe, then crash and recover
   every host.  The first 10% of ticks warm up and are not timed. *)

open Xchange

type t = {
  traced : bool;
  setup_s : float;
  compile_s : float;
  load_s : float;
  tick_ms : float list;  (** timed ticks *)
  timed_s : float;  (** timed ticks plus the drain to quiescence *)
  events : int;  (** injected, all ticks *)
  timed_events : int;  (** injected during timed ticks *)
  live_mb : float;
  recover_s : float;
  replayed : int;  (** WAL records replayed by recovery, all hosts *)
  hosts : int;
  digest : string;
  failures : int;
  recovery_diffs : string list;  (** hosts whose recovered state differs *)
  counts : (string * float * string) list;
  times : Layers.times option;  (** traced rounds only *)
  wal_bytes : int option;  (** traced rounds only: bytes appended in the timed phase *)
  wal_append_us : float;
  wal_decode_us : float;
}

(* Spans retained since the last drain; a dropped span would make the
   attribution silently short, so it is a hard error. *)
let drain () =
  let spans = Obs.Trace.spans () in
  if Obs.Trace.dropped () > 0 then failwith "span ring overflowed: spans were dropped";
  Obs.Trace.clear ();
  spans

let live_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6

let run ~traced (w : Workload.t) =
  (* identical id streams in every round: fault coins and delivery
     ranks hash message identities *)
  Event.reset_ids ();
  Message.reset_ids ();
  Obs.set_enabled traced;
  Obs.Trace.clear ();
  let b, setup_s = Wall.timed "setup" w.build in
  ignore (drain ());
  let net = b.net in
  let n = Array.length w.ticks in
  let warm = n / 10 in
  let start = ref (Layers.sample b) and probe = ref (Layers.wal_probe net) in
  let times = Layers.zero_times () in
  let ticks = ref [] and timed_s = ref 0. and events = ref 0 and timed_events = ref 0 in
  let tick name body =
    snd (Wall.timed ~args:[ ("tick", name) ] ~vt:(Network.clock net) "tick" body)
  in
  let inject inputs =
    Array.iter (fun (i : Workload.input) -> Network.inject net ~to_:i.to_ ~label:i.label i.payload) inputs
  in
  let account () =
    if traced then begin
      Layers.attribute times (drain ());
      Layers.probe !probe net
    end
  in
  for k = 0 to n - 1 do
    if k = warm then begin
      start := Layers.sample b;
      probe := Layers.wal_probe net
    end;
    let inputs = w.ticks.(k) in
    let dt =
      tick (string_of_int k) (fun () ->
          ignore (Wall.timed "Network.inject" (fun () -> inject inputs));
          ignore (Wall.timed "Network.run" (fun () -> Network.run net ~until:((k + 1) * w.period))))
    in
    events := !events + Array.length inputs;
    if k >= warm then begin
      ticks := (dt *. 1000.) :: !ticks;
      timed_s := !timed_s +. dt;
      timed_events := !timed_events + Array.length inputs;
      account ()
    end
    else if traced then ignore (drain ())
  done;
  let clock = ref 0 in
  timed_s := !timed_s +. tick "quiet" (fun () -> clock := Network.run_until_quiet net ());
  account ();
  let counts = Layers.counts !start (Layers.sample b) ~events:!timed_events in
  let digest = Outputs.digest net ~clock:!clock in
  let failures = Outputs.failures net in
  (* Every host checkpoints, then the network runs the fixed probe: each
     run ends in the same cache state and each crash replays the same
     log suffix, whatever the seed left behind (a live term index or
     not, a snapshot due soon or not). *)
  List.iter (fun h -> Node.checkpoint (Network.node_exn net h) ~at:!clock) (Network.hosts net);
  Array.iteri
    (fun k inputs ->
      inject inputs;
      Network.run net ~until:(!clock + ((k + 1) * w.period)))
    w.probe;
  ignore (Network.run_until_quiet net ());
  if traced then ignore (drain ());
  let live_mb = live_mb () in
  let wal_append_us, wal_decode_us = Layers.wal_codec net in
  let before = Outputs.states net in
  let recover_s, replayed =
    List.fold_left
      (fun (s, r) h ->
        let node = Network.node_exn net h in
        let replayed, dt =
          Wall.timed ~args:[ ("host", h) ] "crash+recover" (fun () ->
              ignore (Wall.timed "Node.crash" (fun () -> Node.crash node));
              match fst (Wall.timed "Node.recover" (fun () -> Node.recover node (Network.context_for net node))) with
              | Ok n -> n
              | Error e -> failwith (Printf.sprintf "recovery of %s failed: %s" h e))
        in
        if traced then ignore (drain ());
        (s +. dt, r + replayed))
      (0., 0) (Network.hosts net)
  in
  let recovery_diffs = if Escape.no_wal then [] else Outputs.differing before (Outputs.states net) in
  Obs.set_enabled false;
  {
    traced;
    setup_s;
    compile_s = b.compile_s;
    load_s = b.load_s;
    tick_ms = !ticks;
    timed_s = !timed_s;
    events = !events;
    timed_events = !timed_events;
    live_mb;
    recover_s;
    replayed;
    hosts = List.length (Network.hosts net);
    digest;
    failures;
    recovery_diffs;
    counts;
    times = (if traced then Some times else None);
    wal_bytes = (if traced then Some !probe.Layers.appended else None);
    wal_append_us;
    wal_decode_us;
  }
