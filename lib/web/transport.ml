open Xchange_event
open Xchange_obs

type stats = {
  mutable messages : int;
  mutable bytes : int;
  mutable events : int;
  mutable gets : int;
  mutable responses : int;
  mutable updates : int;
  mutable dropped : int;
  mutable duplicated : int;
}

type faults = {
  drop : Message.t -> bool;
  duplicate : Message.t -> bool;
  jitter : Message.t -> Clock.span;
}

let no_faults =
  { drop = (fun _ -> false); duplicate = (fun _ -> false); jitter = (fun _ -> 0) }

(* A deterministic per-message coin: hash (seed, origin, msg_id, salt)
   into [0, 1).  Different salts give independent coins for drop / dup /
   jitter decisions on the same message.  The message identity is
   [(from_host, msg_id)] — a per-origin stamp, not a global allocation
   order — so the same message draws the same coins whether the
   simulation runs on one timeline or sharded across domains. *)
let coin ~seed ~salt (m : Message.t) =
  let h = Hashtbl.hash (seed, m.Message.from_host, m.Message.msg_id, salt) in
  float_of_int (h land 0xFFFF) /. 65536.

let fault_profile ?(seed = 0) ?(drop_rate = 0.) ?(dup_rate = 0.) ?(max_jitter = 0) () =
  {
    drop = (fun m -> coin ~seed ~salt:1 m < drop_rate);
    duplicate = (fun m -> coin ~seed ~salt:2 m < dup_rate);
    jitter =
      (fun m ->
        if max_jitter <= 0 then 0
        else int_of_float (coin ~seed ~salt:3 m *. float_of_int (max_jitter + 1)));
  }

type counters = {
  c_messages : Obs.Metrics.Counter.t;
  c_bytes : Obs.Metrics.Counter.t;
  c_events : Obs.Metrics.Counter.t;
  c_gets : Obs.Metrics.Counter.t;
  c_responses : Obs.Metrics.Counter.t;
  c_updates : Obs.Metrics.Counter.t;
  c_dropped : Obs.Metrics.Counter.t;
  c_duplicated : Obs.Metrics.Counter.t;
}

type handoff = Message.t -> dup:int -> at:Clock.time -> release:(unit -> unit) -> bool

type t = {
  sched : Sched.t;
  lat : from:string -> to_:string -> Clock.span;
  faults : faults;
  mutable deliver : Message.t -> unit;
  mutable handoff : handoff option;
  m : Obs.Metrics.t;
  c : counters;
  record : bool;
  mutable log : Message.t list;  (** newest first *)
  in_flight : int Atomic.t;
      (** outstanding scheduled deliveries; atomic because a
          cross-partition copy is released on the destination's domain *)
}

let default_latency ~from:_ ~to_:_ = Clock.ms 5

let create ~sched ?(latency = default_latency) ?(faults = no_faults) ?(record = false) () =
  let m = Obs.Metrics.create () in
  let t =
    {
      sched;
      lat = latency;
      faults;
      deliver = (fun m -> invalid_arg (Fmt.str "Transport: no delivery callback for %a" Message.pp m));
      handoff = None;
      m;
      c =
        {
          c_messages = Obs.Metrics.counter m "transport.messages";
          c_bytes = Obs.Metrics.counter m "transport.bytes";
          c_events = Obs.Metrics.counter m "transport.events";
          c_gets = Obs.Metrics.counter m "transport.gets";
          c_responses = Obs.Metrics.counter m "transport.responses";
          c_updates = Obs.Metrics.counter m "transport.updates";
          c_dropped = Obs.Metrics.counter m "transport.dropped";
          c_duplicated = Obs.Metrics.counter m "transport.duplicated";
        };
      record;
      log = [];
      in_flight = Atomic.make 0;
    }
  in
  Obs.Metrics.gauge_fn m "transport.in_flight" (fun () -> float_of_int (Atomic.get t.in_flight));
  t

let on_deliver t f = t.deliver <- f
let on_handoff t f = t.handoff <- Some f

let body_kind (m : Message.t) =
  match m.Message.body with
  | Message.Event _ -> "event"
  | Message.Get _ -> "get"
  | Message.Response _ -> "response"
  | Message.Update _ -> "update"

let account t (m : Message.t) =
  if t.record then t.log <- m :: t.log;
  Obs.Metrics.Counter.incr t.c.c_messages;
  Obs.Metrics.Counter.incr ~by:(Message.size_bytes m) t.c.c_bytes;
  match m.Message.body with
  | Message.Event _ -> Obs.Metrics.Counter.incr t.c.c_events
  | Message.Get _ -> Obs.Metrics.Counter.incr t.c.c_gets
  | Message.Response _ -> Obs.Metrics.Counter.incr t.c.c_responses
  | Message.Update _ -> Obs.Metrics.Counter.incr t.c.c_updates

(* Put one delivery of [m] on the destination timeline [t.sched] at
   [at], ranked by the message's sender stamp. *)
let inject t (m : Message.t) ~dup ~at ~release =
  Sched.at_msg t.sched ~origin:m.Message.from_host ~n:m.Message.msg_id ~dup at (fun _now ->
      release ();
      t.deliver m)

let schedule_delivery t ?(span = 0) ~dup m at =
  Atomic.incr t.in_flight;
  let release () = Atomic.decr t.in_flight in
  let taken =
    match t.handoff with None -> false | Some h -> h m ~dup ~at ~release
  in
  if not taken then
    Sched.at_msg t.sched ~origin:m.Message.from_host ~n:m.Message.msg_id ~dup at (fun _now ->
        release ();
        (* the delivery occurrence runs under the span that sent the
           message: the causal link across in-flight time *)
        Obs.Trace.run_under span (fun () -> t.deliver m))

let send t (m : Message.t) =
  account t m;
  let span =
    if Obs.enabled () then
      Obs.Trace.instant ~cat:"net"
        ~args:
          [
            ("kind", body_kind m);
            ("from", m.Message.from_host);
            ("to", m.Message.to_host);
            ("msg_id", string_of_int m.Message.msg_id);
          ]
        ~name:"send" ~vt:(Sched.now t.sched) ()
    else 0
  in
  if t.faults.drop m then Obs.Metrics.Counter.incr t.c.c_dropped
  else begin
    (* a message cannot depart before the present, even if stamped
       earlier (delayed actions stamp the future; nothing stamps the
       past except tests driving nodes directly) *)
    let departs = max m.Message.sent_at (Sched.now t.sched) in
    let deliver_at =
      Clock.add departs (t.lat ~from:m.Message.from_host ~to_:m.Message.to_host + t.faults.jitter m)
    in
    schedule_delivery t ~span ~dup:0 m deliver_at;
    if t.faults.duplicate m then begin
      Obs.Metrics.Counter.incr t.c.c_duplicated;
      (* the ghost copy trails the original by at least one instant *)
      schedule_delivery t ~span ~dup:1 m (Clock.add deliver_at (1 + t.faults.jitter m))
    end
  end

let pending t = Atomic.get t.in_flight
let metrics t = t.m

let stats t =
  {
    messages = Obs.Metrics.Counter.value t.c.c_messages;
    bytes = Obs.Metrics.Counter.value t.c.c_bytes;
    events = Obs.Metrics.Counter.value t.c.c_events;
    gets = Obs.Metrics.Counter.value t.c.c_gets;
    responses = Obs.Metrics.Counter.value t.c.c_responses;
    updates = Obs.Metrics.Counter.value t.c.c_updates;
    dropped = Obs.Metrics.Counter.value t.c.c_dropped;
    duplicated = Obs.Metrics.Counter.value t.c.c_duplicated;
  }

let merge_stats l =
  List.fold_left
    (fun a (b : stats) ->
      {
        messages = a.messages + b.messages;
        bytes = a.bytes + b.bytes;
        events = a.events + b.events;
        gets = a.gets + b.gets;
        responses = a.responses + b.responses;
        updates = a.updates + b.updates;
        dropped = a.dropped + b.dropped;
        duplicated = a.duplicated + b.duplicated;
      })
    {
      messages = 0;
      bytes = 0;
      events = 0;
      gets = 0;
      responses = 0;
      updates = 0;
      dropped = 0;
      duplicated = 0;
    }
    l

let latency t ~from ~to_ = t.lat ~from ~to_
let trace t = List.rev t.log
