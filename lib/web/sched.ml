open Xchange_event
open Xchange_obs

(* Execution order within one instant.  [Local] occurrences (timers,
   tickers, timeouts, engine deadlines — everything this timeline
   scheduled for itself) keep their per-timeline sequence numbers.
   Message deliveries are ranked by the sender-stamped identity of the
   message instead: the stamp is computable on whichever timeline the
   sender runs, so a parallel run that partitions hosts across domains
   merges cross-partition deliveries into {e exactly} the order the
   single-timeline run produces.  At equal time, local occurrences run
   before deliveries (constructor order). *)
module Rank = struct
  type t =
    | Local of int
    | Msg of { origin : string; n : int; dup : int }

  let compare a b =
    match (a, b) with
    | Local x, Local y -> Int.compare x y
    | Local _, Msg _ -> -1
    | Msg _, Local _ -> 1
    | Msg a, Msg b -> (
        match String.compare a.origin b.origin with
        | 0 -> ( match Int.compare a.n b.n with 0 -> Int.compare a.dup b.dup | c -> c)
        | c -> c)
end

module Key = struct
  type t = Clock.time * Rank.t

  let compare (ta, ra) (tb, rb) =
    match Int.compare ta tb with 0 -> Rank.compare ra rb | c -> c
end

module Q = Map.Make (Key)

type entry = {
  holds : bool;
  run : Clock.time -> unit;
}

type t = {
  mutable now : Clock.time;
  mutable queue : entry Q.t;
  mutable seq : int;
  mutable holding : int;
  m : Obs.Metrics.t;
  c_scheduled : Obs.Metrics.Counter.t;
  c_executed : Obs.Metrics.Counter.t;
  g_max_queue : Obs.Metrics.Gauge.t;
}

let create ?(origin = Clock.origin) () =
  let m = Obs.Metrics.create () in
  let t =
    {
      now = origin;
      queue = Q.empty;
      seq = 0;
      holding = 0;
      m;
      c_scheduled = Obs.Metrics.counter m "sched.scheduled";
      c_executed = Obs.Metrics.counter m "sched.executed";
      g_max_queue = Obs.Metrics.gauge m "sched.max_queue";
    }
  in
  Obs.Metrics.gauge_fn m "sched.queue_length" (fun () -> float_of_int (Q.cardinal t.queue));
  Obs.Metrics.gauge_fn m "sched.holding" (fun () -> float_of_int t.holding);
  Obs.Metrics.gauge_fn m "sched.now" (fun () -> float_of_int t.now);
  t

let now t = t.now
let metrics t = t.m

let enqueue_key t ~holds key run =
  t.queue <- Q.add key { holds; run } t.queue;
  if holds then t.holding <- t.holding + 1;
  Obs.Metrics.Gauge.set_max t.g_max_queue (float_of_int (Q.cardinal t.queue));
  key

let enqueue t ~holds time run =
  let time = max time t.now in
  t.seq <- t.seq + 1;
  enqueue_key t ~holds (time, Rank.Local t.seq) run

let at t ?(holds = true) time f =
  Obs.Metrics.Counter.incr t.c_scheduled;
  ignore (enqueue t ~holds time f)

let at_msg t ?(holds = true) ~origin ~n ~dup time f =
  Obs.Metrics.Counter.incr t.c_scheduled;
  let time = max time t.now in
  (* the (origin, n, dup) stamp is unique for network traffic; raw
     harness messages that collide (same origin, reused counter) step
     the dup lane rather than silently replacing the earlier entry *)
  let rec free dup =
    let key = (time, Rank.Msg { origin; n; dup }) in
    if Q.mem key t.queue then free (dup + 1) else key
  in
  ignore (enqueue_key t ~holds (free dup) f)

let cancellable t ?(holds = true) time f =
  Obs.Metrics.Counter.incr t.c_scheduled;
  let key = enqueue t ~holds time f in
  fun () ->
    match Q.find_opt key t.queue with
    | None -> () (* already executed (or already cancelled) *)
    | Some e ->
        t.queue <- Q.remove key t.queue;
        if e.holds then t.holding <- t.holding - 1

let after t ?holds span f = at t ?holds (Clock.add t.now span) f

let every t ?phase ~period f =
  let period = max 1 period in
  let rec tick time =
    f time;
    ignore (enqueue t ~holds:false (Clock.add time period) tick)
  in
  ignore (enqueue t ~holds:false (Clock.add t.now (Option.value ~default:period phase)) tick)

let next_due t = Option.map (fun ((time, _), _) -> time) (Q.min_binding_opt t.queue)

let next_holding t =
  (* holding occurrences are rare enough that a scan is fine; the queue
     is ordered, so the first holding binding is the earliest *)
  Q.fold
    (fun (time, _) e acc ->
      match acc with Some _ -> acc | None -> if e.holds then Some time else None)
    t.queue None

let pending t = t.holding

let exec t key e =
  t.queue <- Q.remove key t.queue;
  if e.holds then t.holding <- t.holding - 1;
  let time = fst key in
  if time > t.now then t.now <- time;
  Obs.Metrics.Counter.incr t.c_executed;
  e.run t.now

let run_until t until =
  let rec loop () =
    match Q.min_binding_opt t.queue with
    | Some (((time, _) as key), e) when time <= until ->
        exec t key e;
        loop ()
    | _ -> ()
  in
  loop ();
  if until > t.now then t.now <- until

let step t =
  match Q.min_binding_opt t.queue with
  | None -> false
  | Some (key, e) ->
      exec t key e;
      true
