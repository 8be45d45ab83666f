(* Wall-clock time on the monotonic clock, and bench-side spans. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Run [f], returning its result and wall time in seconds.  When
   tracing is on, the call is also recorded as a span of category
   "bench", so a trace shows where the harness itself spent time. *)
let timed ?(args = []) ?(vt = 0) name f =
  let span =
    if Xchange.Obs.enabled () then Xchange.Obs.Trace.begin_span ~cat:"bench" ~args ~name ~vt ()
    else 0
  in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  Xchange.Obs.Trace.end_span span ~vt;
  (r, dt)
