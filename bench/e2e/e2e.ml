(* End-to-end benchmark: modes, checks and reporting.

   One process, one caller, a closed loop: each tick injects that
   tick's generated events with [Network.inject], then calls
   [Network.run ~until]; the next tick starts only after it returns.
   A round is one fixed-size workload from network creation to crash
   recovery; rounds repeat until [--seconds] have passed and at least
   1000 ticks were timed.  See README.md for workloads, metrics and
   modes. *)

open Xchange

(* ---- command line ---- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 20.
let trace = ref 0
let scale = ref Workload.Full
let oracle = ref false
let repeat = ref 0
let digest_only = ref false

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" Workload.names ^ " (default: all)");
    ("--seed", Arg.Set_int seed, "N input seed (default 1)");
    ("--seconds", Arg.Set_float seconds, "S measure for at least S seconds (default 20)");
    ("--trace", Arg.Set_int trace, "0|1 1: traced run, report per-layer metrics (default 0)");
    ( "--scale",
      Arg.Symbol ([ "smoke"; "full" ], fun s -> scale := if s = "smoke" then Workload.Smoke else Full),
      " input size; smoke runs one small round as a correctness check" );
    ("--oracle", Arg.Set oracle, " also re-run under each escape hatch and compare digests");
    ("--repeat", Arg.Set_int repeat, "N run each workload N times in fresh processes, report spreads");
    ("--digest-only", Arg.Set digest_only, " run one untimed round, print its digest");
  ]

let scale_name () = match !scale with Workload.Smoke -> "smoke" | Full -> "full"
let traced_run () = !trace = 1
let oracle_hatches = [ "XCHANGE_NO_SHARE"; "XCHANGE_NO_SUBINDEX"; "XCHANGE_NO_PLAN"; "XCHANGE_NO_PAR" ]
let hatches_set () = List.filter_map (fun (v, on, _) -> if on then Some v else None) (Escape.all ())

(* ---- output ---- *)

(* every digit: runs are compared on raw measurements *)
let num x =
  if not (Float.is_finite x) then "0"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let str s = Json.to_string (Json.Str s)
let obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"

let metrics_json ms =
  obj (List.map (fun (name, v, unit) -> (name, obj [ ("value", num v); ("unit", str unit) ])) ms)

let result ~correct ~attempted ~failed ms =
  print_endline
    (obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", metrics_json ms);
       ])

(* ---- child processes ---- *)

(* Run this executable with [args] and extra environment bindings; wait
   for it and return its exit status and non-empty stdout lines. *)
let run_self ?(env = []) args =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process_env exe (Array.of_list (exe :: args))
      (Array.append (Array.of_list env) (Unix.environment ()))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (status, List.filter (fun l -> l <> "") (String.split_on_char '\n' out))

let last = function [] -> "" | l -> List.nth l (List.length l - 1)

(* ---- correctness ---- *)

(* The digest on file for this workload, scale and seed; choreo_par
   runs choreo's input and must produce its outputs. *)
let expected_digest name =
  let name = if name = "choreo_par" then "choreo" else name in
  match Json.parse Expected_data.json with
  | Error e -> failwith ("expected.json: " ^ e)
  | Ok j -> (
      match
        Option.bind (Option.bind (Json.member (scale_name ()) j) (Json.member name)) (Json.member (string_of_int !seed))
      with
      | Some (Json.Str d) -> Some d
      | _ -> None)

(* The same workload and seed in a fresh process per escape hatch
   (hatches are read once, at program start). *)
let oracle_problems name digest =
  List.filter_map
    (fun var ->
      let status, lines =
        run_self ~env:[ var ^ "=1" ]
          [ "--workload"; name; "--seed"; string_of_int !seed; "--scale"; scale_name (); "--digest-only" ]
      in
      match (status, String.split_on_char ' ' (last lines)) with
      | Unix.WEXITED 0, [ "digest"; d ] when d = digest -> None
      | Unix.WEXITED 0, [ "digest"; d ] -> Some (Printf.sprintf "oracle: under %s the digest is %s" var d)
      | _ -> Some (Printf.sprintf "oracle: the run under %s failed" var))
    oracle_hatches

(* Every round must reproduce round 1 and recover every host exactly;
   round 1 must match the reference digest.  Returns the problems and
   which reference was used. *)
let check name (rounds : Round.t list) =
  let first = List.hd rounds in
  let problems =
    List.concat
      (List.mapi
         (fun i (r : Round.t) ->
           (if r.digest <> first.digest then [ Printf.sprintf "round %d: digest %s differs from round 1" (i + 1) r.digest ]
            else [])
           @
           if r.recovery_diffs = [] then []
           else [ Printf.sprintf "round %d: recovered state differs on %s" (i + 1) (String.concat "; " r.recovery_diffs) ])
         rounds)
  in
  let reference, problems =
    match expected_digest name with
    | Some d when d = first.digest -> ("expected.json", problems)
    | Some d -> ("expected.json", problems @ [ Printf.sprintf "digest %s, expected.json has %s" first.digest d ])
    | None when name = "choreo_par" ->
        (* no digest on file for this seed: choreo's sequential run of
           the same input is the reference *)
        let choreo = Round.run ~traced:false (Option.get (Workload.make ~scale:!scale ~seed:!seed "choreo")) in
        ( "choreo",
          if choreo.digest = first.digest then problems
          else problems @ [ Printf.sprintf "digest %s, choreo's %s" first.digest choreo.digest ] )
    | None -> ("none", problems)
  in
  (reference, if !oracle then problems @ oracle_problems name first.digest else problems)

(* ---- metrics ---- *)

let plain rounds = List.filter (fun (r : Round.t) -> not r.traced) rounds
let traced rounds = List.filter (fun (r : Round.t) -> r.traced) rounds
let rate (r : Round.t) = Stats.ratio (float_of_int r.timed_events) r.timed_s

(* Medians over the untraced rounds, except two: tick percentiles pool
   every untraced round's ticks, and recovery and memory take the
   lowest round.  Recovery is a burst of tens of milliseconds that one
   scheduling hiccup can double, and interference only ever adds to
   it; memory can only grow from round to round, through anything a
   round leaves behind. *)
let e2e_metrics rounds =
  let rs = plain rounds in
  let med f = Stats.median (List.map f rs) in
  let lowest f = List.fold_left (fun m r -> Float.min m (f r)) Float.infinity rs in
  let ticks = List.concat_map (fun (r : Round.t) -> r.tick_ms) rs in
  [
    ("setup_s", med (fun r -> r.setup_s), "s");
    ("events_per_s", med rate, "1/s");
    ("tick_p50_ms", Stats.percentile 50. ticks, "ms");
    ("tick_p99_ms", Stats.percentile 99. ticks, "ms");
    ("recover_s", lowest (fun r -> r.recover_s), "s");
    ("live_mb", lowest (fun r -> r.live_mb), "MB");
  ]

let count (r : Round.t) name =
  match List.find_opt (fun (n, _, _) -> n = name) r.counts with Some (_, v, _) -> v | None -> 0.

(* Self times and shares come from traced rounds; timings the spans do
   not cover come from untraced ones; counts are deterministic and come
   from the last traced round. *)
let layer_metrics rounds =
  let pl = plain rounds and tr = traced rounds in
  let med rs f = Stats.median (List.map f rs) in
  let final = List.nth tr (List.length tr - 1) in
  let times (r : Round.t) = Option.get r.times in
  let per_ev (r : Round.t) x = Stats.ratio x (float_of_int r.timed_events) in
  let self =
    List.concat_map
      (fun layer ->
        let ms r = Layers.self (times r) layer in
        [
          (layer ^ ".self_ms_per_kev", med tr (fun r -> per_ev r (ms r) *. 1000.), "ms/kev");
          (layer ^ ".share", med tr (fun r -> Stats.ratio (ms r) (times r).tick), "frac");
        ])
      Layers.layers
  in
  self
  @ [
      ("node.tail_share", med tr (fun r -> Layers.tail_node_share (times r)), "frac");
      ("trace.overhead_frac", Stats.ratio (med tr (fun r -> r.timed_s)) (med pl (fun r -> r.timed_s)) -. 1., "frac");
      ("trace.spans_per_ev", med tr (fun r -> per_ev r (float_of_int (times r).spans)), "1/ev");
      ("wal.bytes_per_ev", med tr (fun r -> per_ev r (float_of_int (Option.get r.wal_bytes))), "B/ev");
      ("wal.append_us_per_record", med pl (fun r -> r.wal_append_us), "us");
      ("wal.decode_us_per_record", med pl (fun r -> r.wal_decode_us), "us");
      ("setup.compile_s", med pl (fun r -> r.compile_s), "s");
      ("setup.load_s", med pl (fun r -> r.load_s), "s");
      ("recover.replay_ms_per_host", med pl (fun r -> r.recover_s *. 1000. /. float_of_int r.hosts), "ms");
      ("recover.records_per_host", float_of_int final.replayed /. float_of_int final.hosts, "count");
      ( "partition.ms_per_round",
        med pl (fun r -> Stats.ratio (r.timed_s *. 1000.) (count r "partition.window_rounds")),
        "ms" );
    ]
  @ final.counts

(* ---- one measured run ---- *)

let enough (rounds : Round.t list) ~deadline =
  let ticks = List.fold_left (fun n (r : Round.t) -> n + List.length r.tick_ms) 0 (plain rounds) in
  let both = plain rounds <> [] && traced rounds <> [] in
  match !scale with
  | Workload.Smoke -> both || not (traced_run ())
  | Full -> if traced_run () then both && Wall.now () >= deadline else ticks >= 1000 && Wall.now () >= deadline

let measure name (w : Workload.t) =
  let deadline = Wall.now () +. !seconds in
  (* a traced run alternates untraced and traced rounds: the untraced
     ones measure what tracing costs *)
  let rec loop rounds =
    let rounds = rounds @ [ Round.run ~traced:(traced_run () && List.length rounds mod 2 = 1) w ] in
    if enough rounds ~deadline then rounds else loop rounds
  in
  let rounds = loop [] in
  let reference, problems = check name rounds in
  let first = List.hd rounds in
  let attempted = List.fold_left (fun n (r : Round.t) -> n + r.events) 0 rounds in
  let failed = List.fold_left (fun n (r : Round.t) -> n + r.failures) 0 rounds in
  let ticks = List.fold_left (fun n (r : Round.t) -> n + List.length r.tick_ms) 0 (plain rounds) in
  let e2e = e2e_metrics rounds in
  let error_frac = ("error_frac", Stats.ratio (float_of_int failed) (float_of_int attempted), "frac") in
  let layers = if traced_run () then layer_metrics rounds else (List.nth rounds (List.length rounds - 1)).counts in
  let hatches = match hatches_set () with [] -> "none" | l -> String.concat "," l in
  Printf.printf "# %s seed=%d scale=%s trace=%d cores=%d ocaml=%s hatches=%s rounds=%d tick_samples=%d\n" name
    !seed (scale_name ()) !trace (Domain.recommended_domain_count ()) Sys.ocaml_version hatches
    (List.length rounds) ticks;
  Printf.printf "# digest=%s reference=%s\n" first.digest reference;
  List.iteri
    (fun i (r : Round.t) ->
      Printf.printf "# round %d%s: setup_s=%.4f events_per_s=%.1f live_mb=%.3f recover_s=%.4f\n" (i + 1)
        (if r.traced then " (traced)" else "")
        r.setup_s (rate r) r.live_mb r.recover_s)
    rounds;
  List.iter (Printf.printf "problem: %s\n") problems;
  List.iter
    (fun (n, v, u) -> Printf.printf "%s %s %s\n" n (num v) u)
    ((if traced_run () then [] else e2e @ [ error_frac ]) @ layers);
  print_endline
    (obj
       [
         ("workload", str name);
         ("seed", string_of_int !seed);
         ("scale", str (scale_name ()));
         ("seconds", num !seconds);
         ("trace", string_of_bool (traced_run ()));
         ("cores", string_of_int (Domain.recommended_domain_count ()));
         ("ocaml", str Sys.ocaml_version);
         ("escape", obj (List.map (fun (v, on, _) -> (v, string_of_bool on)) (Escape.all ())));
         ("rounds", string_of_int (List.length rounds));
         ("tick_samples", string_of_int ticks);
         ("digest", str first.digest);
         ("reference", str reference);
         ("problems", "[" ^ String.concat ", " (List.map str problems) ^ "]");
         ("metrics", metrics_json ((error_frac :: e2e) @ layers));
       ]);
  let correct = problems = [] in
  result ~correct ~attempted ~failed (if traced_run () then layers else e2e);
  correct

(* ---- --repeat: spreads over fresh processes ---- *)

(* the bounds in BENCHMARK.json, when run from the repository root *)
let bounds () =
  match Json.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
  | exception Sys_error _ -> []
  | Error _ -> []
  | Ok j ->
      List.filter_map
        (fun m ->
          match (Json.member "name" m, Option.bind (Json.member "bound" m) Json.to_float) with
          | Some (Json.Str n), Some b -> Some (n, b)
          | _ -> None)
        (Option.fold ~none:[] ~some:Json.to_list (Json.member "end_to_end" j))

let values line =
  match Option.map (Json.member "metrics") (Result.to_option (Json.parse line)) with
  | Some (Some (Json.Obj fields)) ->
      List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (Option.bind (Json.member "value" v) Json.to_float)) fields
  | _ -> []

(* Each workload [!repeat] times on seeds [!seed], [!seed + 1], ...,
   alternating the workload order between passes so none always runs
   first.  The spread is (q3 - q1) / median, as the bounds are checked. *)
let repeat_runs names =
  let runs = Hashtbl.create 8 in
  for i = 0 to !repeat - 1 do
    List.iter
      (fun name ->
        let s = string_of_int (!seed + i) in
        let status, lines =
          run_self [ "--workload"; name; "--seed"; s; "--seconds"; num !seconds; "--scale"; scale_name () ]
        in
        let ms = values (last lines) in
        if status <> Unix.WEXITED 0 || ms = [] then begin
          Printf.printf "%s seed=%s FAILED\n%!" name s;
          exit 1
        end;
        Printf.printf "%s seed=%s %s\n%!" name s (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ num v) ms));
        Hashtbl.replace runs name (Option.value ~default:[] (Hashtbl.find_opt runs name) @ [ ms ]))
      (if i mod 2 = 0 then names else List.rev names)
  done;
  let bounds = bounds () in
  Printf.printf "\nworkload metric median q1 q3 spread bound verdict\n";
  List.fold_left
    (fun ok name ->
      let rs = Hashtbl.find runs name in
      List.fold_left
        (fun ok (metric, _) ->
          let xs = List.filter_map (List.assoc_opt metric) rs in
          let q1, q3 = Stats.quartiles xs and m = Stats.median xs in
          let spread = Stats.ratio (q3 -. q1) m in
          let bound = List.assoc_opt metric bounds in
          let verdict, fine =
            match bound with
            | None -> ("-", true)
            | Some _ when metric = "setup_s" -> ("not checked", true)
            | Some b when spread <= b /. 3. -> ("ok", true)
            | Some b when spread <= b -> ("within bound, above a third of it", true)
            | Some _ -> ("WIDER THAN BOUND", false)
          in
          Printf.printf "%s %s %s %s %s %.4f %s %s\n" name metric (num m) (num q1) (num q3) spread
            (Option.fold ~none:"-" ~some:num bound) verdict;
          ok && fine)
        ok (List.hd rs))
    true names

(* ---- main ---- *)

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "e2e.exe [OPTION]...";
  let names = if !workload = "" then Workload.names else [ !workload ] in
  if not (List.mem !workload ("" :: Workload.names)) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  if !repeat > 0 then exit (if repeat_runs names then 0 else 1);
  (* hatches swap in reference paths: fine for correctness checks,
     meaningless for timing *)
  if (not !digest_only) && !scale = Workload.Full && hatches_set () <> [] then begin
    prerr_endline ("refusing to time a run with escape hatches set: " ^ String.concat ", " (hatches_set ()));
    exit 2
  end;
  if traced_run () then begin
    Obs.set_wallclock Wall.now;
    Obs.Trace.set_capacity (1 lsl 22)
  end;
  let ok =
    List.fold_left
      (fun ok name ->
        let w = Option.get (Workload.make ~scale:!scale ~seed:!seed name) in
        if !digest_only then begin
          Printf.printf "digest %s\n" (Round.run ~traced:false w).digest;
          ok
        end
        else
          match measure name w with
          | correct -> ok && correct
          | exception e ->
              Printf.printf "problem: %s raised %s\n" name (Printexc.to_string e);
              result ~correct:false ~attempted:1 ~failed:1 [];
              false)
      true names
  in
  exit (if ok then 0 else 1)
