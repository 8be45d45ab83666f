(* CI bench-regression gate.

   Usage: check_regression <baseline.json> <current.json> [...more pairs]

   Compares a committed baseline BENCH_*.json against the one a smoke
   run just produced and fails (exit 1) when an indexed hot-path metric
   regressed:

   - wall-time fields of the indexed/cached paths ([indexed_ms],
     [cached_ms], [us_per_event_indexed], ...), of the WAL phases and
     of engine construction ([create_ms]): fail when
     current > TOL * max(baseline, floor).  The floor absorbs
     Sys.time granularity and machine noise on sub-millisecond smoke
     cases; TOL = 2.0 is the ">2x slowdown" contract.
   - deterministic join-work counters ([pairs_probed_indexed],
     [pairs_skipped_indexed]): same stream, same windows — these are
     exactly reproducible, so a small tolerance (1.5x over a 1k floor)
     only allows intentional algorithmic change, which must come with a
     baseline regen.
   - compiled-plan prune counters ([fingerprint_pruned],
     [arity_pruned]): same document, same query — exactly reproducible,
     and they must not DROP below baseline: fewer pruned subtrees means
     the compiler stopped refuting decoys before descent.
   - the subscription-index candidate count ([candidates_per_publish]):
     deterministic for a fixed subscription set, and the whole point of
     the index is that it does NOT scale with registrations — growth
     beyond 1.5x the baseline (over a small floor) means publish
     dispatch degraded back towards a linear scan.
   - the shared-alpha work counter ([alpha_evals_per_event_shared]):
     deterministic for a fixed ruleset and stream, and the whole point
     of the alpha network is that matcher work tracks {e distinct}
     patterns, not rules — growth beyond 1.5x the baseline (over a
     small floor) means cross-rule sharing degraded back towards
     per-rule evaluation.
   - the shared-beta work counter ([beta_joins_per_event_shared]):
     same contract one level up — join pairs probed per event must
     track distinct composite subtrees, not subscribing rules; growth
     beyond 1.5x the baseline (over a small floor) means composite
     join state stopped being shared.
   - the dispatch work counter ([rules_fed_per_event_shared]):
     deterministic for a fixed ruleset and stream, and a rule whose
     whole event query is one shared beta node is fed only when that
     node detects something, so the count tracks firings, not
     subscribing rules — growth beyond 1.5x the baseline (over a floor
     of one rule) means dispatch went back to feeding every subscriber
     of a reached node.
   - the per-rule memory of the shared engine ([words_per_rule_shared]):
     reachable words after a fixed stream, deterministic for a fixed
     ruleset — growth beyond 1.5x the baseline (over a small floor)
     means per-rule state grew back (a store or table per rule that
     nothing reads).
   - the clock-advance work counter ([rules_advanced_per_advance]):
     deterministic for a fixed ruleset, and an advance must touch only
     the rules that observe time, not the rule count — growth beyond
     1.5x the baseline (over a floor of one rule) means advances went
     back to visiting every rule.
   - the whole-document digest counter ([full_digests]): deterministic
     for a fixed catalog and change stream, and the query key must
     follow root-child inserts and deletes in O(change) — growth beyond
     1.5x the baseline (over a floor of one digest) means every change
     went back to re-digesting the whole document.
   - the WAL snapshot volume ([snapshot_bytes]): deterministic for a
     fixed node and event stream, and a node snapshots only once it has
     logged one snapshot's bytes since the last — growth beyond 1.5x
     the baseline (over a 4 KiB floor) means the cadence went back to
     re-encoding the whole state at a fixed record count.

   Workload-shape fields (rules/events/nodes/window/...) must match
   exactly: comparing timings of different workloads is meaningless, so
   a shape drift is an error telling the author to regenerate the
   baselines (see HACKING.md "Observability"). *)

open Xchange

let tol_time = 2.0
let tol_count = 1.5
let floor_ms = 5.0
let floor_us = 20.0
let floor_pairs = 1000.0
let floor_candidates = 4.0
let floor_alpha_evals = 4.0
let floor_beta_joins = 8.0
let floor_advanced = 1.0
let floor_fed = 1.0
let floor_words = 16.0
let floor_digests = 1.0
let floor_snapshot_bytes = 4096.0

let shape_keys =
  [
    "smoke"; "rules"; "events"; "nodes"; "queries"; "repeats"; "keys"; "window";
    "probes"; "orders"; "query"; "dist"; "profile"; "stored_per_child";
    "shape"; "records"; "leaves"; "answers";
    "subs"; "topics"; "fanout"; "publishes"; "overlap"; "kind";
  ]

let is_count_gate key =
  String.length key >= 6 && String.sub key 0 6 = "pairs_"
  && Filename.check_suffix key "_indexed"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let is_time_gate key =
  ((contains key "indexed" || contains key "cached" || contains key "plan")
  && (Filename.check_suffix key "_ms" || contains key "us_per_event"))
  (* WAL throughput phases (BENCH_wal.json): append / decode / physical
     redo / end-to-end node recovery are all hot durability paths; and
     engine construction (BENCH_rules.json), which goes quadratic when
     a query-keyed table stops hashing the whole key *)
  || List.mem key [ "append_ms"; "decode_ms"; "replay_ms"; "recover_ms"; "create_ms" ]

let is_prune_gate key = key = "fingerprint_pruned" || key = "arity_pruned"
let is_candidates_gate key = key = "candidates_per_publish"
let is_alpha_gate key = key = "alpha_evals_per_event_shared"
let is_beta_gate key = key = "beta_joins_per_event_shared"
let is_advance_gate key = key = "rules_advanced_per_advance"
let is_fed_gate key = key = "rules_fed_per_event_shared"
let is_words_gate key = key = "words_per_rule_shared"
let is_digest_gate key = key = "full_digests"
let is_snapshot_gate key = key = "snapshot_bytes"

let floor_of key = if contains key "us_per_event" then floor_us else floor_ms

let failures = ref []
let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt

let num = function Json.Num x -> Some x | _ -> None

let rec walk path (base : Json.t) (cur : Json.t) =
  match (base, cur) with
  | Json.Obj bs, Json.Obj cs ->
      List.iter
        (fun (k, bv) ->
          match List.assoc_opt k cs with
          | None -> fail "%s.%s: missing from current run" path k
          | Some cv -> field (path ^ "." ^ k) k bv cv)
        bs
  | Json.List bs, Json.List cs ->
      if List.length bs <> List.length cs then
        fail "%s: %d baseline rows vs %d current (workload changed? regenerate baselines)"
          path (List.length bs) (List.length cs)
      else List.iteri (fun i (b, c) -> walk (Printf.sprintf "%s[%d]" path i) b c)
             (List.combine bs cs)
  | _ -> ()

and field path key bv cv =
  if List.mem key shape_keys then begin
    if bv <> cv then
      fail "%s: workload shape differs from baseline (%s vs %s) — regenerate baselines"
        path (Json.to_string bv) (Json.to_string cv)
  end
  else if is_count_gate key then
    match (num bv, num cv) with
    | Some b, Some c when c > tol_count *. Float.max b floor_pairs ->
        fail "%s: %.0f pairs vs baseline %.0f (> %.1fx)" path c b tol_count
    | _ -> ()
  else if is_time_gate key then (
    match (num bv, num cv) with
    | Some b, Some c when c > tol_time *. Float.max b (floor_of key) ->
        fail "%s: %.3f vs baseline %.3f (> %.1fx slowdown)" path c b tol_time
    | _ -> ())
  else if is_prune_gate key then (
    match (num bv, num cv) with
    | Some b, Some c when b > 0. && c < b ->
        fail "%s: %.0f subtrees pruned vs baseline %.0f (pruning effectiveness lost)" path c b
    | _ -> ())
  else if is_candidates_gate key then (
    match (num bv, num cv) with
    | Some b, Some c when c > tol_count *. Float.max b floor_candidates ->
        fail
          "%s: %.1f candidates per publish vs baseline %.1f (dispatch scaling with registrations?)"
          path c b
    | _ -> ())
  else if is_alpha_gate key then (
    match (num bv, num cv) with
    | Some b, Some c when c > tol_count *. Float.max b floor_alpha_evals ->
        fail
          "%s: %.1f alpha evaluations per event vs baseline %.1f (cross-rule sharing degraded?)"
          path c b
    | _ -> ())
  else if is_beta_gate key then (
    match (num bv, num cv) with
    | Some b, Some c when c > tol_count *. Float.max b floor_beta_joins ->
        fail
          "%s: %.1f join pairs probed per event vs baseline %.1f (composite join sharing degraded?)"
          path c b
    | _ -> ())
  else if is_advance_gate key then (
    match (num bv, num cv) with
    | Some b, Some c when c > tol_count *. Float.max b floor_advanced ->
        fail "%s: %.1f rules advanced per advance vs baseline %.1f (advance scaling with rules?)"
          path c b
    | _ -> ())
  else if is_fed_gate key then (
    match (num bv, num cv) with
    | Some b, Some c when c > tol_count *. Float.max b floor_fed ->
        fail "%s: %.1f rules fed per event vs baseline %.1f (dispatch feeding every subscriber?)"
          path c b
    | _ -> ())
  else if is_words_gate key then (
    match (num bv, num cv) with
    | Some b, Some c when c > tol_count *. Float.max b floor_words ->
        fail "%s: %.1f words per rule vs baseline %.1f (per-rule state grew?)" path c b
    | _ -> ())
  else if is_digest_gate key then (
    match (num bv, num cv) with
    | Some b, Some c when c > tol_count *. Float.max b floor_digests ->
        fail "%s: %.0f whole-document digests vs baseline %.0f (digest key re-hashing per change?)"
          path c b
    | _ -> ())
  else if is_snapshot_gate key then (
    match (num bv, num cv) with
    | Some b, Some c when c > tol_count *. Float.max b floor_snapshot_bytes ->
        fail "%s: %.0f snapshot bytes vs baseline %.0f (snapshot cadence no longer amortised?)"
          path c b
    | _ -> ())
  else walk path bv cv

let read_file name =
  let ic = open_in_bin name in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Multicore scaling gate: BENCH_par.json records the wall-clock
   speedup at 4 domains and the core count of the machine that produced
   it.  On a machine with at least 4 real cores, a 4-domain run that
   fails to reach 1.5x the sequential run means the sharded scheduler
   stopped paying for itself; on smaller machines (CI containers are
   often 1-2 cores) wall-clock speedup is meaningless and the gate does
   not apply.  [cores] is deliberately NOT a workload-shape key — the
   same workload measured on different machines must still compare. *)
let min_speedup_4 = 1.5

let top_num key = function
  | Json.Obj fields -> (
      match List.assoc_opt key fields with Some (Json.Num x) -> Some x | _ -> None)
  | _ -> None

let scaling_gate name current =
  match (top_num "cores" current, top_num "speedup_4_domains" current) with
  | Some cores, Some speedup when cores >= 4. && speedup < min_speedup_4 ->
      fail "%s: %.2fx speedup at 4 domains on a %.0f-core machine (< %.1fx)" name speedup
        cores min_speedup_4
  | _ -> ()

let check (baseline, current) =
  (* a silently absent artifact must never pass as "nothing regressed" *)
  let missing = List.filter (fun f -> not (Sys.file_exists f)) [ baseline; current ] in
  if missing <> [] then
    List.iter
      (fun f -> fail "%s: bench artifact missing — expected the smoke run to emit it" f)
      missing
  else
    match (Json.parse (read_file baseline), Json.parse (read_file current)) with
    | Error e, _ -> fail "%s: parse error: %s" baseline e
    | _, Error e -> fail "%s: parse error: %s" current e
    | Ok b, Ok c ->
        let name = Filename.basename current |> Filename.remove_extension in
        Printf.printf "checking %s against %s\n" current baseline;
        walk name b c;
        scaling_gate name c

let () =
  let rec pairs = function
    | [] -> []
    | b :: c :: rest -> (b, c) :: pairs rest
    | [ _ ] ->
        prerr_endline "usage: check_regression <baseline.json> <current.json> [...]";
        exit 2
  in
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [] then begin
    prerr_endline "usage: check_regression <baseline.json> <current.json> [...]";
    exit 2
  end;
  List.iter check (pairs args);
  match List.rev !failures with
  | [] -> print_endline "bench regression gate: OK"
  | fs ->
      List.iter (fun f -> Printf.eprintf "REGRESSION %s\n" f) fs;
      Printf.eprintf "bench regression gate: %d failure(s)\n" (List.length fs);
      exit 1
