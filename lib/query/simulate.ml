open Xchange_data
open Xchange_obs

(* Regexes are referenced by their source text in query terms; compile
   once per distinct pattern.  The cache is bounded (rule programs are
   finite but adversarial or generated query streams are not) — least
   recently used patterns are recompiled if they come back.  Compiled
   plans embed their own regexes; this cache only serves the
   interpreter path.  Patterns are [Re.whole_string]-anchored at
   compile time, so a leaf visit is a single [Re.execp] instead of an
   unanchored search plus a group-0 / full-input comparison. *)
(* Domain-local: compiled regexes are cheap to rebuild, racing domains
   are not.  Each domain grows its own cache; the metrics fold sums all
   of them. *)
module Regex_lru = Lru.Make (String)

let regex_caches : Re.re Regex_lru.t Xchange_core.Domain_local.t =
  Xchange_core.Domain_local.create (fun () -> Regex_lru.create ~cap:256)

let compiled_regex r =
  let regex_cache = Xchange_core.Domain_local.get regex_caches in
  match Regex_lru.find regex_cache r with
  | Some re -> re
  | None ->
      let re = Re.compile (Re.whole_string (Re.Pcre.re r)) in
      Regex_lru.add regex_cache r re;
      re

let match_leaf_pat pat t =
  match (pat, t) with
  | Qterm.Leaf_any, (Term.Text _ | Term.Num _ | Term.Bool _) -> true
  | Qterm.Text_is s, _ -> (
      match Term.as_text t with Some s' -> String.equal s s' | None -> false)
  | Qterm.Num_is f, _ -> (
      match Term.as_num t with Some f' -> Float.equal f f' | None -> false)
  | Qterm.Bool_is b, Term.Bool b' -> Bool.equal b b'
  | Qterm.Regex r, _ -> (
      match Term.as_text t with
      | Some s -> Re.execp (compiled_regex r) s
      | None -> false)
  | Qterm.Leaf_any, Term.Elem _ -> false
  | Qterm.Bool_is _, (Term.Text _ | Term.Num _ | Term.Elem _) -> false

let match_label pat label subst =
  match pat with
  | Qterm.L s -> if String.equal s label then [ subst ] else []
  | Qterm.L_any -> [ subst ]
  | Qterm.L_var v -> (
      match Subst.add v (Term.text label) subst with Some s -> [ s ] | None -> [])

let match_attr attrs (key, pat) subst =
  match List.assoc_opt key attrs with
  | None -> []
  | Some value -> (
      match pat with
      | Qterm.A_any -> [ subst ]
      | Qterm.A_is s -> if String.equal s value then [ subst ] else []
      | Qterm.A_var v -> (
          match Subst.add v (Term.text value) subst with Some s -> [ s ] | None -> []))

(* The matcher threads a single substitution and returns the list of
   extended substitutions (all alternatives). *)
let rec match_term q t subst =
  match q with
  | Qterm.Var v -> (
      match Subst.add v (Term.strip_ids t) subst with Some s -> [ s ] | None -> [])
  | Qterm.As (v, q') -> (
      match Subst.add v (Term.strip_ids t) subst with
      | Some s -> match_term q' t s
      | None -> [])
  | Qterm.Leaf pat -> if match_leaf_pat pat t then [ subst ] else []
  | Qterm.Desc q' -> match_desc q' t subst
  | Qterm.El ep -> (
      match t with
      | Term.Elem e -> match_elem ep e subst
      | Term.Text _ | Term.Num _ | Term.Bool _ -> [])

(* Accumulate over the whole subtree and dedup once at the top: the old
   per-level [Subst.dedup (here @ below)] was O(depth * n^2) on deep
   documents and allocated a fresh list per level. *)
and match_desc q t subst =
  let rec go acc t =
    let acc = List.rev_append (match_term q t subst) acc in
    List.fold_left go acc (Term.children t)
  in
  Subst.dedup (go [] t)

and match_elem ep e subst =
  let after_label = match_label ep.Qterm.label e.Term.label subst in
  let after_attrs =
    List.fold_left
      (fun substs attr_pat -> List.concat_map (match_attr e.Term.attrs attr_pat) substs)
      after_label ep.Qterm.attrs
  in
  (* children patterns in order, with their kind: required or optional *)
  let patterns =
    List.filter_map
      (function
        | Qterm.Pos q -> Some (q, `Required)
        | Qterm.Opt q -> Some (q, `Optional)
        | Qterm.Without _ -> None)
      ep.Qterm.children
  in
  let negatives =
    List.filter_map
      (function Qterm.Without q -> Some q | Qterm.Pos _ | Qterm.Opt _ -> None)
      ep.Qterm.children
  in
  let has_optionals = List.exists (fun (_, kind) -> kind = `Optional) patterns in
  let unordered = ep.Qterm.ord = Term.Unordered || e.Term.ord = Term.Unordered in
  let total = ep.Qterm.spec = Qterm.Total in
  let data = e.Term.children in
  let after_children =
    List.concat_map (fun s -> match_children ~unordered ~total patterns data s) after_attrs
  in
  let passes_negatives s =
    List.for_all
      (fun nq -> not (List.exists (fun c -> match_term nq c s <> []) data))
      negatives
  in
  let answers = Subst.dedup (List.filter passes_negatives after_children) in
  if has_optionals then Subst.maximal_only answers else answers

and match_children ~unordered ~total patterns data subst =
  match (unordered, total) with
  | false, true ->
      (* ordered, total: alignment covering every data child; optional
         patterns may be skipped *)
      let rec go ps ds subst =
        match (ps, ds) with
        | [], [] -> [ subst ]
        | (p, kind) :: ps', d :: ds' ->
            let used = List.concat_map (fun s -> go ps' ds' s) (match_term p d subst) in
            let skipped = match kind with `Optional -> go ps' ds subst | `Required -> [] in
            used @ skipped
        | ((_, `Optional) :: ps'), [] -> go ps' [] subst
        | ((_, `Required) :: _), [] | [], _ :: _ -> []
      in
      go patterns data subst
  | false, false ->
      (* ordered, partial: order-preserving injection (subsequence);
         optional patterns may additionally be skipped outright *)
      let rec go ps ds subst =
        match (ps, ds) with
        | [], _ -> [ subst ]
        | ((_, `Optional) :: ps'), [] -> go ps' [] subst
        | ((_, `Required) :: _), [] -> []
        | ((p, kind) :: ps'), (d :: ds') ->
            let used = List.concat_map (fun s -> go ps' ds' s) (match_term p d subst) in
            let skipped_data = go ps ds' subst in
            let skipped_pattern =
              match kind with `Optional -> go ps' (d :: ds') subst | `Required -> []
            in
            used @ skipped_data @ skipped_pattern
      in
      go patterns data subst
  | true, _ ->
      (* unordered: injective assignment; total additionally requires the
         assignment (with skipped optionals) to consume every data child *)
      let rec go ps ds subst =
        match ps with
        | [] -> if total && ds <> [] then [] else [ subst ]
        | (p, kind) :: ps' ->
            let rec pick before after acc =
              match after with
              | [] -> acc
              | d :: after' ->
                  let solutions =
                    List.concat_map
                      (fun s -> go ps' (List.rev_append before after') s)
                      (match_term p d subst)
                  in
                  pick (d :: before) after' (solutions @ acc)
            in
            let used = pick [] ds [] in
            let skipped = match kind with `Optional -> go ps' ds subst | `Required -> [] in
            used @ skipped
      in
      go patterns data subst

(* ---- compiled-plan routing ------------------------------------------ *)

(* The interpreter above stays the reference implementation; by default
   every entry point routes through a compiled {!Plan}, fetched from a
   bounded structural-keyed cache (rule programs evaluate the same
   finite query set over and over).  [~plan:false] per call restores
   the interpreter — the oracle the differential property suite drives;
   [XCHANGE_NO_PLAN=1] (read once at startup, here and nowhere else)
   makes it the default. *)

(* Domain-local like the regex cache: plans are pure values compiled
   from pure values, so per-domain duplication costs only memory and
   recompilation, never correctness. *)
module Plan_lru = Lru.Make (Qterm.Key)

let plan_caches : Plan.t Plan_lru.t Xchange_core.Domain_local.t =
  Xchange_core.Domain_local.create (fun () -> Plan_lru.create ~cap:512)

let plan_default = not Xchange_core.Escape.no_plan

let plan_of q =
  let plan_cache = Xchange_core.Domain_local.get plan_caches in
  match Plan_lru.find plan_cache q with
  | Some p -> p
  | None ->
      let p = Plan.compile q in
      Plan_lru.add plan_cache q p;
      p

(* Query-layer observability: the plan cache and the plan work counters
   are process-global (queries are values, not component instances), so
   one module-level registry carries them; benches and harnesses
   snapshot it directly. *)
let metrics =
  let sum caches stat =
    Xchange_core.Domain_local.fold caches ~init:0 ~f:(fun acc c -> acc + stat c)
  in
  let m = Obs.Metrics.create () in
  Obs.Metrics.counter_fn m "query.plan_cache_hits" (fun () -> sum plan_caches Plan_lru.hits);
  Obs.Metrics.counter_fn m "query.plan_cache_misses" (fun () ->
      sum plan_caches Plan_lru.misses);
  Obs.Metrics.counter_fn m "query.plan_cache_evictions" (fun () ->
      sum plan_caches Plan_lru.evictions);
  Obs.Metrics.counter_fn m "query.plans_compiled" (fun () -> Plan.compiled_count ());
  Obs.Metrics.counter_fn m "query.fingerprint_pruned" (fun () -> Plan.fingerprint_pruned ());
  Obs.Metrics.counter_fn m "query.arity_pruned" (fun () -> Plan.arity_pruned ());
  Obs.Metrics.counter_fn m "query.regex_cache_hits" (fun () -> sum regex_caches Regex_lru.hits);
  Obs.Metrics.counter_fn m "query.regex_cache_misses" (fun () ->
      sum regex_caches Regex_lru.misses);
  m

let matches ?(plan = plan_default) ?(seed = Subst.empty) q t =
  if plan then Plan.matches ~seed (plan_of q) t
  else Subst.dedup (match_term q t seed)

let matcher q = if plan_default then Plan.matches (plan_of q) else matches ~plan:false q

let matches_anywhere ?(plan = plan_default) ?(seed = Subst.empty) q t =
  if plan then Plan.matches_anywhere ~seed (plan_of q) t else match_desc q t seed

let holds ?plan ?seed q t = matches ?plan ?seed q t <> []
