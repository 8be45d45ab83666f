open Xchange_data

(* A compiled matcher: the term to match against and the substitution to
   extend, returning all extensions.  Same contract as
   [Simulate.match_term], with every per-call query analysis hoisted
   into the closure's environment at compile time. *)
type code = Term.t -> Subst.t -> Subst.set

type kind = Required | Optional

(* ---- work counters (deterministic; sampled by Simulate.metrics) ----
   Domain-local with merge-on-read: each domain bumps its own cell, so
   rule evaluation sharded across domains never races; [total] is exact
   whenever no worker domain is mid-window (the only time harnesses
   sample). *)

module Counter = Xchange_core.Domain_local.Counter

let c_compiled = Counter.create ()
let c_fingerprint_pruned = Counter.create ()
let c_arity_pruned = Counter.create ()

let compiled_count () = Counter.total c_compiled
let fingerprint_pruned () = Counter.total c_fingerprint_pruned
let arity_pruned () = Counter.total c_arity_pruned

(* ---- compile-time analysis ---------------------------------------- *)

(* Selectivity of a child pattern, for most-selective-first ordering in
   the unordered assignment search: patterns that can only match few
   data children fail (or commit) early, cutting the branching factor
   near the root of the search tree.  Lower = more selective. *)
let rec selectivity = function
  | Qterm.Leaf (Qterm.Text_is _ | Qterm.Num_is _ | Qterm.Bool_is _) -> 0
  | Qterm.El { Qterm.label = Qterm.L _; _ } -> 1
  | Qterm.Leaf (Qterm.Regex _) -> 2
  | Qterm.Leaf Qterm.Leaf_any -> 3
  | Qterm.El _ -> 4
  | Qterm.As (_, q) -> selectivity q
  | Qterm.Desc _ -> 5
  | Qterm.Var _ -> 6

(* Required-label fingerprint: the multiset of exact element labels the
   required children demand, run-length encoded as a sorted
   (label, count) list. *)
let label_fingerprint required =
  let labels = List.filter_map Qterm.exact_label required in
  let sorted = List.sort String.compare labels in
  let rec rle = function
    | [] -> []
    | l :: rest ->
        let same, rest' = List.partition (String.equal l) rest in
        (l, 1 + List.length same) :: rle rest'
  in
  rle sorted

(* The element children carrying label [l], in document order. *)
let with_label l data =
  List.filter
    (function
      | Term.Elem e -> String.equal e.Term.label l
      | Term.Text _ | Term.Num _ | Term.Bool _ -> false)
    data

(* One pass over the data children per demanded label, stopping once
   the label's count is met.  Only called when the fingerprint is
   non-empty. *)
let fingerprint_ok fp data =
  let rec enough l need = function
    | _ when need = 0 -> true
    | [] -> false
    | Term.Elem e :: rest when String.equal e.Term.label l -> enough l (need - 1) rest
    | _ :: rest -> enough l need rest
  in
  List.for_all (fun (l, need) -> enough l need data) fp

(* ---- children matching (same alternatives as Simulate) ------------- *)

let match_children ~unordered ~total (patterns : (code * kind) list) data subst =
  match (unordered, total) with
  | false, true ->
      (* ordered, total: alignment covering every data child; optional
         patterns may be skipped *)
      let rec go ps ds subst =
        match (ps, ds) with
        | [], [] -> [ subst ]
        | (p, kind) :: ps', d :: ds' ->
            let used = List.concat_map (fun s -> go ps' ds' s) (p d subst) in
            let skipped = match kind with Optional -> go ps' ds subst | Required -> [] in
            used @ skipped
        | ((_, Optional) :: ps'), [] -> go ps' [] subst
        | ((_, Required) :: _), [] | [], _ :: _ -> []
      in
      go patterns data subst
  | false, false ->
      (* ordered, partial: order-preserving injection (subsequence);
         optional patterns may additionally be skipped outright *)
      let rec go ps ds subst =
        match (ps, ds) with
        | [], _ -> [ subst ]
        | ((_, Optional) :: ps'), [] -> go ps' [] subst
        | ((_, Required) :: _), [] -> []
        | ((p, kind) :: ps'), (d :: ds') ->
            let used = List.concat_map (fun s -> go ps' ds' s) (p d subst) in
            let skipped_data = go ps ds' subst in
            let skipped_pattern =
              match kind with Optional -> go ps' (d :: ds') subst | Required -> []
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
                      (p d subst)
                  in
                  pick (d :: before) after' (solutions @ acc)
            in
            let used = pick [] ds [] in
            let skipped = match kind with Optional -> go ps' ds subst | Required -> [] in
            used @ skipped
      in
      go patterns data subst

(* ---- compilation --------------------------------------------------- *)

let rec compile_code (q : Qterm.t) : code =
  match q with
  | Qterm.Var v -> (
      fun t s ->
        match Subst.add v (Term.strip_ids t) s with Some s -> [ s ] | None -> [])
  | Qterm.As (v, q') ->
      let k = compile_code q' in
      fun t s ->
        (match Subst.add v (Term.strip_ids t) s with Some s -> k t s | None -> [])
  | Qterm.Leaf pat -> compile_leaf pat
  | Qterm.Desc q' ->
      let k = compile_code q' in
      fun t s ->
        (* accumulate over the whole subtree, dedup once at the top:
           per-level dedup + append is O(depth * n^2) on deep documents *)
        let rec go acc t =
          let acc = List.rev_append (k t s) acc in
          List.fold_left go acc (Term.children t)
        in
        Subst.dedup (go [] t)
  | Qterm.El ep -> compile_elem ep

and compile_leaf pat : code =
  match pat with
  | Qterm.Leaf_any -> (
      fun t s ->
        match t with
        | Term.Text _ | Term.Num _ | Term.Bool _ -> [ s ]
        | Term.Elem _ -> [])
  | Qterm.Text_is x -> (
      fun t s ->
        match Term.as_text t with
        | Some y when String.equal x y -> [ s ]
        | Some _ | None -> [])
  | Qterm.Num_is f -> (
      fun t s ->
        match Term.as_num t with
        | Some f' when Float.equal f f' -> [ s ]
        | Some _ | None -> [])
  | Qterm.Bool_is b -> (
      fun t s ->
        match t with
        | Term.Bool b' when Bool.equal b b' -> [ s ]
        | Term.Bool _ | Term.Text _ | Term.Num _ | Term.Elem _ -> [])
  | Qterm.Regex r ->
      (* compiled once per plan, anchored so a match must span the whole
         leaf text; lazy so an invalid regex in a never-visited branch
         raises exactly where the interpreter would (first leaf visit) *)
      let re = lazy (Re.compile (Re.whole_string (Re.Pcre.re r))) in
      fun t s ->
        (match Term.as_text t with
        | Some x when Re.execp (Lazy.force re) x -> [ s ]
        | Some _ | None -> [])

and compile_elem (ep : Qterm.elem_pat) : code =
  let label_code : string -> Subst.t -> Subst.set =
    match ep.Qterm.label with
    | Qterm.L l -> fun label s -> if String.equal l label then [ s ] else []
    | Qterm.L_any -> fun _ s -> [ s ]
    | Qterm.L_var v -> (
        fun label s ->
          match Subst.add v (Term.text label) s with Some s -> [ s ] | None -> [])
  in
  let attr_codes =
    List.map
      (fun (key, pat) ->
        match pat with
        | Qterm.A_any ->
            fun attrs s -> if List.mem_assoc key attrs then [ s ] else []
        | Qterm.A_is x -> (
            fun attrs s ->
              match List.assoc_opt key attrs with
              | Some y when String.equal x y -> [ s ]
              | Some _ | None -> [])
        | Qterm.A_var v -> (
            fun attrs s ->
              match List.assoc_opt key attrs with
              | Some y -> (
                  match Subst.add v (Term.text y) s with Some s -> [ s ] | None -> [])
              | None -> []))
      ep.Qterm.attrs
  in
  (* children pre-split once: positives (with kind) in source order,
     negatives compiled separately *)
  let pats_src =
    List.filter_map
      (function
        | Qterm.Pos q -> Some (q, Required)
        | Qterm.Opt q -> Some (q, Optional)
        | Qterm.Without _ -> None)
      ep.Qterm.children
  in
  let negatives =
    List.filter_map
      (function Qterm.Without q -> Some (compile_code q) | Qterm.Pos _ | Qterm.Opt _ -> None)
      ep.Qterm.children
  in
  let compiled = List.map (fun (q, k) -> (compile_code q, k, selectivity q)) pats_src in
  let ordered_pats = List.map (fun (c, k, _) -> (c, k)) compiled in
  (* unordered matching is invariant under pattern permutation (injective
     assignment; dedup'd set semantics), so search most-selective-first *)
  let unordered_pats =
    List.stable_sort (fun (_, _, a) (_, _, b) -> Int.compare a b) compiled
    |> List.map (fun (c, k, _) -> (c, k))
  in
  (* label-partitioned unordered strategy: when every positive child
     pattern is required and demands an exact element label, a pattern
     can only consume children carrying its label — so the global
     injective-assignment search decomposes into independent per-label
     searches (substitutions threaded across groups for shared
     variables).  Decided here, once, from the pattern shape alone. *)
  let label_groups : (string * (code * kind) list) list option =
    let exact_labels =
      List.map (fun (q, k) -> (Qterm.exact_label q, k)) pats_src
    in
    if
      pats_src = []
      || List.exists (fun (l, k) -> l = None || k = Optional) exact_labels
    then None
    else
      let tagged =
        List.map2
          (fun (l, _) (c, k, _) -> (Option.get l, (c, k)))
          exact_labels compiled
      in
      let rec group = function
        | [] -> []
        | (l, c) :: rest ->
            let same, other = List.partition (fun (l', _) -> String.equal l l') rest in
            (l, c :: List.map snd same) :: group other
      in
      Some (group tagged)
  in
  let has_optionals = List.exists (fun (_, k) -> k = Optional) ordered_pats in
  let n_patterns = List.length ordered_pats in
  let n_required = List.length (List.filter (fun (_, k) -> k = Required) ordered_pats) in
  let pat_unordered = ep.Qterm.ord = Term.Unordered in
  let total = ep.Qterm.spec = Qterm.Total in
  let fingerprint =
    label_fingerprint (List.filter_map (fun (q, k) -> if k = Required then Some q else None) pats_src)
  in
  fun t subst ->
    match t with
    | Term.Text _ | Term.Num _ | Term.Bool _ -> []
    | Term.Elem e -> (
        match label_code e.Term.label subst with
        | [] -> []
        | after_label -> (
            let after_attrs =
              List.fold_left
                (fun substs ac -> List.concat_map (ac e.Term.attrs) substs)
                after_label attr_codes
            in
            match after_attrs with
            | [] -> []
            | _ ->
                let data = e.Term.children in
                (* arity bounds: each required pattern consumes a distinct
                   data child in every mode; under Total every data child
                   must be consumed by some pattern *)
                let ndata = List.length data in
                if n_required > ndata || (total && ndata > n_patterns) then begin
                  Counter.incr c_arity_pruned;
                  []
                end
                else if fingerprint <> [] && not (fingerprint_ok fingerprint data) then begin
                  Counter.incr c_fingerprint_pruned;
                  []
                end
                else
                  let unordered = pat_unordered || e.Term.ord = Term.Unordered in
                  let after_children =
                    match (unordered, label_groups) with
                    | true, Some groups ->
                        (* leaves can match no exact-labelled pattern, so
                           under Total any leaf child refutes outright *)
                        if
                          total
                          && List.exists
                               (function
                                 | Term.Elem _ -> false
                                 | Term.Text _ | Term.Num _ | Term.Bool _ -> true)
                               data
                        then []
                        else
                          (* thread substitutions through the per-label
                             searches, each over the children carrying its
                             label in document order; a group that cannot
                             be satisfied (count mismatch) refutes the
                             whole element *)
                          let rec across groups substs =
                            match (groups, substs) with
                            | _, [] -> []
                            | [], _ -> substs
                            | (l, pats) :: rest, _ ->
                                let ds = with_label l data in
                                let np = List.length pats and nd = List.length ds in
                                if (if total then nd <> np else nd < np) then []
                                else
                                  across rest
                                    (List.concat_map
                                       (fun s ->
                                         match_children ~unordered:true ~total pats ds s)
                                       substs)
                          in
                          (* Total coverage: the arity prune above left
                             [ndata = n_patterns] (no optionals here), so
                             per-group count equality forces every child
                             to belong to some group; assert the invariant
                             rather than assume it *)
                          if total && ndata <> n_patterns then []
                          else across groups after_attrs
                    | true, None ->
                        List.concat_map
                          (fun s -> match_children ~unordered:true ~total unordered_pats data s)
                          after_attrs
                    | false, _ ->
                        List.concat_map
                          (fun s -> match_children ~unordered:false ~total ordered_pats data s)
                          after_attrs
                  in
                  let answers =
                    match negatives with
                    | [] -> after_children
                    | _ ->
                        List.filter
                          (fun s ->
                            List.for_all
                              (fun nc -> not (List.exists (fun c -> nc c s <> []) data))
                              negatives)
                          after_children
                  in
                  if has_optionals then Subst.maximal_only (Subst.dedup answers)
                  else answers))

(* ---- plans ---------------------------------------------------------- *)

type t = {
  root : code;  (** the query matched at a node *)
  inner : code;  (** the desc-peeled query, for anywhere-matching *)
}

let compile q =
  Counter.incr c_compiled;
  let peeled = Qterm.peel_desc q in
  let root = compile_code q in
  let inner = if peeled == q then root else compile_code peeled in
  { root; inner }

let matches ?(seed = Subst.empty) p t = Subst.dedup (p.root t seed)

let matches_anywhere ?(seed = Subst.empty) p t =
  let rec go acc t =
    let acc = List.rev_append (p.inner t seed) acc in
    List.fold_left go acc (Term.children t)
  in
  Subst.dedup (go [] t)
