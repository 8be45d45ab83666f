(* Subscription index: one hash table of buckets over a dynamic set of
   registered queries.  See sub_index.mli for the layout; the invariant
   everything below maintains is that every live registration sits in
   exactly one bucket, addressable from its key alone — so removal is
   O(1) and lookup never sees the same entry twice. *)

open Xchange_data
open Xchange_obs

(* ---- required-presence analysis ------------------------------------- *)

(* What must any term matched by [q] (rooted, in the sense of
   Plan.matches) contain?  Sound necessary conditions only:

   - [El {label = L l}] consumes an element labelled [l]; its required
     ([Pos]) children each consume one distinct data child in every
     matching mode (the same invariant Plan's per-element fingerprints
     rest on), so sibling requirements add as multisets.
   - [Leaf (Text_is s)] consumes a scalar whose [Term.as_text] is [s].
     [Num_is]/[Bool_is] are NOT collected: [Term.as_num] parses textual
     leaves, so [Num_is 5.] also matches [Text "5."] and a numeric key
     would unsoundly refute it.
   - [Desc q] matches [q] somewhere inside the term, so [q]'s
     requirements still appear within it (at unknown depth — which is
     fine, the lookup side counts the whole term).
   - [Var], [Leaf_any], [Regex], attributes, [Opt] and [Without]
     children, label variables/wildcards: no requirement. *)

(* What the term root must be, when the query (through [As] wrappers,
   but not through [Desc], which relocates the match) pins it. *)
type root = Any | Scalar | Label of string

type shape = {
  query : Qterm.t;
  plan : Plan.t Lazy.t;  (* compiled by the first [matching] that needs it *)
  root : root;
  labels : (string * int) list;  (* required element-label multiset, sorted *)
  leaves : (string * int) list;  (* required leaf-text multiset, sorted *)
  pivot : string option;  (* first required leaf text *)
  mutable refs : int;  (* live registrations sharing this analysis *)
}

let bump tbl k =
  Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let required q =
  let labels = Hashtbl.create 8 and leaves = Hashtbl.create 8 in
  let rec go q =
    match q with
    | Qterm.Var _ | Qterm.Leaf (Qterm.Leaf_any | Qterm.Num_is _ | Qterm.Bool_is _ | Qterm.Regex _)
      ->
        ()
    | Qterm.Leaf (Qterm.Text_is s) -> bump leaves s
    | Qterm.As (_, q) | Qterm.Desc q -> go q
    | Qterm.El e ->
        (match e.label with Qterm.L l -> bump labels l | Qterm.L_var _ | Qterm.L_any -> ());
        List.iter
          (function Qterm.Pos q -> go q | Qterm.Without _ | Qterm.Opt _ -> ())
          e.children
  in
  go q;
  let dump tbl =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  (dump labels, dump leaves)

let rec root_of q =
  match q with
  | Qterm.As (_, q) -> root_of q
  | Qterm.El { label = Qterm.L l; _ } -> Label l
  | Qterm.Leaf _ -> Scalar
  | Qterm.Var _ | Qterm.El _ | Qterm.Desc _ -> Any

let analyse q =
  let labels, leaves = required q in
  {
    query = q;
    plan = lazy (Plan.compile q);
    root = root_of q;
    labels;
    leaves;
    pivot = (match leaves with (s, _) :: _ -> Some s | [] -> None);
    refs = 0;
  }

(* ---- buckets --------------------------------------------------------- *)

(* (event label, root, pivot): [None] for an unlabelled registration or
   one that requires no leaf text *)
type key = string option * root * string option

type 'a entry = { id : int; payload : 'a; key : key; shape : shape }

module Shapes = Hashtbl.Make (Qterm.Key)

type 'a t = {
  buckets : (key, (int, 'a entry) Hashtbl.t) Hashtbl.t;
  entries : (int, 'a entry) Hashtbl.t;
  shapes : shape Shapes.t;  (* one analysis per distinct live query *)
  mutable next_id : int;
  registry : Obs.Metrics.t;
  c_reg : Obs.Metrics.Counter.t;
  c_rem : Obs.Metrics.Counter.t;
  c_lookup : Obs.Metrics.Counter.t;
  c_cand : Obs.Metrics.Counter.t;
  c_refuted : Obs.Metrics.Counter.t;
  c_confirmed : Obs.Metrics.Counter.t;
}

let create ?metrics () =
  let registry = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  let t =
    {
      buckets = Hashtbl.create 16;
      entries = Hashtbl.create 64;
      shapes = Shapes.create 64;
      next_id = 0;
      registry;
      c_reg = Obs.Metrics.counter registry "subindex.registrations";
      c_rem = Obs.Metrics.counter registry "subindex.removals";
      c_lookup = Obs.Metrics.counter registry "subindex.lookups";
      c_cand = Obs.Metrics.counter registry "subindex.candidates";
      c_refuted = Obs.Metrics.counter registry "subindex.refuted";
      c_confirmed = Obs.Metrics.counter registry "subindex.confirmed";
    }
  in
  Obs.Metrics.gauge_fn registry "subindex.entries" (fun () ->
      float_of_int (Hashtbl.length t.entries));
  Obs.Metrics.gauge_fn registry "subindex.shapes" (fun () ->
      float_of_int (Shapes.length t.shapes));
  t

let size t = Hashtbl.length t.entries
let buckets t = Hashtbl.length t.buckets

(* ---- registration / removal ------------------------------------------ *)

let register t ?label q payload =
  let shape =
    match Shapes.find_opt t.shapes q with
    | Some s -> s
    | None ->
        let s = analyse q in
        Shapes.replace t.shapes q s;
        s
  in
  shape.refs <- shape.refs + 1;
  let id = t.next_id in
  t.next_id <- id + 1;
  let key = (label, shape.root, shape.pivot) in
  let entry = { id; payload; key; shape } in
  let bucket =
    match Hashtbl.find_opt t.buckets key with
    | Some b -> b
    | None ->
        let b = Hashtbl.create 4 in
        Hashtbl.replace t.buckets key b;
        b
  in
  Hashtbl.replace bucket id entry;
  Hashtbl.replace t.entries id entry;
  Obs.Metrics.Counter.incr t.c_reg;
  id

let remove t id =
  match Hashtbl.find_opt t.entries id with
  | None -> false
  | Some entry ->
      Hashtbl.remove t.entries id;
      let bucket = Hashtbl.find t.buckets entry.key in
      Hashtbl.remove bucket id;
      if Hashtbl.length bucket = 0 then Hashtbl.remove t.buckets entry.key;
      let shape = entry.shape in
      shape.refs <- shape.refs - 1;
      if shape.refs = 0 then Shapes.remove t.shapes shape.query;
      Obs.Metrics.Counter.incr t.c_rem;
      true

(* ---- lookup ---------------------------------------------------------- *)

(* One traversal of the published term: element-label counts and
   scalar-leaf-text counts — the term-side halves of the fingerprint. *)
let term_counts term =
  let labels = Hashtbl.create 16 and leaves = Hashtbl.create 16 in
  let rec go t =
    match t with
    | Term.Elem e ->
        bump labels e.label;
        List.iter go e.children
    | t -> ( match Term.as_text t with Some s -> bump leaves s | None -> ())
  in
  go term;
  (labels, leaves)

let count tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k)

(* The root is not checked here: the bucket key pins it. *)
let fp_ok shape labels leaves =
  List.for_all (fun (l, n) -> count labels l >= n) shape.labels
  && List.for_all (fun (s, n) -> count leaves s >= n) shape.leaves

(* The keys a term can satisfy: its event label or none, its own root or
   any, each of its distinct leaf texts or no pivot.  Distinct keys name
   distinct buckets and every entry lives in exactly one bucket, so
   [fold] sees each candidate at most once. *)
let fold_candidates t ?label term f acc =
  Obs.Metrics.Counter.incr t.c_lookup;
  let labels, leaves = term_counts term in
  let elabels = match label with None -> [ None ] | Some _ -> [ None; label ] in
  let roots = [ Any; (match term with Term.Elem e -> Label e.label | _ -> Scalar) ] in
  let pivots = None :: Hashtbl.fold (fun s _ acc -> Some s :: acc) leaves [] in
  let refuted = ref 0 in
  let scan acc key =
    match Hashtbl.find_opt t.buckets key with
    | None -> acc
    | Some bucket ->
        Hashtbl.fold
          (fun _ entry acc ->
            if fp_ok entry.shape labels leaves then f acc entry
            else (
              incr refuted;
              acc))
          bucket acc
  in
  let acc =
    List.fold_left
      (fun acc elabel ->
        List.fold_left
          (fun acc root ->
            List.fold_left (fun acc pivot -> scan acc (elabel, root, pivot)) acc pivots)
          acc roots)
      acc elabels
  in
  Obs.Metrics.Counter.incr t.c_refuted ~by:!refuted;
  acc

let by_id (i, _) (j, _) = Int.compare i j

let lookup t ?label term =
  let cands =
    fold_candidates t ?label term (fun acc e -> (e.id, e.payload) :: acc) []
  in
  Obs.Metrics.Counter.incr t.c_cand ~by:(List.length cands);
  List.sort by_id cands

let matching t ?label ?seed term =
  let cands = ref 0 in
  let confirmed =
    fold_candidates t ?label term
      (fun acc e ->
        incr cands;
        match Plan.matches ?seed (Lazy.force e.shape.plan) term with
        | [] -> acc
        | answers -> (e.id, e.payload, answers) :: acc)
      []
  in
  Obs.Metrics.Counter.incr t.c_cand ~by:!cands;
  Obs.Metrics.Counter.incr t.c_confirmed ~by:(List.length confirmed);
  List.sort (fun (i, _, _) (j, _, _) -> Int.compare i j) confirmed

(* ---- stats ----------------------------------------------------------- *)

type stats = {
  registrations : int;
  removals : int;
  lookups : int;
  candidates : int;
  refuted : int;
  confirmed : int;
  entries : int;
  buckets : int;
}

let stats t =
  {
    registrations = Obs.Metrics.Counter.value t.c_reg;
    removals = Obs.Metrics.Counter.value t.c_rem;
    lookups = Obs.Metrics.Counter.value t.c_lookup;
    candidates = Obs.Metrics.Counter.value t.c_cand;
    refuted = Obs.Metrics.Counter.value t.c_refuted;
    confirmed = Obs.Metrics.Counter.value t.c_confirmed;
    entries = size t;
    buckets = buckets t;
  }

let metrics t = t.registry
