open Xchange_data

type label_pat = L of string | L_var of string | L_any

type leaf_pat =
  | Leaf_any
  | Text_is of string
  | Num_is of float
  | Bool_is of bool
  | Regex of string

type attr_pat = A_is of string | A_var of string | A_any

type spec = Total | Partial

type t =
  | Var of string
  | As of string * t
  | Leaf of leaf_pat
  | El of elem_pat
  | Desc of t

and elem_pat = {
  label : label_pat;
  attrs : (string * attr_pat) list;
  ord : Term.ordering;
  spec : spec;
  children : child list;
}

and child = Pos of t | Without of t | Opt of t

let var v = Var v
let ( @: ) v q = As (v, q)
let txt s = Leaf (Text_is s)
let numq f = Leaf (Num_is f)
let regex r = Leaf (Regex r)
let anyleaf = Leaf Leaf_any

let el ?(ord = Term.Unordered) ?(spec = Partial) ?(attrs = []) label children =
  El { label = L label; attrs; ord; spec; children }

let pos q = Pos q
let without q = Without q
let opt q = Opt q
let children_pos qs = List.map pos qs
let desc q = Desc q

let rec vars_acc ~positive acc = function
  | Var v -> if positive then v :: acc else acc
  | As (v, q) -> vars_acc ~positive (if positive then v :: acc else acc) q
  | Leaf _ -> acc
  | Desc q -> vars_acc ~positive acc q
  | El e ->
      let acc =
        match e.label with
        | L_var v when positive -> v :: acc
        | L_var _ | L _ | L_any -> acc
      in
      let acc =
        List.fold_left
          (fun acc (_, ap) ->
            match ap with A_var v when positive -> v :: acc | A_var _ | A_is _ | A_any -> acc)
          acc e.attrs
      in
      List.fold_left
        (fun acc child ->
          match child with
          | Pos q | Opt q -> vars_acc ~positive acc q
          | Without q -> vars_acc ~positive:false acc q)
        acc e.children

let vars q = List.sort_uniq String.compare (vars_acc ~positive:true [] q)

(* Rename every variable occurrence — [Var], [As] binders, label and
   attribute variables, including those under [Without]/[Opt] — through
   [f], preserving structure.  Traversal is syntactic (label, then
   attributes in list order, then children in order), so a renaming
   function allocating names on first use produces a deterministic
   canonical form (the beta network's alpha-renaming). *)
let rec map_vars f = function
  | Var v -> Var (f v)
  | As (v, q) -> As (f v, map_vars f q)
  | Leaf _ as q -> q
  | Desc q -> Desc (map_vars f q)
  | El e ->
      let label =
        match e.label with L_var v -> L_var (f v) | (L _ | L_any) as l -> l
      in
      let attrs =
        List.map
          (fun (k, ap) ->
            (k, match ap with A_var v -> A_var (f v) | (A_is _ | A_any) as a -> a))
          e.attrs
      in
      let children =
        List.map
          (function
            | Pos q -> Pos (map_vars f q)
            | Without q -> Without (map_vars f q)
            | Opt q -> Opt (map_vars f q))
          e.children
      in
      El { e with label; attrs; children }

let key_hash k = Hashtbl.hash_param 256 256 k

module Key = struct
  type nonrec t = t

  let equal = ( = )
  let hash = key_hash
end

(* [matches_anywhere (Desc q)] and [matches_anywhere q] deliver the same
   answer set (the unions over all subterms coincide), so anywhere
   matching can peel outer [Desc] wrappers. *)
let rec peel_desc = function Desc q -> peel_desc q | q -> q

let rec exact_label = function
  | El { label = L l; _ } -> Some l
  | As (_, q) -> exact_label q
  | Var _ | Leaf _ | El _ | Desc _ -> None

let validate q =
  let problems = ref [] in
  let note msg = problems := msg :: !problems in
  let rec go in_without = function
    | Var _ | As (_, Leaf _) -> ()
    | As (_, q) -> go in_without q
    | Leaf (Regex r) -> (
        match Re.Pcre.re r with
        | (_ : Re.t) -> ()
        | exception _ -> note (Fmt.str "invalid regex %S" r))
    | Leaf (Leaf_any | Text_is _ | Num_is _ | Bool_is _) -> ()
    | Desc q -> go in_without q
    | El e ->
        List.iter
          (fun child ->
            match child with
            | Pos q | Opt q -> go in_without q
            | Without q -> go true q)
          e.children
  in
  go false q;
  (* Variables under Without must also occur positively somewhere, else
     they could never receive a binding. *)
  let positive = vars q in
  let rec collect_neg acc = function
    | Var _ | Leaf _ -> acc
    | As (_, q) | Desc q -> collect_neg acc q
    | El e ->
        List.fold_left
          (fun acc child ->
            match child with
            | Pos q | Opt q -> collect_neg acc q
            | Without q -> vars_acc ~positive:true acc q)
          acc e.children
  in
  let neg_vars = List.sort_uniq String.compare (collect_neg [] q) in
  List.iter
    (fun v ->
      if not (List.mem v positive) then
        note (Fmt.str "variable %s occurs only under 'without'" v))
    neg_vars;
  match !problems with [] -> Ok () | p :: _ -> Error p

let pp_label ppf = function
  | L s -> Fmt.string ppf s
  | L_var v -> Fmt.pf ppf "var %s~" v
  | L_any -> Fmt.string ppf "*"

let pp_attr ppf (k, ap) =
  match ap with
  | A_is v -> Fmt.pf ppf "@%s=%S" k v
  | A_var v -> Fmt.pf ppf "@%s=var %s" k v
  | A_any -> Fmt.pf ppf "@%s" k

let rec pp ppf = function
  | Var v -> Fmt.pf ppf "var %s" v
  | As (v, q) -> Fmt.pf ppf "var %s -> %a" v pp q
  | Leaf Leaf_any -> Fmt.string ppf "_"
  | Leaf (Text_is s) -> Fmt.pf ppf "%S" s
  | Leaf (Num_is f) -> Fmt.float ppf f
  | Leaf (Bool_is b) -> Fmt.bool ppf b
  | Leaf (Regex r) -> Fmt.pf ppf "/%s/" r
  | Desc q -> Fmt.pf ppf "desc %a" pp q
  | El e ->
      let o, c =
        match (e.spec, e.ord) with
        | Total, Term.Ordered -> ("[", "]")
        | Total, Term.Unordered -> ("{", "}")
        | Partial, Term.Ordered -> ("[[", "]]")
        | Partial, Term.Unordered -> ("{{", "}}")
      in
      let items =
        List.map (fun (k, ap) -> Fmt.str "%a" pp_attr (k, ap)) e.attrs
        @ List.map
            (fun child ->
              match child with
              | Pos q -> Fmt.str "%a" pp q
              | Without q -> Fmt.str "without %a" pp q
              | Opt q -> Fmt.str "optional %a" pp q)
            e.children
      in
      Fmt.pf ppf "@[<hv 2>%a%s%a%s@]" pp_label e.label o
        Fmt.(list ~sep:comma string)
        items c
