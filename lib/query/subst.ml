open Xchange_data

module M = Map.Make (String)

type t = Term.t M.t

let empty = M.empty
let is_empty = M.is_empty
let cardinal = M.cardinal
let domain s = List.map fst (M.bindings s)
let find v s = M.find_opt v s

let add v term s =
  match M.find_opt v s with
  | Some existing -> if Term.equal existing term then Some s else None
  | None -> Some (M.add v term s)

(* Rebuild so the tree shape is a function of the content alone: a
   balanced map's internal shape depends on the operation sequence that
   produced it, and merge order varies between evaluators (the indexed
   join grows tuples pivot-outward, the backward one left-to-right).
   Folding the ascending bindings into an empty map makes extensionally
   equal substitutions structurally identical, so polymorphic
   equality/hashing on values containing substitutions stays honest. *)
let canonical s = M.fold M.add s M.empty

let merge a b =
  let exception Conflict in
  try
    Some
      (canonical
         (M.union
            (fun _ x y -> if Term.equal x y then Some x else raise Conflict)
            a b))
  with Conflict -> None

let of_list l =
  List.fold_left
    (fun acc (v, t) -> Option.bind acc (add v t))
    (Some empty) l

let to_list s = M.bindings s
let restrict vars s = M.filter (fun v _ -> List.mem v vars) s
let compare a b = M.compare Term.compare a b
let equal a b = compare a b = 0

let pp ppf s =
  let pp_binding ppf (v, t) = Fmt.pf ppf "%s=%a" v Term.pp t in
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma pp_binding) (to_list s)

type set = t list

let set_empty = []
let set_single s = [ s ]

(* Deduplication is the inner loop of matching ([Simulate.match_desc]
   calls it at every node).  Full [Term.compare]-based sorting of a
   duplicate-heavy list does O(n log n) deep comparisons; instead,
   bucket by a cheap canonical fingerprint (variable names + extensional
   term digests), keep one representative per distinct substitution
   (verified by [equal] within a bucket, so digest collisions cannot
   drop answers), and sort only the survivors.  Small lists keep the
   direct sort — fewer allocations. *)
let hash s =
  M.fold
    (fun v t acc -> (acc * 31) + Hashtbl.hash v + Term.digest t)
    s 17

let fingerprint = hash

let dedup set =
  match set with
  | [] | [ _ ] -> set
  | _ when List.compare_length_with set 16 <= 0 -> List.sort_uniq compare set
  | _ ->
      let buckets = Hashtbl.create 64 in
      let uniq =
        List.fold_left
          (fun acc s ->
            let k = fingerprint s in
            let bucket =
              match Hashtbl.find_opt buckets k with Some b -> b | None -> []
            in
            if List.exists (fun s' -> equal s s') bucket then acc
            else begin
              Hashtbl.replace buckets k (s :: bucket);
              s :: acc
            end)
          [] set
      in
      List.sort compare uniq

let union a b = dedup (a @ b)

(* Optional subterms bind "when possible": an answer that is a strict
   sub-binding of another answer only exists because an optional pattern
   was skipped although it could match — drop it. *)
let maximal_only answers =
  match answers with
  | [] | [ _ ] -> answers
  | _ ->
      (* when every answer binds the same number of variables no answer
         can be a strict sub-binding of another — skip the O(n^2) scan *)
      let cards = List.map cardinal answers in
      let mn = List.fold_left min max_int cards and mx = List.fold_left max 0 cards in
      if mn = mx then answers
      else
        let subsumed_by bigger smaller =
          (not (equal bigger smaller))
          && cardinal smaller < cardinal bigger
          && equal (restrict (domain smaller) bigger) smaller
        in
        List.filter
          (fun s -> not (List.exists (fun s' -> subsumed_by s' s) answers))
          answers

let join a b =
  List.concat_map (fun sa -> List.filter_map (fun sb -> merge sa sb) b) a |> dedup

let pp_set ppf set = Fmt.pf ppf "[%a]" Fmt.(list ~sep:semi pp) set
