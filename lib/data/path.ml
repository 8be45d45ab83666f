type t = int list
type axis = Child | Descendant
type step = Any | Tag of string
type selector = (axis * step) list

let root = []

let pp ppf p = Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any ";") int) p

let pp_step ppf = function Any -> Fmt.string ppf "*" | Tag s -> Fmt.string ppf s

let pp_selector ppf sel =
  List.iter
    (fun (axis, step) ->
      Fmt.string ppf (match axis with Child -> "/" | Descendant -> "//");
      pp_step ppf step)
    sel

let parse_selector s =
  let n = String.length s in
  let rec steps i acc =
    if i >= n then Ok (List.rev acc)
    else if s.[i] <> '/' then Error (Fmt.str "expected '/' at position %d in %S" i s)
    else
      let axis, i = if i + 1 < n && s.[i + 1] = '/' then (Descendant, i + 2) else (Child, i + 1) in
      let j = ref i in
      while !j < n && s.[!j] <> '/' do incr j done;
      let name = String.sub s i (!j - i) in
      if name = "" then Error (Fmt.str "empty step at position %d in %S" i s)
      else
        let step = if name = "*" then Any else Tag name in
        steps !j ((axis, step) :: acc)
  in
  if s = "" || s = "/" then Ok [] else steps 0 []

let step_matches step t =
  match (step, t) with
  | Any, _ -> true
  | Tag name, Term.Elem e -> String.equal name e.Term.label
  | Tag _, (Term.Text _ | Term.Num _ | Term.Bool _) -> false

let get doc path =
  let rec go t = function
    | [] -> Some t
    | i :: rest -> (
        match List.nth_opt (Term.children t) i with
        | Some c -> go c rest
        | None -> None)
  in
  go doc path

let select doc selector =
  (* Work on reversed paths internally; restore order at the end. *)
  let rec descend_all rpath t acc =
    (* all (rpath', subterm) pairs including t itself *)
    let acc = (rpath, t) :: acc in
    List.fold_left
      (fun (i, acc) c -> (i + 1, descend_all (i :: rpath) c acc))
      (0, acc) (Term.children t)
    |> snd
  in
  let apply (axis, step) (rpath, t) =
    match axis with
    | Child ->
        List.fold_left
          (fun (i, acc) c ->
            (i + 1, if step_matches step c then (i :: rpath, c) :: acc else acc))
          (0, []) (Term.children t)
        |> snd |> List.rev
    | Descendant ->
        descend_all rpath t []
        |> List.rev
        |> List.filter (fun (rp, c) -> rp != rpath && step_matches step c)
  in
  let rec go frontier = function
    | [] -> frontier
    | s :: rest -> go (List.concat_map (apply s) frontier) rest
  in
  go [ ([], doc) ] selector
  |> List.map (fun (rp, t) -> (List.rev rp, t))
  |> List.sort_uniq Stdlib.compare

let update_children t f =
  match t with
  | Term.Elem e -> Option.map (fun cs -> Term.Elem { e with Term.children = cs }) (f e.Term.children)
  | Term.Text _ | Term.Num _ | Term.Bool _ -> None

let rec replace doc path replacement =
  match path with
  | [] -> Some replacement
  | i :: rest ->
      update_children doc (fun cs ->
          match List.nth_opt cs i with
          | None -> None
          | Some c -> (
              match replace c rest replacement with
              | None -> None
              | Some c' -> Some (List.mapi (fun j x -> if j = i then c' else x) cs)))

let rec delete doc path =
  match path with
  | [] -> None
  | [ i ] ->
      update_children doc (fun cs ->
          if i < 0 || i >= List.length cs then None
          else Some (List.filteri (fun j _ -> j <> i) cs))
  | i :: rest ->
      update_children doc (fun cs ->
          match List.nth_opt cs i with
          | None -> None
          | Some c -> (
              match delete c rest with
              | None -> None
              | Some c' -> Some (List.mapi (fun j x -> if j = i then c' else x) cs)))

let insert_child ?at doc path child =
  match get doc path with
  | None | Some (Term.Text _ | Term.Num _ | Term.Bool _) -> None
  | Some (Term.Elem e) ->
      let cs = e.Term.children in
      let pos = match at with None -> List.length cs | Some p -> max 0 (min p (List.length cs)) in
      let before = List.filteri (fun j _ -> j < pos) cs in
      let after = List.filteri (fun j _ -> j >= pos) cs in
      replace doc path (Term.Elem { e with Term.children = before @ (child :: after) })
