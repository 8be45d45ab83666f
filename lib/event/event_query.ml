open Xchange_query

type t =
  | Atomic of atomic
  | And of t list
  | Or of t list
  | Seq of t list
  | Within of t * Clock.span
  | Absent of t * t * Clock.span
  | Times of int * t * Clock.span
  | Agg of agg_spec
  | Rises of rises_spec

and atomic = { label : string option; pattern : Qterm.t; sender : string option }

and agg_spec = {
  over : t;
  var : string;
  window : int;
  op : Construct.agg;
  bind : string;
}

and rises_spec = {
  r_over : t;
  r_var : string;
  r_window : int;
  r_ratio : float;
  r_bind : string;
}

let on ?sender ?label pattern = Atomic { label; pattern; sender }
let conj qs = And qs
let disj qs = Or qs
let seq qs = Seq qs
let within q span = Within (q, span)
let absent q ~then_absent ~for_ = Absent (q, then_absent, for_)
let times n q span = Times (n, q, span)

let rec vars = function
  | Atomic a -> Qterm.vars a.pattern
  | And qs | Or qs | Seq qs -> List.concat_map vars qs
  | Within (q, _) -> vars q
  | Absent (q, _, _) -> vars q (* the absent part never exports bindings *)
  | Times (_, q, _) -> vars q
  | Agg spec -> spec.bind :: vars spec.over
  | Rises spec -> spec.r_bind :: vars spec.r_over

let vars q = List.sort_uniq String.compare (vars q)

let rec atoms = function
  | Atomic a -> [ a ]
  | And qs | Or qs | Seq qs -> List.concat_map atoms qs
  | Within (q, _) | Times (_, q, _) -> atoms q
  | Absent (q1, q2, _) -> atoms q1 @ atoms q2
  | Agg spec -> atoms spec.over
  | Rises spec -> atoms spec.r_over

let rec has_timers = function
  | Atomic _ -> false
  | And qs | Or qs | Seq qs -> List.exists has_timers qs
  | Within (q, _) | Times (_, q, _) -> has_timers q
  | Absent _ -> true
  | Agg spec -> has_timers spec.over
  | Rises spec -> has_timers spec.r_over

let rec has_accumulators = function
  | Atomic _ -> false
  | And qs | Or qs | Seq qs -> List.exists has_accumulators qs
  | Within (q, _) | Times (_, q, _) -> has_accumulators q
  | Absent (q1, q2, _) -> has_accumulators q1 || has_accumulators q2
  | Agg _ | Rises _ -> true

(* Canonical variable renaming: variables are numbered by first
   occurrence in a deterministic traversal (operator structure, then
   each atomic pattern's syntactic order), so queries equal up to
   variable names share one canonical form — the unit of cross-rule
   join-state sharing (the beta network).  Returns the renamed query and
   the canonical -> original name mapping; the mapping is a bijection,
   so a subscriber can rename shared answers back without loss. *)
let canonicalize q =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  let canon v =
    match Hashtbl.find_opt tbl v with
    | Some c -> c
    | None ->
        let c = Printf.sprintf "v%d" (Hashtbl.length tbl) in
        Hashtbl.add tbl v c;
        order := (c, v) :: !order;
        c
  in
  let rec go = function
    | Atomic a -> Atomic { a with pattern = Qterm.map_vars canon a.pattern }
    | And qs -> And (go_list qs)
    | Or qs -> Or (go_list qs)
    | Seq qs -> Seq (go_list qs)
    | Within (q, s) -> Within (go q, s)
    | Absent (q1, q2, s) ->
        let q1 = go q1 in
        let q2 = go q2 in
        Absent (q1, q2, s)
    | Times (n, q, s) -> Times (n, go q, s)
    | Agg spec ->
        let over = go spec.over in
        Agg { spec with over; var = canon spec.var; bind = canon spec.bind }
    | Rises spec ->
        let r_over = go spec.r_over in
        Rises { spec with r_over; r_var = canon spec.r_var; r_bind = canon spec.r_bind }
  and go_list qs = List.rev (List.rev_map go qs) (* left-to-right, explicitly *)
  in
  let q' = go q in
  (q', List.rev !order)

(* An atomic instance below an unbounded composition must be kept
   forever; below Within/Times/Absent it can be discarded once older
   than the window. *)
let rec max_window = function
  | Atomic _ -> Some 0
  | And qs | Or qs | Seq qs ->
      let ws = List.map max_window qs in
      if List.exists Option.is_none ws then None
      else if qs = [] then Some 0
      else None (* composition without a window bound is unbounded *)
  | Within (_, span) ->
      (* constituents are only relevant while inside the window *)
      Some span
  | Absent (q1, q2, span) -> (
      match (max_window q1, max_window q2) with
      | Some w1, Some w2 -> Some (max span (max w1 w2) + span)
      | _, _ -> None)
  | Times (_, q, span) -> (
      match max_window q with Some w -> Some (span + w) | None -> None)
  | Agg spec -> max_window spec.over
  | Rises spec -> max_window spec.r_over

let ( let* ) = Result.bind

let rec validate = function
  | Atomic a -> Qterm.validate a.pattern
  | And qs | Or qs | Seq qs ->
      if qs = [] then Error "empty composition"
      else
        List.fold_left
          (fun acc q ->
            let* () = acc in
            validate q)
          (Ok ()) qs
  | Within (q, span) -> if span < 0 then Error "negative window" else validate q
  | Absent (q1, q2, span) ->
      if span <= 0 then Error "absence needs a positive window"
      else
        let* () = validate q1 in
        validate q2
  | Times (n, q, span) ->
      if n < 1 then Error "times: n must be >= 1"
      else if span <= 0 then Error "times: window must be positive"
      else validate q
  | Agg spec ->
      if spec.window < 1 then Error "agg: window must be >= 1"
      else if not (List.mem spec.var (vars spec.over)) then
        Error (Fmt.str "agg: variable %s is not bound by the source query" spec.var)
      else if List.mem spec.bind (vars spec.over) then
        Error (Fmt.str "agg: binder %s collides with a source variable" spec.bind)
      else validate spec.over
  | Rises spec ->
      if spec.r_window < 1 then Error "rises: window must be >= 1"
      else if not (List.mem spec.r_var (vars spec.r_over)) then
        Error (Fmt.str "rises: variable %s is not bound by the source query" spec.r_var)
      else if List.mem spec.r_bind (vars spec.r_over) then
        Error (Fmt.str "rises: binder %s collides with a source variable" spec.r_bind)
      else validate spec.r_over

let pp_agg_op ppf op =
  Fmt.string ppf
    (match op with
    | Construct.Count -> "count"
    | Construct.Sum -> "sum"
    | Construct.Avg -> "avg"
    | Construct.Min -> "min"
    | Construct.Max -> "max")

let rec pp ppf = function
  | Atomic a ->
      let pp_label ppf = function Some l -> Fmt.pf ppf "%s:" l | None -> () in
      let pp_sender ppf = function Some s -> Fmt.pf ppf " from %S" s | None -> () in
      Fmt.pf ppf "%a%a%a" pp_label a.label Qterm.pp a.pattern pp_sender a.sender
  | And qs -> Fmt.pf ppf "and(@[%a@])" Fmt.(list ~sep:comma pp) qs
  | Or qs -> Fmt.pf ppf "or(@[%a@])" Fmt.(list ~sep:comma pp) qs
  | Seq qs -> Fmt.pf ppf "seq(@[%a@])" Fmt.(list ~sep:comma pp) qs
  | Within (q, s) -> Fmt.pf ppf "(%a within %a)" pp q Clock.pp_span s
  | Absent (q1, q2, s) ->
      Fmt.pf ppf "(%a andthen absent %a for %a)" pp q1 pp q2 Clock.pp_span s
  | Times (n, q, s) -> Fmt.pf ppf "(%d times %a within %a)" n pp q Clock.pp_span s
  | Agg spec ->
      Fmt.pf ppf "(%a($%s) over last %d of %a as $%s)" pp_agg_op spec.op spec.var spec.window
        pp spec.over spec.bind
  | Rises spec ->
      Fmt.pf ppf "(avg($%s) over last %d of %a rises by %g as $%s)" spec.r_var spec.r_window
        pp spec.r_over (spec.r_ratio -. 1.) spec.r_bind
