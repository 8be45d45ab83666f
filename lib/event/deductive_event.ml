open Xchange_query

type rule = {
  name : string;
  derived_label : string;
  trigger : Event_query.t;
  payload : Construct.t;
}

type program = rule list

type compiled_rule = { spec : rule; engine : Incremental.t }

type t = {
  rules : compiled_rule list;  (* in stratum order *)
  fresh_id : (unit -> int) option;
      (* derived-event id allocator, typically the owning node's origin
         lane — deterministic under domain sharding.  [None] falls back
         to the global [Event] counter. *)
}

let rule ~name ~derives ~trigger ~payload = { name; derived_label = derives; trigger; payload }

let trigger_labels q =
  Event_query.atoms q
  |> List.map (fun (a : Event_query.atomic) -> Option.value ~default:"*" a.Event_query.label)
  |> List.sort_uniq String.compare

let dependencies program =
  List.map (fun r -> (r.derived_label, trigger_labels r.trigger)) program

(* Stratify: order rules so that each rule only depends on external
   labels or labels derived by earlier strata.  Fails on cycles. *)
let stratify program =
  let derived = List.sort_uniq String.compare (List.map (fun r -> r.derived_label) program) in
  let depends_on_derived r =
    let labels = trigger_labels r.trigger in
    if List.mem "*" labels then derived (* wildcard depends on everything *)
    else List.filter (fun l -> List.mem l derived) labels
  in
  let rec order placed_labels placed remaining =
    if remaining = [] then Ok (List.rev placed)
    else
      let ready, blocked =
        List.partition
          (fun r ->
            List.for_all (fun l -> List.mem l placed_labels) (depends_on_derived r))
          remaining
      in
      match ready with
      | [] ->
          Error
            (Fmt.str "recursive event derivation involving: %s"
               (String.concat ", " (List.map (fun r -> r.name) blocked)))
      | _ ->
          let new_labels =
            List.sort_uniq String.compare
              (placed_labels @ List.map (fun r -> r.derived_label) ready)
          in
          order new_labels (List.rev_append ready placed) blocked
  in
  (* a rule deriving a label its own trigger mentions is immediately
     recursive even if stratification by sets would pass *)
  let self_recursive =
    List.filter
      (fun r ->
        let labels = trigger_labels r.trigger in
        List.mem r.derived_label labels || List.mem "*" labels)
      program
  in
  match self_recursive with
  | r :: _ -> Error (Fmt.str "recursive event derivation: rule %s triggers on its own output" r.name)
  | [] -> order [] [] program

let compile ?horizon ?index ?share ?share_sub ?fresh_id program =
  match stratify program with
  | Error e -> Error e
  | Ok ordered ->
      let rec build acc = function
        | [] -> Ok { rules = List.rev acc; fresh_id }
        | r :: rest -> (
            match Incremental.create ?horizon ?index ?share ?share_sub r.trigger with
            | Error e -> Error (Fmt.str "rule %s: %s" r.name e)
            | Ok engine -> build ({ spec = r; engine } :: acc) rest)
      in
      build [] ordered

let derive ?fresh_id cr (detection : Instance.t) =
  match Construct.instantiate cr.spec.payload detection.Instance.subst [ detection.Instance.subst ] with
  | Error _ -> None
  | Ok payload ->
      let id = Option.map (fun f -> f ()) fresh_id in
      Some
        (Event.make ?id
           ~sender:("derived:" ^ cr.spec.name)
           ~occurred_at:detection.Instance.t_end ~label:cr.spec.derived_label payload)

(* Feed an input through all rule engines; derived events cascade to
   later strata (and only later ones — stratification guarantees no rule
   needs its own output). *)
let run t inject =
  let derived_acc = ref [] in
  let rec cascade rules pending_inputs =
    match rules with
    | [] -> ()
    | cr :: rest ->
        let detections =
          List.concat_map
            (fun input ->
              match input with
              | `Ev e -> Incremental.feed cr.engine e
              | `Now time -> Incremental.advance_to cr.engine time)
            pending_inputs
        in
        let new_events = List.filter_map (derive ?fresh_id:t.fresh_id cr) detections in
        derived_acc := !derived_acc @ new_events;
        cascade rest (pending_inputs @ List.map (fun e -> `Ev e) new_events)
  in
  cascade t.rules [ inject ];
  !derived_acc

let feed t e = run t (`Ev e)
let advance_to t time = run t (`Now time)

let next_deadline t =
  List.fold_left
    (fun acc cr ->
      match (acc, Incremental.next_deadline cr.engine) with
      | None, d | d, None -> d
      | Some a, Some b -> Some (min a b))
    None t.rules

let join_stats t =
  Incremental.sum_join_stats (List.map (fun cr -> Incremental.join_stats cr.engine) t.rules)
