open Xchange_query

type rule = {
  name : string;
  derived_label : string;
  trigger : Event_query.t;
  payload : Construct.t;
}

type program = rule list

let rule ~name ~derives ~trigger ~payload = { name; derived_label = derives; trigger; payload }

let trigger_labels q =
  Event_query.atoms q
  |> List.map (fun (a : Event_query.atomic) -> Option.value ~default:"*" a.Event_query.label)
  |> List.sort_uniq String.compare

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
