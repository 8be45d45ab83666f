open Xchange_query

let ( let* ) = Option.bind

(* The payload matcher is fetched once per history sweep (one plan-cache
   lookup), not once per event. *)
let atomic_matcher (a : Event_query.atomic) =
  let payload_matches = Simulate.matcher a.Event_query.pattern in
  fun e ->
    if not (Incremental.envelope_ok a e) then []
    else
      payload_matches e.Event.payload
      |> List.map (fun subst -> Instance.atomic subst (Event.time e) e.Event.id)

(* Tuples drawn one instance per child, combined; [ordered] additionally
   requires strict temporal order between consecutive constituents. *)
let join_tuples ~ordered per_child =
  match per_child with
  | [] -> []
  | first :: rest ->
      let rec extend acc last = function
        | [] -> [ acc ]
        | instances :: rest' ->
            List.concat_map
              (fun i ->
                if ordered && not (Instance.strictly_before last i) then []
                else
                  match Instance.combine [ acc; i ] with
                  | Some c -> extend c i rest'
                  | None -> [])
              instances
      in
      List.concat_map (fun i -> extend i i rest) first

(* All size-n subsets of [instances] that combine jointly within [span]. *)
let times_subsets n span instances =
  let rec choose acc count pool =
    if count = 0 then [ acc ]
    else
      match pool with
      | [] -> []
      | i :: rest ->
          let with_i =
            match Instance.combine [ acc; i ] with
            | Some c when Instance.span c <= span -> choose c (count - 1) rest
            | Some _ | None -> []
          in
          with_i @ choose acc count rest
  in
  let rec pick_first = function
    | [] -> []
    | i :: rest -> choose i (n - 1) rest @ pick_first rest
  in
  if n = 0 then [] else pick_first instances

(* Arrival order used by accumulation operators. *)
let arrival_sort instances = List.sort Instance.compare instances

let group_key over_vars var subst =
  Subst.restrict (List.filter (fun v -> not (String.equal v var)) over_vars) subst

let numeric_of subst var =
  Option.bind (Subst.find var subst) Xchange_data.Term.as_num

(* guarded: an aggregate over zero values yields no binding, never a
   nan/infinity (mirrors Incremental.reduce) *)
let avg_opt = function
  | [] -> None
  | vals -> Some (List.fold_left ( +. ) 0. vals /. float_of_int (List.length vals))

let reduce op vals =
  match vals with
  | [] -> None
  | _ -> (
      match op with
      | Construct.Count -> Some (float_of_int (List.length vals))
      | Construct.Sum -> Some (List.fold_left ( +. ) 0. vals)
      | Construct.Avg -> avg_opt vals
      | Construct.Min -> Some (List.fold_left Float.min Float.infinity vals)
      | Construct.Max -> Some (List.fold_left Float.max Float.neg_infinity vals))

let window_slices window values =
  (* [values] oldest-first; yield (window values, index of last) *)
  let arr = Array.of_list values in
  let n = Array.length arr in
  let slices = ref [] in
  for last = window - 1 to n - 1 do
    slices := (Array.to_list (Array.sub arr (last - window + 1) window), last) :: !slices
  done;
  List.rev !slices

let rec eval q history ~now : Instance.t list =
  match q with
  | Event_query.Atomic a ->
      let m = atomic_matcher a in
      List.concat_map m (History.events history)
  | Event_query.And qs ->
      join_tuples ~ordered:false (List.map (fun q -> eval q history ~now) qs)
      |> Instance.dedup
  | Event_query.Or qs -> Instance.dedup (List.concat_map (fun q -> eval q history ~now) qs)
  | Event_query.Seq qs ->
      join_tuples ~ordered:true (List.map (fun q -> eval q history ~now) qs)
      |> Instance.dedup
  | Event_query.Within (q, span) ->
      List.filter (fun i -> Instance.span i <= span) (eval q history ~now)
  | Event_query.Absent (q1, q2, span) ->
      let starts = eval q1 history ~now in
      let blockers = eval q2 history ~now in
      List.filter_map
        (fun i1 ->
          let deadline = Clock.add i1.Instance.t_end span in
          if deadline > now then None
          else
            let blocked =
              List.exists
                (fun i2 ->
                  Instance.strictly_before i1 i2
                  && i2.Instance.t_start <= deadline
                  && Option.is_some (Subst.merge i1.Instance.subst i2.Instance.subst))
                blockers
            in
            if blocked then None
            else
              Some
                (Instance.timer i1.Instance.subst ~t_start:i1.Instance.t_start
                   ~t_end:deadline ~ids:i1.Instance.ids))
        starts
      |> Instance.dedup
  | Event_query.Times (n, q, span) ->
      times_subsets n span (arrival_sort (eval q history ~now)) |> Instance.dedup
  | Event_query.Agg spec -> eval_agg spec history ~now
  | Event_query.Rises spec -> eval_rises spec history ~now

and eval_agg (spec : Event_query.agg_spec) history ~now =
  let over_vars = Event_query.vars spec.Event_query.over in
  let instances = arrival_sort (eval spec.Event_query.over history ~now) in
  let groups : (Subst.t * Instance.t list) list =
    List.fold_left
      (fun groups i ->
        match numeric_of i.Instance.subst spec.Event_query.var with
        | None -> groups
        | Some _ ->
            let key = group_key over_vars spec.Event_query.var i.Instance.subst in
            let rec insert = function
              | [] -> [ (key, [ i ]) ]
              | (k, is) :: rest ->
                  if Subst.equal k key then (k, is @ [ i ]) :: rest else (k, is) :: insert rest
            in
            insert groups)
      [] instances
  in
  List.concat_map
    (fun (_, is) ->
      window_slices spec.Event_query.window is
      |> List.filter_map (fun (slice, _) ->
             let vals = List.filter_map (fun i -> numeric_of i.Instance.subst spec.Event_query.var) slice in
             let latest = List.nth slice (List.length slice - 1) in
             let* value = reduce spec.Event_query.op vals in
             match Subst.add spec.Event_query.bind (Xchange_data.Term.num value) latest.Instance.subst with
             | None -> None
             | Some subst ->
                 let first = List.hd slice in
                 Some
                   (Instance.timer subst ~t_start:first.Instance.t_start
                      ~t_end:latest.Instance.t_end
                      ~ids:
                        (List.sort_uniq Int.compare
                           (List.concat_map (fun i -> i.Instance.ids) slice)))))
    groups
  |> Instance.dedup

and eval_rises (spec : Event_query.rises_spec) history ~now =
  let over_vars = Event_query.vars spec.Event_query.r_over in
  let instances = arrival_sort (eval spec.Event_query.r_over history ~now) in
  let groups : (Subst.t * Instance.t list) list =
    List.fold_left
      (fun groups i ->
        match numeric_of i.Instance.subst spec.Event_query.r_var with
        | None -> groups
        | Some _ ->
            let key = group_key over_vars spec.Event_query.r_var i.Instance.subst in
            let rec insert = function
              | [] -> [ (key, [ i ]) ]
              | (k, is) :: rest ->
                  if Subst.equal k key then (k, is @ [ i ]) :: rest else (k, is) :: insert rest
            in
            insert groups)
      [] instances
  in
  let w = spec.Event_query.r_window in
  List.concat_map
    (fun (_, is) ->
      window_slices (w + 1) is
      |> List.filter_map (fun (slice, _) ->
             let vals = List.filter_map (fun i -> numeric_of i.Instance.subst spec.Event_query.r_var) slice in
             if List.length vals <> w + 1 then None
             else
               let* old_avg = avg_opt (List.filteri (fun j _ -> j < w) vals) in
               let* new_avg = avg_opt (List.filteri (fun j _ -> j >= 1) vals) in
               if new_avg < spec.Event_query.r_ratio *. old_avg then None
               else
                 let latest = List.nth slice w in
                 match
                   Subst.add spec.Event_query.r_bind (Xchange_data.Term.num new_avg)
                     latest.Instance.subst
                 with
                 | None -> None
                 | Some subst ->
                     let first = List.hd slice in
                     Some
                       (Instance.timer subst ~t_start:first.Instance.t_start
                          ~t_end:latest.Instance.t_end
                          ~ids:
                            (List.sort_uniq Int.compare
                               (List.concat_map (fun i -> i.Instance.ids) slice)))))
    groups
  |> Instance.dedup

let answers q history ~now = Instance.dedup (eval q history ~now)

let detections_per_event q events =
  let history = History.create () in
  let reported = ref [] in
  List.map
    (fun e ->
      History.add history e;
      let now = Event.time e in
      let all = answers q history ~now in
      let fresh = List.filter (fun i -> not (List.exists (Instance.equal i) !reported)) all in
      reported := fresh @ !reported;
      (e, fresh))
    events
