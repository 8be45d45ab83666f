(* One allocation lane per domain: ids carry the allocating domain's id
   in the high bits, so concurrent stores on sharded schedulers never
   race or collide.  The orchestrating (main) domain has id 0, which
   makes its ids plain small integers — sequential runs are untouched.
   Surrogate ids are identity handles, not values: anything comparing
   documents across runs strips them ({!Term.strip_ids}). *)
let lane_shift = 40

let counters : int ref Xchange_core.Domain_local.t =
  Xchange_core.Domain_local.create (fun () -> ref 0)

let fresh () =
  let c = Xchange_core.Domain_local.get counters in
  incr c;
  let lane = (Stdlib.Domain.self () :> int) in
  if lane = 0 then !c else (lane lsl lane_shift) lor !c

let assign t =
  Term.map_elements
    (fun e -> if e.Term.id = Term.no_id then { e with Term.id = fresh () } else e)
    t

(* Pre-order traversal carrying the reversed path. *)
let fold_with_paths f acc t =
  let rec go acc rpath t =
    let acc = f acc (List.rev rpath) t in
    List.fold_left
      (fun (i, acc) c -> (i + 1, go acc (i :: rpath) c))
      (0, acc) (Term.children t)
    |> snd
  in
  go acc [] t

let find_by_id t oid =
  let exception Found of Path.t in
  try
    fold_with_paths
      (fun () path sub -> if Term.elem_id sub = oid then raise (Found path))
      () t;
    None
  with Found p -> Some p

let oids t =
  fold_with_paths
    (fun acc path sub ->
      let i = Term.elem_id sub in
      if i <> Term.no_id then (i, path) :: acc else acc)
    [] t
  |> List.rev

let find_equal t value =
  fold_with_paths
    (fun acc path sub -> if Term.equal sub value then path :: acc else acc)
    [] t
  |> List.rev
