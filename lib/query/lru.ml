module Make (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  type 'v slot = { value : 'v; mutable used : int }

  type 'v t = {
    cap : int;
    tbl : 'v slot H.t;
    mutable tick : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create ~cap =
    if cap < 1 then invalid_arg "Lru.create: capacity must be >= 1";
    { cap; tbl = H.create (min cap 64); tick = 0; hits = 0; misses = 0; evictions = 0 }

  let find t k =
    match H.find_opt t.tbl k with
    | Some s ->
        t.tick <- t.tick + 1;
        s.used <- t.tick;
        t.hits <- t.hits + 1;
        Some s.value
    | None ->
        t.misses <- t.misses + 1;
        None

  let evict_lru t =
    let victim =
      H.fold
        (fun k s acc ->
          match acc with Some (_, u) when u <= s.used -> acc | _ -> Some (k, s.used))
        t.tbl None
    in
    match victim with
    | Some (k, _) ->
        H.remove t.tbl k;
        t.evictions <- t.evictions + 1
    | None -> ()

  let add t k v =
    if not (H.mem t.tbl k) && H.length t.tbl >= t.cap then evict_lru t;
    t.tick <- t.tick + 1;
    H.replace t.tbl k { value = v; used = t.tick }

  let length t = H.length t.tbl
  let capacity t = t.cap
  let clear t = H.reset t.tbl
  let hits t = t.hits
  let misses t = t.misses
  let evictions t = t.evictions
end
