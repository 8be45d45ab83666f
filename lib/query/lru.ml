type 'v slot = { value : 'v; mutable used : int }

type ('k, 'v) t = {
  cap : int;
  tbl : ('k, 'v slot) Hashtbl.t;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~cap =
  if cap < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  { cap; tbl = Hashtbl.create (min cap 64); tick = 0; hits = 0; misses = 0; evictions = 0 }

let find t k =
  match Hashtbl.find_opt t.tbl k with
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
    Hashtbl.fold
      (fun k s acc ->
        match acc with Some (_, u) when u <= s.used -> acc | _ -> Some (k, s.used))
      t.tbl None
  in
  match victim with
  | Some (k, _) ->
      Hashtbl.remove t.tbl k;
      t.evictions <- t.evictions + 1
  | None -> ()

let add t k v =
  if not (Hashtbl.mem t.tbl k) && Hashtbl.length t.tbl >= t.cap then evict_lru t;
  t.tick <- t.tick + 1;
  Hashtbl.replace t.tbl k { value = v; used = t.tick }

let length t = Hashtbl.length t.tbl
let capacity t = t.cap
let clear t = Hashtbl.reset t.tbl
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
