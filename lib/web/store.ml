open Xchange_data
open Xchange_query
open Xchange_rules
open Xchange_obs

type notification = { doc : string; summary : Term.t }

type watch_state =
  | Surrogate of { w_doc : string; oid : int; mutable last_digest : int }
  | Extensional of { w_doc : string; value : Term.t }

(* The query cache key: the extensional digest of the document version,
   the query term itself, and a digest fingerprint of the seed
   substitution.  Keying by the full seed keeps cached answers
   byte-for-byte those of a fresh evaluation — optional and negated
   subpatterns make seeded matching irreducible to joining unseeded
   answers.  Stale digests age out of the LRU by themselves. *)
type query_key = int * Qterm.t * (string * int) list

module Qcache = Lru.Make (struct
  type t = query_key

  let equal = ( = )
  let hash = Hashtbl.hash
end)

type change = Ch_update of Action.update | Ch_doc of string | Ch_restore

type answerer = seed:Subst.t -> Qterm.t -> Subst.set option

(* The digest of a document version, computed by the first fallback
   query on it.  An unordered root keeps its digest in parts (header
   hash and children sum), so a root-child insert or pattern delete
   updates it by that child's digest instead of dropping it. *)
type version = Whole of int | Multiset of Term.multiset_digest

let digest_of = function Whole d -> d | Multiset m -> Term.digest_of_multiset m

type t = {
  docs : (string, Term.t) Hashtbl.t;
  graphs : (string, Rdf.graph) Hashtbl.t;
  watches : (int, watch_state) Hashtbl.t;
  mutable next_watch : int;
  digests : (string, version) Hashtbl.t;  (** of the current doc version, once queried *)
  qcache : Subst.set Qcache.t;
  mutable observers : (change -> unit) list;
  dynamic : (string, answerer) Hashtbl.t;  (** per-doc derived-register answerers *)
  m : Obs.Metrics.t;
  c_dynamic_answers : Obs.Metrics.Counter.t;
  c_full_digests : Obs.Metrics.Counter.t;
}

type watch_id = int

let default_cache_capacity = 512

let create ?(cache_capacity = default_cache_capacity) () =
  let m = Obs.Metrics.create () in
  let t =
    {
      docs = Hashtbl.create 16;
      graphs = Hashtbl.create 4;
      watches = Hashtbl.create 8;
      next_watch = 0;
      digests = Hashtbl.create 16;
      qcache = Qcache.create ~cap:cache_capacity;
      observers = [];
      dynamic = Hashtbl.create 4;
      m;
      c_dynamic_answers = Obs.Metrics.counter m "store.dynamic_answers";
      c_full_digests = Obs.Metrics.counter m "store.full_digests";
    }
  in
  (* the LRU already counts its own traffic; sample it at snapshot time
     instead of double-counting on the query hot path *)
  Obs.Metrics.counter_fn m "store.query_cache_hits" (fun () -> Qcache.hits t.qcache);
  Obs.Metrics.counter_fn m "store.query_cache_misses" (fun () -> Qcache.misses t.qcache);
  Obs.Metrics.counter_fn m "store.query_cache_evictions" (fun () ->
      Qcache.evictions t.qcache);
  Obs.Metrics.gauge_fn m "store.query_cache_entries" (fun () ->
      float_of_int (Qcache.length t.qcache));
  t

let metrics t = t.m

let on_change t f = t.observers <- t.observers @ [ f ]

let fire t ch = List.iter (fun f -> f ch) t.observers

let set_dynamic t name answer = Hashtbl.replace t.dynamic name answer

(* A mutation drops the digest of the document's version, unless it
   only inserts or deletes children of an unordered root (see
   [shift_digest]); cached query answers need no eager flush because
   their keys embed the digest of the version they were computed on. *)
let forget_digest t name = Hashtbl.remove t.digests name

(* The root gained [added] and lost [removed] children. *)
let shift_digest t name ~added ~removed =
  match Hashtbl.find_opt t.digests name with
  | Some (Multiset m) ->
      Hashtbl.replace t.digests name (Multiset (Term.multiset_shift m ~added ~removed))
  | Some (Whole _) | None -> forget_digest t name

let add_doc t name d =
  forget_digest t name;
  Hashtbl.replace t.docs name (Identity.assign d);
  fire t (Ch_doc name)

let doc t name = Hashtbl.find_opt t.docs name
let doc_names t = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.docs [])

let remove_doc t name =
  if Hashtbl.mem t.docs name then begin
    Hashtbl.remove t.docs name;
    forget_digest t name;
    fire t (Ch_doc name);
    true
  end
  else false

let add_rdf t name g = Hashtbl.replace t.graphs name g
let rdf t name = Hashtbl.find_opt t.graphs name
let rdf_names t = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.graphs [])

let notify doc kind count = { doc; summary = Term.elem "update" ~attrs:[ ("doc", doc); ("kind", kind) ] [ Term.int count ] }

(* Apply a path-wise rewrite to every selected node, deepest/last paths
   first so earlier rewrites do not invalidate later paths. *)
let rewrite_selected d selector f =
  let ordered = List.sort (fun (a, _) (b, _) -> Stdlib.compare b a) (Path.select d selector) in
  List.fold_left
    (fun (d, n) (path, node) ->
      match f d path node with Some d' -> (d', n + 1) | None -> (d, n))
    (d, 0) ordered

let get_doc t name =
  match Hashtbl.find_opt t.docs name with
  | Some d -> Ok d
  | None -> Error (Fmt.str "no such document: %s" name)

let ( let* ) = Result.bind

let apply_update t (update : Action.update) =
  match update with
  | Action.U_insert { doc = name; selector; at; content } ->
      let* d = get_doc t name in
      let content = Identity.assign content in
      let d', n =
        rewrite_selected d selector (fun d path _node -> Path.insert_child ?at d path content)
      in
      if n = 0 then Error (Fmt.str "insert: selector matched nothing in %s" name)
      else begin
        Hashtbl.replace t.docs name d';
        (* the empty selector selects the root and nothing else *)
        if selector = [] then shift_digest t name ~added:[ content ] ~removed:[]
        else forget_digest t name;
        Ok (n, [ notify name "insert" n ])
      end
  | Action.U_delete { doc = name; selector; pattern } ->
      let* d = get_doc t name in
      let deleted = ref [] in
      let d', n =
        match pattern with
        | None -> rewrite_selected d selector (fun d path _ -> Path.delete d path)
        | Some q ->
            (* one plan lookup per delete, not one per child *)
            let matches = Simulate.matcher q in
            rewrite_selected d selector (fun d path node ->
                (* test each child of the selected node once, then
                   rebuild the current child list once (a deeper
                   selected node may already be rewritten): survivors
                   keep their order and ids *)
                let kids = Term.children node in
                let doomed = Array.of_list (List.map (fun c -> matches c <> []) kids) in
                if not (Array.mem true doomed) then None
                else
                  match Path.get d path with
                  | Some (Term.Elem e) ->
                      deleted := List.filteri (fun i _ -> doomed.(i)) kids @ !deleted;
                      let survivors = List.filteri (fun i _ -> not doomed.(i)) e.Term.children in
                      Path.replace d path (Term.Elem { e with Term.children = survivors })
                  | Some (Term.Text _ | Term.Num _ | Term.Bool _) | None -> None)
      in
      Hashtbl.replace t.docs name d';
      if n > 0 then
        if selector = [] && Option.is_some pattern then
          shift_digest t name ~added:[] ~removed:!deleted
        else forget_digest t name;
      Ok (n, if n = 0 then [] else [ notify name "delete" n ])
  | Action.U_replace { doc = name; selector; content } ->
      let* d = get_doc t name in
      let d', n =
        rewrite_selected d selector (fun d path node ->
            (* the replacement inherits the replaced element's surrogate
               identity (Thesis 10) *)
            let keep_oid = Term.elem_id node in
            let content = Term.with_id keep_oid (Identity.assign content) in
            Path.replace d path content)
      in
      if n = 0 then Error (Fmt.str "replace: selector matched nothing in %s" name)
      else begin
        Hashtbl.replace t.docs name d';
        forget_digest t name;
        Ok (n, [ notify name "replace" n ])
      end
  | Action.U_create_doc { doc = name; content } ->
      add_doc t name content;
      Ok (1, [ notify name "create" 1 ])
  | Action.U_delete_doc { doc = name } ->
      if remove_doc t name then Ok (1, [ notify name "drop" 1 ])
      else Error (Fmt.str "no such document: %s" name)
  | Action.U_rdf_assert { doc = name; triple } ->
      let g =
        match Hashtbl.find_opt t.graphs name with
        | Some g -> g
        | None ->
            let g = Rdf.create () in
            Hashtbl.replace t.graphs name g;
            g
      in
      let added = Rdf.add g triple in
      Ok ((if added then 1 else 0), if added then [ notify name "assert" 1 ] else [])
  | Action.U_rdf_retract { doc = name; triple } -> (
      match Hashtbl.find_opt t.graphs name with
      | None -> Error (Fmt.str "no such graph: %s" name)
      | Some g ->
          let removed = Rdf.remove g triple in
          Ok ((if removed then 1 else 0), if removed then [ notify name "retract" 1 ] else []))

(* Observers see only updates that changed something; an error or a
   pattern-delete touching zero nodes leaves every derived view valid. *)
let apply t update =
  match apply_update t update with
  | Ok (n, _) as ok ->
      if n > 0 then fire t (Ch_update update);
      ok
  | Error _ as e -> e

let replace_at t ~doc:name path content =
  let* d = get_doc t name in
  match Path.get d path with
  | None -> Error (Fmt.str "no node at %a in %s" Path.pp path name)
  | Some node -> (
      let keep_oid = Term.elem_id node in
      let content = Term.with_id keep_oid (Identity.assign content) in
      match Path.replace d path content with
      | Some d' ->
          Hashtbl.replace t.docs name d';
          forget_digest t name;
          fire t (Ch_doc name);
          Ok ()
      | None -> Error (Fmt.str "cannot replace at %a in %s" Path.pp path name))

let seed_fingerprint seed =
  List.map (fun (v, term) -> (v, Term.digest term)) (Subst.to_list seed)

let version_digest t name = Option.map digest_of (Hashtbl.find_opt t.digests name)

(* The digest of the document's current version; the first fallback
   query on a version that no mutation kept it for digests the whole
   document. *)
let key_digest t name d =
  match version_digest t name with
  | Some dg -> dg
  | None ->
      Obs.Metrics.Counter.incr t.c_full_digests;
      let v =
        match Term.multiset_digest d with Some m -> Multiset m | None -> Whole (Term.digest d)
      in
      Hashtbl.replace t.digests name v;
      digest_of v

let query_fallback t name d ~seed q =
  let key = (key_digest t name d, q, seed_fingerprint seed) in
  match Qcache.find t.qcache key with
  | Some answers -> answers
  | None ->
      let answers = Simulate.matches_anywhere ~seed q d in
      Qcache.add t.qcache key answers;
      answers

let query t ~doc:name ?(seed = Subst.empty) q =
  match Hashtbl.find_opt t.docs name with
  | None -> Subst.set_empty
  | Some d -> (
      (* a dynamic answerer (e.g. Pubsub's subscription index) may serve
         the query straight from its own structure; [None] falls back to
         the document — the answerer contract is answer-equivalence *)
      match Hashtbl.find_opt t.dynamic name with
      | Some answer -> (
          match answer ~seed q with
          | Some answers ->
              Obs.Metrics.Counter.incr t.c_dynamic_answers;
              answers
          | None -> query_fallback t name d ~seed q)
      | None -> query_fallback t name d ~seed q)

let env t =
  let fetch = function
    | Condition.Local name -> Option.to_list (doc t name)
    | Condition.Remote uri -> Option.to_list (doc t (Uri.path uri))
    | Condition.View _ -> []
  in
  let fetch_rdf = function
    | Condition.Local name -> rdf t name
    | Condition.Remote uri -> rdf t (Uri.path uri)
    | Condition.View _ -> None
  in
  let cached_match res ~seed q =
    match res with
    | Condition.Local name -> Some (query t ~doc:name ~seed q)
    | Condition.Remote uri -> Some (query t ~doc:(Uri.path uri) ~seed q)
    | Condition.View _ -> None
  in
  { Condition.fetch; fetch_rdf; cached_match }

type backup = { b_docs : (string * Term.t) list; b_graphs : (string * Rdf.graph) list }

let backup t =
  {
    b_docs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.docs [];
    b_graphs = Hashtbl.fold (fun k v acc -> (k, Rdf.copy v) :: acc) t.graphs [];
  }

let rollback t b =
  Hashtbl.reset t.digests;
  Hashtbl.reset t.docs;
  List.iter (fun (k, v) -> Hashtbl.replace t.docs k v) b.b_docs;
  Hashtbl.reset t.graphs;
  List.iter (fun (k, v) -> Hashtbl.replace t.graphs k v) b.b_graphs;
  fire t Ch_restore

(* All-or-nothing multi-update (Thesis 10's transactional face at the
   store level): either every mutation applies — observers then see the
   per-update changes, in order — or none does and observers see a
   single [Ch_restore].  Reads between the updates of one batch see the
   earlier writes (same optimistic discipline as [Action.Atomic]). *)
let apply_txn t updates =
  match updates with
  | [] -> Ok (0, [])
  | _ ->
      let b = backup t in
      let rec go i total notes changed = function
        | [] ->
            List.iter (fun u -> fire t (Ch_update u)) (List.rev changed);
            Ok (total, List.concat (List.rev notes))
        | u :: rest -> (
            match apply_update t u with
            | Ok (n, ns) ->
                go (i + 1) (total + n) (ns :: notes)
                  (if n > 0 then u :: changed else changed)
                  rest
            | Error e ->
                rollback t b;
                Error (Fmt.str "transaction rolled back at update %d: %s" i e))
      in
      go 1 0 [] [] updates

let snapshot t =
  let docs =
    List.map
      (fun name ->
        Term.elem "document" ~attrs:[ ("name", name) ] [ Term.strip_ids (Option.get (doc t name)) ])
      (doc_names t)
  in
  let graphs =
    List.map
      (fun name ->
        Term.elem "graph" ~attrs:[ ("name", name) ] [ Rdf.graph_to_term (Option.get (rdf t name)) ])
      (rdf_names t)
  in
  Term.elem ~ord:Term.Unordered "store" (docs @ graphs)

(* Parse a snapshot term into its documents and graphs without touching
   any store, so an in-place load can validate fully before wiping. *)
let parse_snapshot term =
  match term with
  | Term.Elem { Term.label = "store"; children; _ } ->
      let rec load docs graphs = function
        | [] -> Ok (List.rev docs, List.rev graphs)
        | Term.Elem { Term.label = "document"; attrs; children = [ d ]; _ } :: rest -> (
            match List.assoc_opt "name" attrs with
            | Some name -> load ((name, d) :: docs) graphs rest
            | None -> Error "document snapshot lacks a name")
        | Term.Elem { Term.label = "graph"; attrs; children = [ g ]; _ } :: rest -> (
            match (List.assoc_opt "name" attrs, Rdf.graph_of_term g) with
            | Some name, Ok graph -> load docs ((name, graph) :: graphs) rest
            | None, _ -> Error "graph snapshot lacks a name"
            | _, Error e -> Error e)
        | other :: _ -> Error (Fmt.str "unexpected snapshot entry: %a" Term.pp other)
      in
      load [] [] children
  | _ -> Error (Fmt.str "not a store snapshot: %a" Term.pp term)

(* In-place restore (recovery): replace the whole contents with the
   snapshot's.  Validates first — a bad snapshot leaves the store
   untouched.  Observers see one [Ch_restore], like [rollback]. *)
let load_snapshot t term =
  match parse_snapshot term with
  | Error _ as e -> e
  | Ok (docs, graphs) ->
      Hashtbl.reset t.digests;
      Hashtbl.reset t.docs;
      Hashtbl.reset t.graphs;
      List.iter (fun (name, d) -> Hashtbl.replace t.docs name (Identity.assign d)) docs;
      List.iter (fun (name, g) -> Hashtbl.replace t.graphs name g) graphs;
      fire t Ch_restore;
      Ok ()

let restore term =
  let t = create () in
  match load_snapshot t term with Ok () -> Ok t | Error e -> Error e

let fresh_watch t state =
  t.next_watch <- t.next_watch + 1;
  Hashtbl.replace t.watches t.next_watch state;
  t.next_watch

let watch_surrogate t ~doc:name path =
  let* d = get_doc t name in
  match Path.get d path with
  | None -> Error (Fmt.str "no node at %a in %s" Path.pp path name)
  | Some node ->
      let oid = Term.elem_id node in
      if oid = Term.no_id then Error "node has no surrogate identity (not an element)"
      else Ok (fresh_watch t (Surrogate { w_doc = name; oid; last_digest = Term.digest node }))

let watch_extensional t ~doc:name value =
  let* d = get_doc t name in
  if Identity.find_equal d value = [] then
    Error (Fmt.str "value does not occur in %s" name)
  else Ok (fresh_watch t (Extensional { w_doc = name; value }))

type watch_status = [ `Unchanged | `Changed of Term.t | `Lost ]

let poll_watch t id : watch_status =
  match Hashtbl.find_opt t.watches id with
  | None -> `Lost
  | Some (Surrogate s) -> (
      match doc t s.w_doc with
      | None -> `Lost
      | Some d -> (
          match Identity.find_by_id d s.oid with
          | None -> `Lost
          | Some path -> (
              match Path.get d path with
              | None -> `Lost
              | Some node ->
                  let dg = Term.digest node in
                  if Int.equal dg s.last_digest then `Unchanged
                  else begin
                    s.last_digest <- dg;
                    `Changed node
                  end)))
  | Some (Extensional e) -> (
      match doc t e.w_doc with
      | None -> `Lost
      | Some d -> if Identity.find_equal d e.value = [] then `Lost else `Unchanged)

let watch_count t = Hashtbl.length t.watches
