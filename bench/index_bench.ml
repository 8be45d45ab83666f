(* Hot-path indexing benchmarks (the perf companion of HACKING.md
   "Performance architecture"): sub-index dispatch vs full rule scan,
   keyed lookups through the store while the catalog changes under them,
   and memoized store queries vs fresh evaluation.  Prints tables and
   emits machine-readable BENCH_index.json.  [~smoke] runs a fast subset
   (wired into `dune runtest`) that additionally checks every answer
   against its reference. *)

open Xchange

let null_ops =
  {
    Action.update = (fun _ -> Ok 0);
    txn_update = (fun _ -> Ok 0);
    send = (fun ~recipient:_ ~label:_ ~ttl:_ ~delay:_ _ -> ());
    log = (fun _ -> ());
    now = (fun () -> 0);
    checkpoint = (fun () -> fun () -> ());
  }

let empty_env = Condition.env_of_docs []

(* Sys.time has coarse resolution; keep ratios finite on tiny smoke runs *)
let speedup naive indexed = naive /. Float.max indexed 0.001

(* ---- event dispatch: n rules, each on its own label ---- *)

let dispatch_case ~rules:n ~events:m =
  let rules =
    List.init n (fun i ->
        Eca.make ~name:(Printf.sprintf "r%d" i)
          ~on:(Event_query.on ~label:(Printf.sprintf "l%d" i) (Qterm.var "X"))
          Action.Nop)
  in
  let ruleset = Ruleset.make ~rules "bench" in
  let events =
    List.init m (fun j ->
        Event.make ~occurred_at:(j + 1) ~label:(Printf.sprintf "l%d" (j mod n)) (Term.int j))
  in
  let run index =
    let engine = Engine.create_exn ~index ruleset in
    Util.time_ms (fun () ->
        List.fold_left
          (fun acc ev ->
            acc
            + List.length
                (Engine.handle_event engine ~env:empty_env ~ops:null_ops ev).Engine.firings)
          0 events)
  in
  let fired_indexed, indexed_ms = run true in
  let fired_naive, naive_ms = run false in
  if fired_indexed <> fired_naive then
    failwith
      (Printf.sprintf "dispatch bench: %d indexed firings vs %d naive" fired_indexed fired_naive);
  (n, m, fired_naive, naive_ms, indexed_ms)

(* ---- keyed lookups on a changing catalog ----

   The store_churn shape: seeded [item[key[K], val[V]]] lookups through
   [Store.query] on an unordered catalog, with one delete + insert of an
   item per five lookups, so every fifth lookup meets a new document
   version.  Keys are skewed towards the low ones; every answer is
   checked against a model of the catalog.  [store.full_digests] counts
   the whole-catalog digests the query key needed: the deletes and
   inserts are root-child changes, which keep the digest, so one per
   document load. *)

let key k = Printf.sprintf "k%d" k
let kv label value = Term.elem label [ value ]
let item k v = Term.elem "item" [ kv "key" (Term.text (key k)); kv "val" (Term.int v) ]

let keyed_lookup_case ~items ~queries =
  let st = Random.State.make [| 7 |] in
  let vals = Array.init items (fun _ -> Random.State.int st 1000) in
  let store = Store.create () in
  Store.add_doc store "/catalog"
    (Term.elem ~ord:Term.Unordered "catalog" (List.init items (fun k -> item k vals.(k))));
  let pos label v = Qterm.pos (Qterm.el label [ Qterm.pos v ]) in
  let lookup = Qterm.el "item" [ pos "key" (Qterm.var "K"); pos "val" (Qterm.var "V") ] in
  let skewed () = Random.State.int st (1 + Random.State.int st items) in
  let change k =
    let v = Random.State.int st 1000 in
    let apply u =
      match Store.apply store u with
      | Ok _ -> ()
      | Error e -> failwith ("keyed-lookup bench: " ^ e)
    in
    apply
      (Action.U_delete
         {
           doc = "/catalog";
           selector = [];
           pattern = Some (Qterm.el "item" [ pos "key" (Qterm.txt (key k)) ]);
         });
    apply (Action.U_insert { doc = "/catalog"; selector = []; at = None; content = item k v });
    vals.(k) <- v
  in
  let (), ms =
    Util.time_ms (fun () ->
        for i = 1 to queries do
          let k = skewed () in
          let seed = Option.get (Subst.of_list [ ("K", Term.text (key k)) ]) in
          let want = Option.get (Subst.of_list [ ("K", Term.text (key k)); ("V", Term.int vals.(k)) ]) in
          (match Store.query store ~doc:"/catalog" ~seed lookup with
          | [ got ] when Subst.equal got want -> ()
          | got ->
              failwith
                (Fmt.str "keyed-lookup bench: k%d answered %a" k Subst.pp_set got));
          if i mod 5 = 0 then change (skewed ())
        done)
  in
  let full_digests = Util.cells (Store.metrics store) "store.full_digests" in
  (Term.size (Option.get (Store.doc store "/catalog")), queries, ms, full_digests)

(* ---- store query cache: repeated queries over an unchanged doc ---- *)

let needle_query = Qterm.el "needle" [ Qterm.pos (Qterm.var "X") ]

let doc_of_nodes nodes =
  let items = max 2 (nodes / 3) in
  Term.elem ~ord:Term.Unordered "db"
    (List.init items (fun i ->
         if i mod 500 = 250 then Term.elem "needle" [ Term.text (Printf.sprintf "n%d" i) ]
         else Term.elem "item" [ Term.elem "name" [ Term.text (Printf.sprintf "p%d" (i mod 97)) ] ]))

let cache_case ~nodes ~repeats =
  let store = Store.create () in
  Store.add_doc store "/db" (doc_of_nodes nodes);
  let doc = Option.get (Store.doc store "/db") in
  let naive_answers, naive_ms =
    Util.time_ms (fun () ->
        let last = ref [] in
        for _ = 1 to repeats do
          last := Simulate.matches_anywhere needle_query doc
        done;
        !last)
  in
  let cached_answers, cached_ms =
    Util.time_ms (fun () ->
        let last = ref [] in
        for _ = 1 to repeats do
          last := Store.query store ~doc:"/db" needle_query
        done;
        !last)
  in
  if not (List.equal Subst.equal naive_answers cached_answers) then
    failwith "cache bench: cached answers differ from naive";
  let cell = Util.cells (Store.metrics store) in
  ( nodes,
    repeats,
    naive_ms,
    cached_ms,
    cell "store.query_cache_hits",
    cell "store.query_cache_misses" )

(* ---- JSON emission (hand-rolled; no deps) ---- *)

let obj fields = "{" ^ String.concat ", " fields ^ "}"
let arr elems = "[" ^ String.concat ", " elems ^ "]"
let fi k v = Printf.sprintf "%S: %d" k v
let ff k v = Printf.sprintf "%S: %.3f" k v

let run ~smoke () =
  let dispatch_sizes, lookup_spec, cache_spec =
    if smoke then ([ (10, 200); (100, 200) ], (1_000, 100), (1_000, 50))
    else ([ (10, 5_000); (100, 5_000); (1_000, 5_000) ], (3_000, 250), (10_000, 200))
  in
  Obs.Profile.reset ();
  Fmt.pr "@.# Hot-path indexing benchmarks%s@." (if smoke then " (smoke)" else "");

  let dispatch =
    Obs.Profile.phase "dispatch" (fun () ->
        List.map (fun (n, m) -> dispatch_case ~rules:n ~events:m) dispatch_sizes)
  in
  Util.print_table ~title:"event dispatch: full scan vs sub-index"
    ~header:[ "rules"; "events"; "firings"; "scan ms"; "indexed ms"; "speedup" ]
    (List.map
       (fun (n, m, fired, naive, indexed) ->
         [
           string_of_int n; Util.si m; Util.si fired; Util.f2 naive; Util.f2 indexed;
           Util.f1 (speedup naive indexed) ^ "x";
         ])
       dispatch);

  let items, queries = lookup_spec in
  let keyed =
    Obs.Profile.phase "keyed_lookup" (fun () -> [ keyed_lookup_case ~items ~queries ])
  in
  Util.print_table ~title:"keyed lookups on a changing catalog (one change per five lookups)"
    ~header:[ "nodes"; "queries"; "cached ms"; "ms/lookup"; "full digests" ]
    (List.map
       (fun (nodes, q, ms, full) ->
         [
           Util.si nodes; string_of_int q; Util.f2 ms; Util.f2 (ms /. float_of_int q);
           string_of_int full;
         ])
       keyed);

  let nodes, repeats = cache_spec in
  let cache = Obs.Profile.phase "query_cache" (fun () -> [ cache_case ~nodes ~repeats ]) in
  Util.print_table ~title:"store queries: fresh evaluation vs digest-keyed memo"
    ~header:[ "nodes"; "repeats"; "naive ms"; "cached ms"; "hits"; "misses"; "speedup" ]
    (List.map
       (fun (nodes, repeats, naive, cached, hits, misses) ->
         [
           Util.si nodes; string_of_int repeats; Util.f2 naive; Util.f2 cached;
           string_of_int hits; string_of_int misses; Util.f1 (speedup naive cached) ^ "x";
         ])
       cache);

  let json =
    obj
      [
        Printf.sprintf "%S: %s" "smoke" (string_of_bool smoke);
        Printf.sprintf "%S: %s" "dispatch"
          (arr
             (List.map
                (fun (n, m, fired, naive, indexed) ->
                  obj
                    [
                      fi "rules" n; fi "events" m; fi "firings" fired; ff "naive_ms" naive;
                      ff "indexed_ms" indexed; ff "speedup" (speedup naive indexed);
                    ])
                dispatch));
        Printf.sprintf "%S: %s" "keyed_lookup"
          (arr
             (List.map
                (fun (nodes, q, ms, full) ->
                  obj
                    [
                      fi "nodes" nodes; fi "queries" q; ff "lookup_cached_ms" ms;
                      fi "full_digests" full;
                    ])
                keyed));
        Printf.sprintf "%S: %s" "query_cache"
          (arr
             (List.map
                (fun (nodes, repeats, naive, cached, hits, misses) ->
                  obj
                    [
                      fi "nodes" nodes; fi "repeats" repeats; ff "naive_ms" naive;
                      ff "cached_ms" cached; fi "hits" hits; fi "misses" misses;
                      ff "speedup" (speedup naive cached);
                    ])
                cache));
        Printf.sprintf "%S: %s" "metrics" (Json.to_string (Obs.Profile.to_json ()));
      ]
  in
  let oc = open_out "BENCH_index.json" in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Fmt.pr "@.wrote BENCH_index.json@."
