(* The five workloads: seeded input generators and the networks they
   run on.  A workload is a fixed number of ticks; each tick is the list
   of events injected at one virtual instant.  The generator draws from
   its own [Random.State]; the program sees only the generated terms. *)

open Xchange

type scale = Smoke | Full

type input = { to_ : string; label : string; payload : Term.t }

type built = {
  net : Network.t;
  registry : Pubsub.Registry.t option;  (** the publisher's subscription index *)
  compile_s : float;  (** summed [node_exn] time: rule compilation *)
  load_s : float;  (** summed [Store.add_doc] time *)
}

type t = {
  period : Clock.span;  (** virtual time between ticks *)
  ticks : input array array;
  probe : input array array;
      (** run after the timed phase, before the crash: the first ticks of
          seed 0's input, the same in every run *)
  build : unit -> built;
}

let names = [ "choreo"; "choreo_par"; "rules_dense"; "store_churn"; "pubsub_fanout" ]

(* ---- set-up accounting ---- *)

type setup = { mutable compile : float; mutable load : float }

let compile setup ?horizon ~host rules =
  let n, dt = Wall.timed ~args:[ ("host", host) ] "node_exn" (fun () -> node_exn ?horizon ~host rules) in
  setup.compile <- setup.compile +. dt;
  n

let load setup node path doc =
  let (), dt =
    Wall.timed ~args:[ ("doc", path) ] "Store.add_doc" (fun () -> Store.add_doc (Node.store node) path doc)
  in
  setup.load <- setup.load +. dt

(* Attach a node once its documents are loaded.  The checkpoint makes
   the loaded store the WAL's recovery baseline: documents enter the
   store directly, not through logged updates. *)
let attach net node =
  Node.checkpoint node ~at:Clock.origin;
  Network.add_node_exn net node

let finish setup ?registry net = { net; registry; compile_s = setup.compile; load_s = setup.load }

(* ---- generator helpers ---- *)

let rng ~seed name = Random.State.make [| seed; Hashtbl.hash name |]
let sprintf = Printf.sprintf
let q_kv label v = Qterm.pos (Qterm.el label [ Qterm.pos (Qterm.var v) ])
let c_kv label v = Construct.cel label [ Construct.cvar v ]
let unordered label children = Term.elem ~ord:Term.Unordered label children
let kv label value = Term.elem label [ value ]

(* Zipf(s) ranks 0..n-1 by inverse-CDF lookup. *)
let zipf_sampler ~n ~s =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (1. /. (float_of_int (i + 1) ** s));
    cdf.(i) <- !acc
  done;
  fun st ->
    let u = Random.State.float st !acc in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then search (mid + 1) hi else search lo mid
    in
    search 0 (n - 1)

let shuffled st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* [n] draws laid out block by block, each block a shuffled copy of
   [mix]: every stretch of the input has the same composition, so seeds
   differ in order and content but not in how much work a run holds. *)
let stratified st n mix =
  let block = ref [||] and pos = ref 0 in
  Array.init n (fun _ ->
      if !pos = Array.length !block then begin
        block := shuffled st mix;
        pos := 0
      end;
      incr pos;
      !block.(!pos - 1))

(* ---- choreo / choreo_par: an 8-site ring, every layer busy ----

   Each site runs ~50 rules: atomic rules with local [In] checks against
   a 400-item stock document, Seq/And rules whose subtrees repeat across
   rules (four rules per distinct subtree), a remote [In] against the
   next site's catalog, and a relay that raises events around the ring.
   Lossy transport with duplicates and jitter; every site durable. *)

let site i = sprintf "site%d.example" i
let sites = 8
let stock_items = 400
let obs_labels = 8

let on_obs k fields =
  Event_query.on ~label:(sprintf "o%d" k)
    (Qterm.el "o" (List.map (fun (l, v) -> q_kv l v) fields))

let relay_q = Event_query.on ~label:"relay" (Qterm.el "relay" [ q_kv "hop" "H"; q_kv "zone" "Z" ])

let relay_term hop zone = Term.elem "relay" [ kv "hop" hop; kv "zone" zone ]

let choreo_rules ~next =
  let open Builtin in
  let stock =
    List.init 16 (fun j ->
        let cond =
          Condition.And
            [
              Condition.In (Condition.Local "/stock", Qterm.el "item" [ q_kv "sku" "S"; q_kv "qty" "Q" ]);
              Condition.Cmp (Lt, ovar "N", ovar "Q");
            ]
        in
        let action =
          if j < 8 then Action.log "stock %s %s" [ ovar "S"; ovar "N" ]
          else Action.insert ~doc:"/seen" (Construct.cel "s" [ c_kv "sku" "S"; c_kv "n" "N" ])
        in
        Eca.make ~name:(sprintf "stock%d" j) ~on:(on_obs (j mod 8) [ ("sku", "S"); ("n", "N") ])
          ~if_:cond action)
  in
  (* six distinct Seq/And subtrees, each used by four rules under their
     own variable names: shared through the beta network's renaming *)
  let composite =
    List.init 24 (fun r ->
        let p = r mod 6 in
        let z = sprintf "Z%d" r in
        let parts = [ on_obs p [ ("zone", z) ]; on_obs ((p + 3) mod 8) [ ("zone", z) ] ] in
        let q = if p mod 2 = 0 then Event_query.seq parts else Event_query.conj parts in
        let action =
          match r / 6 with
          | 0 -> Action.insert ~doc:"/seen" (Construct.cel "pair" [ Construct.ctext (string_of_int p); c_kv "zone" z ])
          | 1 -> Action.log (sprintf "pair%d %%s" p) [ ovar z ]
          | 2 ->
              Action.raise_event ~to_:next ~label:"relay"
                (Construct.cel "relay"
                   [ Construct.cel "hop" [ Construct.C_operand (onum 1.) ]; c_kv "zone" z ])
          | _ -> Action.Nop
        in
        Eca.make ~name:(sprintf "pair%d" r) ~on:(Event_query.within q 30) action)
  in
  let audit =
    List.init 8 (fun k ->
        Eca.make ~name:(sprintf "audit%d" k) ~on:(on_obs k [ ("n", "N") ])
          ~if_:(Condition.Cmp (Gt, ovar "N", onum 90.))
          (Action.log (sprintf "audit%d %%s" k) [ ovar "N" ]))
  in
  let remote =
    Eca.make ~name:"remote" ~on:(on_obs 1 [ ("sku", "S") ])
      ~if_:(Condition.In (Condition.Remote (next ^ "/catalog"), Qterm.el "entry" [ q_kv "sku" "S" ]))
      (Action.log "remote %s" [ ovar "S" ])
  in
  let relay =
    Eca.make ~name:"relay" ~on:relay_q
      ~if_:(Condition.Cmp (Gt, ovar "H", onum 0.))
      (Action.raise_event ~to_:next ~label:"relay"
         (Construct.cel "relay"
            [ Construct.cel "hop" [ Construct.C_operand (O_sub (ovar "H", onum 1.)) ]; c_kv "zone" "Z" ]))
  in
  let relay_seen =
    Eca.make ~name:"relay_seen" ~on:relay_q
      (Action.insert ~doc:"/seen" (Construct.cel "r" [ c_kv "hop" "H"; c_kv "zone" "Z" ]))
  in
  Ruleset.make ~rules:(stock @ composite @ audit @ [ remote; relay; relay_seen ]) "choreo"

let choreo ~domains ~scale ~seed =
  let st = rng ~seed "choreo" in
  let ticks, per_tick = match scale with Smoke -> (40, 4) | Full -> (400, 8) in
  let sku st = Term.text (sprintf "s%d" (Random.State.int st stock_items)) in
  let docs =
    Array.init sites (fun _ ->
        let stock =
          unordered "stock"
            (List.init stock_items (fun j ->
                 Term.elem "item" [ kv "sku" (Term.text (sprintf "s%d" j)); kv "qty" (Term.int (Random.State.int st 100)) ]))
        in
        let catalog = unordered "catalog" (List.init 40 (fun _ -> Term.elem "entry" [ kv "sku" (sku st) ])) in
        (stock, catalog))
  in
  (* every tick sends one event to each of [per_tick] sites, the obs
     labels in a fresh order; one site in ten gets a relay instead, its
     hop count cycling 1, 2, 3 *)
  let tick k =
    let labels = shuffled st (Array.init obs_labels Fun.id) in
    Array.init per_tick (fun i ->
        let to_ = site i and zone = Term.int (Random.State.int st 4) in
        if (i + k) mod 10 = 0 then { to_; label = "relay"; payload = relay_term (Term.int (1 + (k mod 3))) zone }
        else
          {
            to_;
            label = sprintf "o%d" labels.(i);
            payload = Term.elem "o" [ kv "sku" (sku st); kv "zone" zone; kv "n" (Term.int (Random.State.int st 100)) ];
          })
  in
  let ticks = Array.init ticks tick in
  let build () =
    let setup = { compile = 0.; load = 0. } in
    let net =
      Network.create ~domains
        ~faults:(Transport.fault_profile ~seed ~drop_rate:0.01 ~dup_rate:0.01 ~max_jitter:3 ())
        ()
    in
    for i = 0 to sites - 1 do
      let n = compile setup ~horizon:100 ~host:(site i) (choreo_rules ~next:(site ((i + 1) mod sites))) in
      let stock, catalog = docs.(i) in
      load setup n "/stock" stock;
      load setup n "/catalog" catalog;
      load setup n "/seen" (unordered "seen" []);
      attach net n
    done;
    finish setup net
  in
  { period = 10; ticks; probe = [||]; build }

(* ---- rules_dense: one host, 10^4 overlapping composite rules ----

   Every rule is an And or Seq of two atoms drawn from 16 distinct
   subtrees, with its own variable names (sharing only through the
   beta network's canonical renaming).  Dispatch, alpha, beta, join
   stores and firing construction do nearly all the work. *)

let dense_host = "dense.example"
let dense_subtrees = 16

let dense_rules n =
  List.init n (fun i ->
      let s = i mod dense_subtrees in
      let j = s mod 8 in
      let atom l v = Event_query.on ~label:l (Qterm.el "rec" [ Qterm.pos (Qterm.var v) ]) in
      let parts = [ atom (sprintf "a%d" j) (sprintf "L%d" i); atom (sprintf "b%d" j) (sprintf "R%d" i) ] in
      let q = if s < 8 then Event_query.conj parts else Event_query.seq parts in
      Eca.make ~name:(sprintf "r%d" i) ~on:(Event_query.within q 8) Action.Nop)

let rules_dense ~scale ~seed =
  let st = rng ~seed "rules_dense" in
  let rules, ticks = match scale with Smoke -> (320, 40) | Full -> (10_000, 250) in
  let labels = Array.init 16 (fun i -> sprintf "%s%d" (if i < 8 then "a" else "b") (i mod 8)) in
  let ticks =
    Array.mapi
      (fun k label -> [| { to_ = dense_host; label; payload = Term.elem "rec" [ Term.text (sprintf "v%d" k) ] } |])
      (stratified st ticks labels)
  in
  let ruleset = Ruleset.make ~rules:(dense_rules rules) "dense" in
  let build () =
    let setup = { compile = 0.; load = 0. } in
    let net = Network.create ~domains:1 () in
    attach net (compile setup ~horizon:50 ~host:dense_host ruleset);
    finish setup net
  in
  { period = 2; ticks; probe = [||]; build }

(* ---- store_churn: reads and writes on one large unordered catalog ----

   Zipf-distributed keys, 80% keyed lookups (a local [In] condition) and
   20% changes (delete + insert of the item).  Every change invalidates
   the catalog's term index and the query LRU's entries for the old
   version, and the key working set is larger than the LRU. *)

let store_host = "store.example"

let store_rules =
  let open Builtin in
  Ruleset.make
    ~rules:
      [
        Eca.make ~name:"lookup"
          ~on:(Event_query.on ~label:"lookup" (Qterm.el "lookup" [ q_kv "key" "K" ]))
          ~if_:(Condition.In (Condition.Local "/catalog", Qterm.el "item" [ q_kv "key" "K"; q_kv "val" "V" ]))
          (Action.log "%s=%s" [ ovar "K"; ovar "V" ]);
        Eca.make ~name:"change"
          ~on:(Event_query.on ~label:"change" (Qterm.el "change" [ q_kv "key" "K"; q_kv "val" "V" ]))
          (Action.seq
             [
               Action.delete ~doc:"/catalog" ~pattern:(Qterm.el "item" [ q_kv "key" "K" ]) ();
               Action.insert ~doc:"/catalog" (Construct.cel "item" [ c_kv "key" "K"; c_kv "val" "V" ]);
             ]);
      ]
    "store"

let store_churn ~scale ~seed =
  let st = rng ~seed "store_churn" in
  let items, ticks = match scale with Smoke -> (200, 40) | Full -> (3_000, 250) in
  let key = zipf_sampler ~n:items ~s:0.9 in
  let key_term i = Term.text (sprintf "k%d" i) in
  let catalog =
    unordered "catalog"
      (List.init items (fun i ->
           Term.elem "item" [ kv "key" (key_term i); kv "val" (Term.int (Random.State.int st 1000)) ]))
  in
  let ticks =
    Array.map
      (fun change ->
        let k = key_term (key st) in
        [|
          (if change then
             {
               to_ = store_host;
               label = "change";
               payload = Term.elem "change" [ kv "key" k; kv "val" (Term.int (Random.State.int st 1000)) ];
             }
           else { to_ = store_host; label = "lookup"; payload = Term.elem "lookup" [ kv "key" k ] });
        |])
      (stratified st ticks [| false; false; false; false; true |])
  in
  let build () =
    let setup = { compile = 0.; load = 0. } in
    let net = Network.create ~domains:1 () in
    let n = compile setup ~host:store_host store_rules in
    load setup n "/catalog" catalog;
    attach net n;
    finish setup net
  in
  { period = 10; ticks; probe = [||]; build }

(* ---- pubsub_fanout: one publisher, 64 subscriber sites ----

   The register holds one hot topic every site subscribes to and ~2k
   selective topics with 1-3 sites each.  90% publishes (half hot, half
   selective), 10% subscribe/unsubscribe churn on selective topics. *)

let pub_host = "pub.example"
let sub_host i = sprintf "s%d.example" i
let hot_topic = "news"

let subscriber_rules =
  Ruleset.make
    ~rules:
      [
        Eca.make ~name:"notified"
          ~on:(Event_query.on ~label:"notify" (Qterm.el "notify" [ q_kv "topic" "T" ]))
          (Action.log "%s" [ Builtin.ovar "T" ]);
      ]
    "subscriber"

let pubsub_fanout ~scale ~seed =
  let st = rng ~seed "pubsub_fanout" in
  let hosts, topics, ticks = match scale with Smoke -> (8, 50, 40) | Full -> (64, 2_000, 400) in
  let topic j = sprintf "t%d" j in
  let entry t h = Term.elem "sub" [ kv "topic" (Term.text t); kv "host" (Term.text h) ] in
  let register =
    unordered "subscribers"
      (List.init hosts (fun i -> entry hot_topic (sub_host i))
      @ List.concat
          (List.init topics (fun j ->
               List.init (1 + Random.State.int st 3) (fun _ -> entry (topic j) (sub_host (Random.State.int st hosts))))))
  in
  let mix = Array.concat [ Array.make 9 `Hot; Array.make 9 `Selective; [| `Subscribe; `Unsubscribe |] ] in
  let ticks =
    Array.mapi
      (fun k kind ->
        let ev label payload = [| { to_ = pub_host; label; payload } |] in
        let t = topic (Random.State.int st topics) and h = sub_host (Random.State.int st hosts) in
        match kind with
        | `Hot -> ev "publish" (Pubsub.publish ~topic:hot_topic (Term.int k))
        | `Selective -> ev "publish" (Pubsub.publish ~topic:t (Term.int k))
        | `Subscribe -> ev "subscribe" (Pubsub.subscribe ~topic:t ~host:h)
        | `Unsubscribe -> ev "unsubscribe" (Pubsub.unsubscribe ~topic:t ~host:h))
      (stratified st ticks mix)
  in
  let build () =
    let setup = { compile = 0.; load = 0. } in
    let net = Network.create ~domains:1 () in
    let pub = compile setup ~host:pub_host (Pubsub.publisher_ruleset ()) in
    let registry = Pubsub.Registry.attach (Node.store pub) in
    load setup pub Pubsub.subscribers_doc register;
    attach net pub;
    for i = 0 to hosts - 1 do
      attach net (compile setup ~host:(sub_host i) subscriber_rules)
    done;
    finish setup ~registry net
  in
  { period = 10; ticks; probe = [||]; build }

let probe_ticks = 20

let make ~scale ~seed name =
  let gen seed =
    match name with
    | "choreo" -> Some (choreo ~domains:1 ~scale ~seed)
    | "choreo_par" -> Some (choreo ~domains:2 ~scale ~seed)
    | "rules_dense" -> Some (rules_dense ~scale ~seed)
    | "store_churn" -> Some (store_churn ~scale ~seed)
    | "pubsub_fanout" -> Some (pubsub_fanout ~scale ~seed)
    | _ -> None
  in
  match (gen seed, gen 0) with
  | Some w, Some w0 -> Some { w with probe = Array.sub w0.ticks 0 (min probe_ticks (Array.length w0.ticks)) }
  | _ -> None
