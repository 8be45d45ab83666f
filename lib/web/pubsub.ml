open Xchange_data
open Xchange_query
open Xchange_rules

let subscribers_doc = "/subscribers"

let empty_register () = Term.elem ~ord:Term.Unordered "subscribers" []

let topic_host_pattern label =
  Qterm.el label
    [
      Qterm.pos (Qterm.el "topic" [ Qterm.pos (Qterm.var "T") ]);
      Qterm.pos (Qterm.el "host" [ Qterm.pos (Qterm.var "H") ]);
    ]

let sub_entry_q =
  Qterm.el "sub"
    [
      Qterm.pos (Qterm.el "topic" [ Qterm.pos (Qterm.var "T") ]);
      Qterm.pos (Qterm.el "host" [ Qterm.pos (Qterm.var "H") ]);
    ]

let sub_entry_c =
  Construct.cel "sub"
    [
      Construct.cel "topic" [ Construct.cvar "T" ];
      Construct.cel "host" [ Construct.cvar "H" ];
    ]

let subscribe_rule =
  (* idempotent: drop any previous entry for (T, H) first *)
  Eca.make ~name:"subscribe"
    ~on:(Xchange_event.Event_query.on ~label:"subscribe" (topic_host_pattern "subscribe"))
    (Action.seq
       [
         Action.delete ~doc:subscribers_doc ~pattern:sub_entry_q ();
         Action.insert ~doc:subscribers_doc sub_entry_c;
       ])

let unsubscribe_rule =
  Eca.make ~name:"unsubscribe"
    ~on:(Xchange_event.Event_query.on ~label:"unsubscribe" (topic_host_pattern "unsubscribe"))
    (Action.delete ~doc:subscribers_doc ~pattern:sub_entry_q ())

let fanout_rule =
  (* one firing per subscriber answer: the per-answer ECA semantics does
     the fan-out *)
  let on_publish =
    Xchange_event.Event_query.on ~label:"publish"
      (Qterm.el "publish"
         [
           Qterm.pos (Qterm.el "topic" [ Qterm.pos (Qterm.var "T") ]);
           Qterm.pos (Qterm.As ("B", Qterm.el "body" []));
         ])
  in
  let subscriber_condition =
    Condition.In
      ( Condition.Local subscribers_doc,
        Qterm.el "sub"
          [
            Qterm.pos (Qterm.el "topic" [ Qterm.pos (Qterm.var "T") ]);
            Qterm.pos (Qterm.el "host" [ Qterm.pos (Qterm.var "H") ]);
          ] )
  in
  Eca.make ~name:"fan-out" ~on:on_publish ~if_:subscriber_condition
    (Action.raise_event_to ~to_:(Builtin.ovar "H") ~label:"notify"
       (Construct.cel "notify"
          [ Construct.cel "topic" [ Construct.cvar "T" ]; Construct.cvar "B" ]))

let publisher_ruleset ?(name = "pubsub") () =
  Ruleset.make ~rules:[ subscribe_rule; unsubscribe_rule; fanout_rule ] name

let subscribe ~topic ~host =
  Term.elem "subscribe" [ Term.elem "topic" [ Term.text topic ]; Term.elem "host" [ Term.text host ] ]

let unsubscribe ~topic ~host =
  Term.elem "unsubscribe" [ Term.elem "topic" [ Term.text topic ]; Term.elem "host" [ Term.text host ] ]

let publish ~topic body =
  Term.elem "publish" [ Term.elem "topic" [ Term.text topic ]; Term.elem "body" [ body ] ]

(* the topic-grounded register query ([subscribers]'s oracle shape) *)
let subscribers_q topic =
  Qterm.el "sub"
    [
      Qterm.pos (Qterm.el "topic" [ Qterm.pos (Qterm.txt topic) ]);
      Qterm.pos (Qterm.el "host" [ Qterm.pos (Qterm.var "H") ]);
    ]

let hosts_of_answers answers =
  List.filter_map (fun s -> Option.bind (Subst.find "H" s) Term.as_text) answers
  |> List.sort_uniq String.compare

(* ---- subscription registry ------------------------------------------- *)

module Registry = struct
  (* Each live (topic, host) pair is registered in the sub-index as the
     query its notification must answer —
     [publish{topic{"<topic>"}}] — so a publish payload looks up only
     the subscribers its topic can satisfy (the topic literal is the
     trie's pivot leaf).  The payload carried by the registration is the
     host. *)
  type t = {
    index : string Sub_index.t;
    ids : (string * string, int) Hashtbl.t;  (* (topic, host) -> registration *)
    mutable dirty : bool;  (* register doc changed in an unrecognised way *)
    mutable exotic : bool;
        (* the register holds entries that are not plain root-level
           (topic, host) text pairs — fast paths off until that clears *)
    mutable store : Store.t option;  (* Some once attached *)
  }

  let subscription_q topic =
    Qterm.el "publish" [ Qterm.pos (Qterm.el "topic" [ Qterm.pos (Qterm.txt topic) ]) ]

  let publish_probe topic =
    Term.elem "publish" [ Term.elem "topic" [ Term.text topic ] ]

  let create () =
    {
      index = Sub_index.create ();
      ids = Hashtbl.create 64;
      dirty = false;
      exotic = false;
      store = None;
    }

  let size reg = Hashtbl.length reg.ids
  let stats reg = Sub_index.stats reg.index
  let metrics reg = Sub_index.metrics reg.index
  let exotic reg = reg.exotic
  let synced reg = (not reg.dirty) && not reg.exotic

  let subscribe reg ~topic ~host =
    if not (Hashtbl.mem reg.ids (topic, host)) then
      Hashtbl.replace reg.ids (topic, host)
        (Sub_index.register reg.index (subscription_q topic) host)

  let unsubscribe reg ~topic ~host =
    match Hashtbl.find_opt reg.ids (topic, host) with
    | None -> false
    | Some id ->
        Hashtbl.remove reg.ids (topic, host);
        ignore (Sub_index.remove reg.index id);
        true

  let clear reg =
    Hashtbl.iter (fun _ id -> ignore (Sub_index.remove reg.index id)) reg.ids;
    Hashtbl.reset reg.ids

  let pair_subst (t, h) =
    Option.get (Subst.of_list [ ("T", Term.text t); ("H", Term.text h) ])

  (* Rebuild the mirror from the register document.  The mirror is used
     only when every register answer comes from a root-level entry that
     denotes exactly one (Text, Text) pair; anything else (nested or
     multi-answer entries, non-text topics/hosts) sets [exotic] and the
     document stays the source of truth. *)
  let resync reg =
    clear reg;
    reg.dirty <- false;
    reg.exotic <- false;
    match Option.bind reg.store (fun store -> Store.doc store subscribers_doc) with
    | None -> ()
    | Some d ->
        let pairs = ref [] in
        List.iter
          (fun c ->
            match Simulate.matches sub_entry_q c with
            | [] -> ()
            | [ s ] -> (
                match (Subst.find "T" s, Subst.find "H" s) with
                | Some (Term.Text t), Some (Term.Text h) -> pairs := (t, h) :: !pairs
                | _ -> reg.exotic <- true)
            | _ -> reg.exotic <- true)
          (Term.children d);
        if not reg.exotic then begin
          let mirrored = Subst.dedup (List.map pair_subst !pairs) in
          let actual = Simulate.matches_anywhere sub_entry_q d in
          if
            List.length mirrored = List.length actual
            && List.for_all2 Subst.equal mirrored actual
          then List.iter (fun (t, h) -> subscribe reg ~topic:t ~host:h) !pairs
          else reg.exotic <- true
        end

  let sync reg = if reg.dirty then resync reg

  (* hosts whose registered subscription query confirms against the term *)
  let confirmed_hosts reg term =
    Sub_index.matching reg.index term
    |> List.map (fun (_, h, _) -> h)
    |> List.sort_uniq String.compare

  let oracle_subscribers store ~topic =
    match Store.doc store subscribers_doc with
    | None -> []
    | Some register -> hosts_of_answers (Simulate.matches_anywhere (subscribers_q topic) register)

  (* oracle for arbitrary publish payloads: every text pair the register
     answers, kept when its subscription query holds on the payload *)
  let oracle_match_publish store payload =
    match Store.doc store subscribers_doc with
    | None -> []
    | Some register ->
        Simulate.matches_anywhere sub_entry_q register
        |> List.filter_map (fun s ->
               match
                 ( Option.bind (Subst.find "T" s) Term.as_text,
                   Option.bind (Subst.find "H" s) Term.as_text )
               with
               | Some t, Some h when Simulate.holds (subscription_q t) payload -> Some h
               | _ -> None)
        |> List.sort_uniq String.compare

  let subscribers reg ~topic =
    sync reg;
    if reg.exotic then
      match reg.store with Some store -> oracle_subscribers store ~topic | None -> []
    else confirmed_hosts reg (publish_probe topic)

  let match_publish reg payload =
    sync reg;
    if reg.exotic then
      match reg.store with Some store -> oracle_match_publish store payload | None -> []
    else confirmed_hosts reg payload

  (* ---- store integration ---- *)

  (* the delete pattern the subscribe/unsubscribe rules produce once the
     engine has grounded T and H ([Action] seeds bound variables as
     [Text_is] leaves) *)
  let grounded_pair q =
    match q with
    | Qterm.El
        {
          label = Qterm.L "sub";
          children =
            [
              Qterm.Pos
                (Qterm.El
                   { label = Qterm.L "topic"; children = [ Qterm.Pos (Qterm.Leaf (Qterm.Text_is t)) ]; _ });
              Qterm.Pos
                (Qterm.El
                   { label = Qterm.L "host"; children = [ Qterm.Pos (Qterm.Leaf (Qterm.Text_is h)) ]; _ });
            ];
          _;
        }
      when q
           = Qterm.el "sub"
               [
                 Qterm.pos (Qterm.el "topic" [ Qterm.pos (Qterm.Leaf (Qterm.Text_is t)) ]);
                 Qterm.pos (Qterm.el "host" [ Qterm.pos (Qterm.Leaf (Qterm.Text_is h)) ]);
               ] ->
        Some (t, h)
    | _ -> None

  (* content inserted at the register root that is itself one clean
     entry: rooted match and anywhere-match agree on a single text pair *)
  let clean_entry content =
    match
      (Simulate.matches sub_entry_q content, Simulate.matches_anywhere sub_entry_q content)
    with
    | [], [] -> `Inert
    | [ s ], [ s' ] when Subst.equal s s' -> (
        match (Subst.find "T" s, Subst.find "H" s) with
        | Some (Term.Text t), Some (Term.Text h) -> `Pair (t, h)
        | _ -> `Unrecognised)
    | _ -> `Unrecognised

  let observe reg ch =
    if not reg.dirty then
      if reg.exotic then begin
        (* degraded mode: any further register change re-triggers the
           full resync, which may find the register clean again *)
        match ch with
        | Store.Ch_update u when String.equal (Action.update_doc u) subscribers_doc ->
            reg.dirty <- true
        | Store.Ch_doc name when String.equal name subscribers_doc -> reg.dirty <- true
        | Store.Ch_restore -> reg.dirty <- true
        | Store.Ch_update _ | Store.Ch_doc _ -> ()
      end
      else
        match ch with
        | Store.Ch_update (Action.U_insert { doc; selector = []; content; at = _ })
          when String.equal doc subscribers_doc -> (
            match clean_entry content with
            | `Pair (t, h) -> subscribe reg ~topic:t ~host:h
            | `Inert -> ()
            | `Unrecognised -> reg.dirty <- true)
        | Store.Ch_update (Action.U_delete { doc; selector = []; pattern = Some q })
          when String.equal doc subscribers_doc -> (
            match grounded_pair q with
            | Some (t, h) -> ignore (unsubscribe reg ~topic:t ~host:h)
            | None -> reg.dirty <- true)
        | Store.Ch_update u when String.equal (Action.update_doc u) subscribers_doc ->
            reg.dirty <- true
        | Store.Ch_update _ -> ()
        | Store.Ch_doc name -> if String.equal name subscribers_doc then reg.dirty <- true
        | Store.Ch_restore -> reg.dirty <- true

  (* the [Store.query] fast path: serve the two register query shapes
     the rules and [subscribers] use; anything else falls back *)
  let answer reg ~seed q =
    sync reg;
    if reg.exotic then None
    else if q = sub_entry_q then
      match Subst.find "T" seed with
      | Some (Term.Text t) ->
          Some
            (Subst.dedup
               (List.filter_map
                  (fun h -> Subst.add "H" (Term.text h) seed)
                  (confirmed_hosts reg (publish_probe t))))
      | Some _ ->
          (* a non-text topic binding cannot equal any mirrored entry *)
          Some Subst.set_empty
      | None ->
          Some
            (Subst.dedup
               (Hashtbl.fold
                  (fun (t, h) _ acc ->
                    match
                      Option.bind (Subst.add "T" (Term.text t) seed) (Subst.add "H" (Term.text h))
                    with
                    | Some s -> s :: acc
                    | None -> acc)
                  reg.ids []))
    else
      match q with
      | Qterm.El
          {
            label = Qterm.L "sub";
            children =
              Qterm.Pos
                (Qterm.El
                   { label = Qterm.L "topic"; children = [ Qterm.Pos (Qterm.Leaf (Qterm.Text_is t)) ]; _ })
              :: _;
            _;
          }
        when q = subscribers_q t ->
          Some
            (Subst.dedup
               (List.filter_map
                  (fun h -> Subst.add "H" (Term.text h) seed)
                  (confirmed_hosts reg (publish_probe t))))
      | _ -> None

  let attach store =
    let reg = create () in
    reg.store <- Some store;
    reg.dirty <- true;
    Store.on_change store (observe reg);
    if not Xchange_core.Escape.no_subindex then
      Store.set_dynamic store subscribers_doc (answer reg);
    reg
end

let subscribers ?(index = not Xchange_core.Escape.no_subindex) store ~topic =
  if not index then Registry.oracle_subscribers store ~topic
  else hosts_of_answers (Store.query store ~doc:subscribers_doc (subscribers_q topic))
