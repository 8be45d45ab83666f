(** XChange-OCaml: reactive Event-Condition-Action rules for a (simulated)
    Web — a full reproduction of the system specified by Bry & Eckert,
    "Twelve Theses on Reactive Rules for the Web" (EDBT 2006).

    This façade re-exports every sub-library under short names and adds
    the small amount of wiring that crosses layer boundaries (installing
    the {!Lang} rule decoder on {!Web} nodes).  See DESIGN.md for the
    thesis-by-thesis inventory and EXPERIMENTS.md for the evaluation.

    {1 Layers}

    - {!Term}, {!Path}, {!Xml}, {!Rdf}, {!Identity} — the data substrate
    - {!Qterm}, {!Simulate}, {!Construct}, {!Condition}, {!Deductive},
      {!Subst}, {!Builtin} — the embedded Web query language (Thesis 7)
    - {!Clock}, {!Event}, {!Event_query}, {!Incremental}, {!Backward},
      {!History}, {!Instance}, {!Istore}, {!Deductive_event} — events and composite
      event queries (Theses 4-6)
    - {!Action}, {!Eca}, {!Production}, {!Derive}, {!Ruleset}, {!Engine}
      — reactive rules (Theses 1, 8, 9)
    - {!Uri}, {!Message}, {!Store}, {!Sched}, {!Transport}, {!Node},
      {!Network}, {!Poll}, {!Cookie} — the Web substrate (Theses 2, 3,
      10), all sharing one discrete-event timeline ({!Sched})
    - {!Lexer}, {!Parser}, {!Printer}, {!Meta} — the surface language
      and meta-programming (Thesis 11)
    - {!Auth}, {!Authz}, {!Accounting}, {!Trust} — AAA (Theses 11, 12)
*)

(* base *)
module Escape = Xchange_core.Escape

(* observability *)
module Obs = Xchange_obs.Obs
module Json = Xchange_obs.Json

(* data *)
module Term = Xchange_data.Term
module Path = Xchange_data.Path
module Xml = Xchange_data.Xml
module Rdf = Xchange_data.Rdf
module Identity = Xchange_data.Identity
module Topic_map = Xchange_data.Topic_map

(* query *)
module Lru = Xchange_query.Lru
module Subst = Xchange_query.Subst
module Qterm = Xchange_query.Qterm
module Simulate = Xchange_query.Simulate
module Plan = Xchange_query.Plan
module Sub_index = Xchange_query.Sub_index
module Builtin = Xchange_query.Builtin
module Construct = Xchange_query.Construct
module Condition = Xchange_query.Condition
module Deductive = Xchange_query.Deductive

(* events *)
module Clock = Xchange_event.Clock
module Event = Xchange_event.Event
module Instance = Xchange_event.Instance
module Istore = Xchange_event.Istore
module Event_query = Xchange_event.Event_query
module History = Xchange_event.History
module Backward = Xchange_event.Backward
module Incremental = Xchange_event.Incremental
module Deductive_event = Xchange_event.Deductive_event

(* rules *)
module Action = Xchange_rules.Action
module Alpha = Xchange_rules.Alpha
module Beta = Xchange_rules.Beta
module Eca = Xchange_rules.Eca
module Production = Xchange_rules.Production
module Derive = Xchange_rules.Derive
module Ruleset = Xchange_rules.Ruleset
module Engine = Xchange_rules.Engine

(* web *)
module Uri = Xchange_web.Uri
module Message = Xchange_web.Message
module Store = Xchange_web.Store
module Wal = Xchange_web.Wal
module Sched = Xchange_web.Sched
module Partition = Xchange_web.Partition
module Transport = Xchange_web.Transport
module Node = Xchange_web.Node
module Network = Xchange_web.Network
module Poll = Xchange_web.Poll
module Cookie = Xchange_web.Cookie
module Pubsub = Xchange_web.Pubsub

(* language *)
module Lexer = Xchange_lang.Lexer
module Parser = Xchange_lang.Parser
module Printer = Xchange_lang.Printer
module Meta = Xchange_lang.Meta

(* aaa *)
module Auth = Xchange_aaa.Auth
module Authz = Xchange_aaa.Authz
module Accounting = Xchange_aaa.Accounting
module Trust = Xchange_aaa.Trust

(** Create a node with the {!Meta} rule decoder installed, so that rule
    sets received as [xchange:rules] events are loaded (Thesis 11). *)
let node ?horizon ?accept_rules ?accept_updates ?durable ~host ruleset =
  match Node.create ?horizon ?accept_rules ?accept_updates ?durable ~host ruleset with
  | Error _ as e -> e
  | Ok n ->
      Node.set_rule_decoder n Meta.ruleset_of_term;
      Ok n

let node_exn ?horizon ?accept_rules ?accept_updates ?durable ~host ruleset =
  match node ?horizon ?accept_rules ?accept_updates ?durable ~host ruleset with
  | Ok n -> n
  | Error e -> invalid_arg ("Xchange.node: " ^ e)

(** Create a node from surface-syntax program text. *)
let node_of_program ?horizon ?accept_rules ?accept_updates ?durable ~host src =
  match Parser.parse_program src with
  | Error e -> Error ("parse error: " ^ e)
  | Ok ruleset -> node ?horizon ?accept_rules ?accept_updates ?durable ~host ruleset

(** {1 EDSL shorthands} — concise builders used by the examples and
    benches; everything they produce can equally be written in surface
    syntax and parsed. *)
module Edsl = struct
  let t_el = Term.elem
  let t_txt = Term.text
  let t_num = Term.num
  let t_int = Term.int

  let q_el = Qterm.el
  let q_var = Qterm.var
  let q_txt = Qterm.txt
  let q_pos = Qterm.pos

  (** [q_child label inner] — the ubiquitous [label\[inner\]] pattern. *)
  let q_child label inner = Qterm.el label [ Qterm.pos inner ]

  (** [q_kv label v] — [label\[var v\]]. *)
  let q_kv label v = q_child label (Qterm.var v)

  let c_el = Construct.cel
  let c_var = Construct.cvar
  let c_txt = Construct.ctext
  let c_kv label v = Construct.cel label [ Construct.cvar v ]

  let on = Event_query.on
  let rule = Eca.make
end
