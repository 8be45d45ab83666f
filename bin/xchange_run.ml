(* xchange-run: command-line front end for XChange-OCaml programs.

   Subcommands:
     check   <program.xch>                      parse + validate
     print   <program.xch>                      parse and pretty-print
     run     <program.xch> [options]            run on a one-node Web
     reify   <program.xch>                      print the Thesis 11 wire form

   `run` loads documents (--doc NAME=FILE.xml), injects events from an
   events file (--events FILE.xml, root <events> with <event label="..">
   children wrapping one payload element each, optional at="ms"
   attributes), advances the simulated clock (--until MS) and prints the
   node's log, firing count, and final documents. *)

open Xchange

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load_program path =
  match Parser.parse_program (read_file path) with
  | Ok rs -> Ok rs
  | Error e -> Error (Fmt.str "%s: %s" path e)

let or_die = function
  | Ok v -> v
  | Error e ->
      Fmt.epr "error: %s@." e;
      exit 1

(* ---- check ---- *)

let check_cmd path =
  let rs = or_die (load_program path) in
  (match Engine.create rs with
  | Ok engine -> (
      Fmt.pr "OK: %d rule(s): %s@."
        (List.length (Engine.rule_names engine))
        (String.concat ", " (Engine.rule_names engine));
      (* [create] has stratified the derivation program already *)
      match Result.get_ok (Deductive_event.stratify (Ruleset.all_event_rules rs)) with
      | [] -> ()
      | derivations ->
          Fmt.pr "%d derivation rule(s), in stratum order: %s@." (List.length derivations)
            (String.concat ", " (List.map (fun r -> r.Deductive_event.name) derivations)))
  | Error e ->
      Fmt.epr "invalid program: %s@." e;
      exit 1);
  0

(* ---- print ---- *)

let print_cmd path =
  let rs = or_die (load_program path) in
  Fmt.pr "%s@." (Printer.ruleset_to_string rs);
  0

(* ---- reify ---- *)

let reify_cmd path =
  let rs = or_die (load_program path) in
  Fmt.pr "%s@." (Xml.to_string ~decl:true (Meta.ruleset_to_term rs));
  0

(* ---- run ---- *)

let parse_events path =
  let doc = Xml.parse_exn (read_file path) in
  match Term.label doc with
  | Some "events" ->
      List.filter_map
        (fun child ->
          match (Term.label child, Term.children child) with
          | Some "event", [ payload ] ->
              let label =
                match Term.attr "label" child with
                | Some l -> l
                | None -> Option.value ~default:"event" (Term.label payload)
              in
              let at =
                match Term.attr "at" child with
                | Some s -> int_of_string_opt s
                | None -> None
              in
              Some (Option.value ~default:0 at, label, payload)
          | _, _ -> None)
        (Term.children doc)
  | _ -> failwith "events file must have an <events> root"

let run_cmd path docs events_file until host verbose load save show_messages trace_out metrics =
  let rs = or_die (load_program path) in
  if trace_out <> None then begin
    Obs.set_enabled true;
    Obs.Trace.clear ()
  end;
  let node = or_die (node ~host rs) in
  (match load with
  | Some file -> (
      match Store.restore (Xml.parse_exn (read_file file)) with
      | Ok restored ->
          List.iter
            (fun name -> Store.add_doc (Node.store node) name (Option.get (Store.doc restored name)))
            (Store.doc_names restored);
          List.iter
            (fun name -> Store.add_rdf (Node.store node) name (Option.get (Store.rdf restored name)))
            (Store.rdf_names restored)
      | Error e -> or_die (Error e))
  | None -> ());
  List.iter
    (fun (name, file) -> Store.add_doc (Node.store node) name (Xml.parse_exn (read_file file)))
    docs;
  let net = Network.create ~record:show_messages () in
  Network.add_node_exn net node;
  Network.enable_heartbeat net ~period:(max 1 (until / 100));
  let events =
    match events_file with
    | Some f -> List.sort (fun (a, _, _) (b, _, _) -> compare a b) (parse_events f)
    | None -> []
  in
  List.iter
    (fun (at, label, payload) ->
      if at > Network.clock net then Network.run net ~until:at;
      Network.inject net ~to_:host ~label payload)
    events;
  Network.run net ~until;
  Fmt.pr "== log of %s ==@." host;
  List.iter (Fmt.pr "  %s@.") (Node.logs node);
  Fmt.pr "== %d firing(s), %d error(s), %d message(s) ==@." (Node.firings node)
    (List.length (Node.errors node))
    (Network.transport_stats net).Transport.messages;
  if verbose then begin
    List.iter
      (fun (rule, msg) -> Fmt.pr "  error in %s: %s@." rule msg)
      (Node.errors node);
    List.iter
      (fun name ->
        Fmt.pr "== %s ==@.%s@." name
          (Xml.to_string (Option.get (Store.doc (Node.store node) name))))
      (Store.doc_names (Node.store node))
  end;
  if show_messages then begin
    Fmt.pr "== message trace ==@.";
    List.iter (fun m -> Fmt.pr "  %a@." Message.pp m) (Network.trace net)
  end;
  if metrics then Fmt.pr "== metrics ==@.%s@." (Network.metrics_json net);
  (match trace_out with
  | Some file ->
      let oc = open_out file in
      output_string oc (Json.to_string ~pretty:true (Obs.Trace.to_chrome_json ()));
      output_char oc '\n';
      close_out oc;
      Fmt.pr "== causal trace (%d span(s), %d evicted) ==@."
        (List.length (Obs.Trace.spans ()))
        (Obs.Trace.dropped ());
      Obs.Trace.pp_tree Fmt.stdout ();
      Fmt.pr "trace written to %s (load in chrome://tracing or Perfetto)@." file
  | None -> ());
  (match save with
  | Some file ->
      let oc = open_out file in
      output_string oc (Xml.to_string ~decl:true (Store.snapshot (Node.store node)));
      close_out oc;
      Fmt.pr "store saved to %s@." file
  | None -> ());
  0

(* ---- cmdliner wiring ---- *)

open Cmdliner

let program_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM" ~doc:"XChange program file")

let check_t = Term.(const check_cmd $ program_arg)

let check_info = Cmd.info "check" ~doc:"Parse and validate a program"

let print_t = Term.(const print_cmd $ program_arg)
let print_info = Cmd.info "print" ~doc:"Parse and pretty-print a program"

let reify_t = Term.(const reify_cmd $ program_arg)

let reify_info =
  Cmd.info "reify" ~doc:"Print the program as a rules-as-data XML message (Thesis 11)"

let docs_arg =
  Arg.(
    value
    & opt_all (pair ~sep:'=' string file) []
    & info [ "doc" ] ~docv:"NAME=FILE" ~doc:"Load an XML document into the node's store")

let events_arg =
  Arg.(value & opt (some file) None & info [ "events" ] ~docv:"FILE" ~doc:"Events to inject")

let until_arg =
  Arg.(value & opt int 10_000 & info [ "until" ] ~docv:"MS" ~doc:"Simulated run time (ms)")

let host_arg =
  Arg.(value & opt string "node.example" & info [ "host" ] ~docv:"HOST" ~doc:"Node host name")

let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print errors and final documents")

let load_arg =
  Arg.(value & opt (some file) None & info [ "load" ] ~docv:"FILE" ~doc:"Restore a store snapshot before running")

let save_arg =
  Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc:"Save the final store snapshot")

let messages_arg =
  Arg.(value & flag & info [ "messages" ] ~doc:"Print every message on the wire")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Enable causal span tracing and write a Chrome trace_event JSON to $(docv) \
           (open in chrome://tracing or Perfetto); also prints a compact span tree")

let metrics_arg =
  Arg.(value & flag & info [ "metrics" ] ~doc:"Print the whole-system metrics snapshot as JSON")

let run_t =
  Term.(
    const run_cmd $ program_arg $ docs_arg $ events_arg $ until_arg $ host_arg $ verbose_arg
    $ load_arg $ save_arg $ messages_arg $ trace_arg $ metrics_arg)
let run_info = Cmd.info "run" ~doc:"Run a program on a simulated one-node Web"

let main =
  Cmd.group
    (Cmd.info "xchange-run" ~version:"1.0.0"
       ~doc:"Reactive ECA rules for the Web (Bry & Eckert, EDBT 2006) — reference implementation")
    [
      Cmd.v check_info check_t;
      Cmd.v print_info print_t;
      Cmd.v reify_info reify_t;
      Cmd.v run_info run_t;
    ]

let () = exit (Cmd.eval' main)
