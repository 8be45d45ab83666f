(* What a run is observed to do: the outputs its correctness is judged
   by.  Layer costs (bytes, WAL sizes, cache traffic) are not outputs. *)

open Xchange

type host_state = {
  firings : int;
  logs : string list;  (** sorted *)
  errors : (string * string) list;
  store : string;  (** the store snapshot, serialised *)
}

let host_state n =
  {
    firings = Node.firings n;
    logs = List.sort String.compare (Node.logs n);
    errors = Node.errors n;
    store = Term.to_string (Store.snapshot (Node.store n));
  }

let states net = List.map (fun h -> (h, host_state (Network.node_exn net h))) (Network.hosts net)

(* One hex digest over every host's firings, logs, errors and store,
   the message, drop and duplicate counts, and the final virtual clock.
   Strings are length-prefixed so no two output sets serialise alike. *)
let digest net ~clock =
  let b = Buffer.create 65536 in
  let str s = Buffer.add_string b (Printf.sprintf "%d:%s" (String.length s) s) in
  let int n = Buffer.add_string b (Printf.sprintf "%d;" n) in
  List.iter
    (fun (h, s) ->
      str h;
      int s.firings;
      int (List.length s.logs);
      List.iter str s.logs;
      int (List.length s.errors);
      List.iter (fun (r, e) -> str r; str e) s.errors;
      str s.store)
    (states net);
  let ts = Network.transport_stats net in
  List.iter int [ ts.Transport.messages; ts.Transport.dropped; ts.Transport.duplicated; clock ];
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Hosts whose state differs between two observations. *)
let differing before after =
  List.filter_map
    (fun (h, s) ->
      match List.assoc_opt h after with
      | Some s' when s = s' -> None
      | Some s' ->
          let what =
            List.filter_map
              (fun (field, same) -> if same then None else Some field)
              [
                ("firings", s.firings = s'.firings);
                ("logs", s.logs = s'.logs);
                ("errors", s.errors = s'.errors);
                ("store", String.equal s.store s'.store);
              ]
          in
          Some (h ^ " (" ^ String.concat ", " what ^ ")")
      | None -> Some (h ^ " (missing)"))
    before

(* Failed operations: rule errors on every host plus remote reads that
   found no fetched snapshot. *)
let failures net =
  List.fold_left
    (fun acc h -> acc + List.length (Node.errors (Network.node_exn net h)))
    (Network.fallback_misses net) (Network.hosts net)
