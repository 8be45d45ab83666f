open Xchange_data
open Xchange_event
open Xchange_query
open Xchange_rules
open Xchange_obs

type tail_entry = T_event of Event.t | T_advance of Clock.time

type snapshot = {
  s_at : Clock.time;
  s_store : Term.t;
  s_event_n : int;
  s_msg_n : int;
  s_req_n : int;
  s_firings : int;
  s_seen : int list;
  s_seen_updates : (string * int) list;
  s_logs : string list;
  s_errors : (string * string) list;
  s_tail : tail_entry list;
}

type record =
  | Event of Event.t
  | Remote_update of { from : string; msg_id : int; at : Clock.time; update : Action.update }
  | Advance of Clock.time
  | Update of Action.update
  | Firing of { rule : string; at : Clock.time }
  | Snapshot of snapshot

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, reflected, table-driven)                         *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(* on native [int]s (63 bits, so every 32-bit value fits), with no
   boxed [Int32] per byte *)
let crc32 s =
  let c = ref 0xFFFFFFFF in
  for i = 0 to String.length s - 1 do
    c := crc_table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

(* ------------------------------------------------------------------ *)
(* Binary codec.  Fixed-width little-endian scalars, u32 length
   prefixes for strings and lists — the simplest format that a torn or
   bit-flipped tail cannot make ambiguous once the frame checksum has
   vouched for the payload. *)

let w_u8 b n = Buffer.add_uint8 b (n land 0xff)
let w_u32 b n = Buffer.add_int32_le b (Int32.of_int n)
let w_i64 b n = Buffer.add_int64_le b (Int64.of_int n)
let w_f64 b f = Buffer.add_int64_le b (Int64.bits_of_float f)

let w_str b s =
  w_u32 b (String.length s);
  Buffer.add_string b s

let w_bool b v = w_u8 b (if v then 1 else 0)

let w_opt w b = function
  | None -> w_u8 b 0
  | Some v ->
      w_u8 b 1;
      w b v

let w_list w b xs =
  w_u32 b (List.length xs);
  List.iter (w b) xs

exception Decode of string

type cursor = { s : string; mutable pos : int }

let need c n = if c.pos + n > String.length c.s then raise (Decode "payload ends early")

let r_u8 c =
  need c 1;
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

let r_u32 c =
  need c 4;
  let v = String.get_int32_le c.s c.pos in
  c.pos <- c.pos + 4;
  Int32.to_int v land 0xffffffff

let r_i64 c =
  need c 8;
  let v = String.get_int64_le c.s c.pos in
  c.pos <- c.pos + 8;
  Int64.to_int v

let r_f64 c =
  need c 8;
  let v = String.get_int64_le c.s c.pos in
  c.pos <- c.pos + 8;
  Int64.float_of_bits v

let r_str c =
  let n = r_u32 c in
  need c n;
  let v = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  v

let r_bool c = match r_u8 c with 0 -> false | 1 -> true | n -> raise (Decode (Fmt.str "bad bool %d" n))

let r_opt r c = match r_u8 c with 0 -> None | 1 -> Some (r c) | n -> raise (Decode (Fmt.str "bad option tag %d" n))

let r_list r c =
  let n = r_u32 c in
  if n > String.length c.s then raise (Decode "list length exceeds payload");
  List.init n (fun _ -> r c)

let bad what tag = raise (Decode (Fmt.str "bad %s tag %d" what tag))

(* data terms — surrogate ids are identity, not value, and are
   reassigned by the store on load, so the codec drops them *)
let rec w_term b = function
  | Term.Elem e ->
      w_u8 b 0;
      w_str b e.Term.label;
      w_u8 b (match e.Term.ord with Term.Ordered -> 0 | Term.Unordered -> 1);
      w_list
        (fun b (k, v) ->
          w_str b k;
          w_str b v)
        b e.Term.attrs;
      w_list w_term b e.Term.children
  | Term.Text s ->
      w_u8 b 1;
      w_str b s
  | Term.Num f ->
      w_u8 b 2;
      w_f64 b f
  | Term.Bool v ->
      w_u8 b 3;
      w_bool b v

let rec r_term c =
  match r_u8 c with
  | 0 ->
      let label = r_str c in
      let ord = match r_u8 c with 0 -> Term.Ordered | 1 -> Term.Unordered | n -> bad "ordering" n in
      let attrs =
        r_list
          (fun c ->
            let k = r_str c in
            let v = r_str c in
            (k, v))
          c
      in
      let children = r_list r_term c in
      Term.elem ~ord ~attrs label children
  | 1 -> Term.Text (r_str c)
  | 2 -> Term.Num (r_f64 c)
  | 3 -> Term.Bool (r_bool c)
  | n -> bad "term" n

let w_selector b (sel : Path.selector) =
  w_list
    (fun b (axis, step) ->
      w_u8 b (match axis with Path.Child -> 0 | Path.Descendant -> 1);
      match step with
      | Path.Any -> w_u8 b 0
      | Path.Tag s ->
          w_u8 b 1;
          w_str b s)
    b sel

let r_selector c : Path.selector =
  r_list
    (fun c ->
      let axis = match r_u8 c with 0 -> Path.Child | 1 -> Path.Descendant | n -> bad "axis" n in
      let step =
        match r_u8 c with 0 -> Path.Any | 1 -> Path.Tag (r_str c) | n -> bad "step" n
      in
      (axis, step))
    c

let w_label_pat b = function
  | Qterm.L s ->
      w_u8 b 0;
      w_str b s
  | Qterm.L_var v ->
      w_u8 b 1;
      w_str b v
  | Qterm.L_any -> w_u8 b 2

let r_label_pat c =
  match r_u8 c with
  | 0 -> Qterm.L (r_str c)
  | 1 -> Qterm.L_var (r_str c)
  | 2 -> Qterm.L_any
  | n -> bad "label pattern" n

let w_leaf_pat b = function
  | Qterm.Leaf_any -> w_u8 b 0
  | Qterm.Text_is s ->
      w_u8 b 1;
      w_str b s
  | Qterm.Num_is f ->
      w_u8 b 2;
      w_f64 b f
  | Qterm.Bool_is v ->
      w_u8 b 3;
      w_bool b v
  | Qterm.Regex re ->
      w_u8 b 4;
      w_str b re

let r_leaf_pat c =
  match r_u8 c with
  | 0 -> Qterm.Leaf_any
  | 1 -> Qterm.Text_is (r_str c)
  | 2 -> Qterm.Num_is (r_f64 c)
  | 3 -> Qterm.Bool_is (r_bool c)
  | 4 -> Qterm.Regex (r_str c)
  | n -> bad "leaf pattern" n

let w_attr_pat b = function
  | Qterm.A_is s ->
      w_u8 b 0;
      w_str b s
  | Qterm.A_var v ->
      w_u8 b 1;
      w_str b v
  | Qterm.A_any -> w_u8 b 2

let r_attr_pat c =
  match r_u8 c with
  | 0 -> Qterm.A_is (r_str c)
  | 1 -> Qterm.A_var (r_str c)
  | 2 -> Qterm.A_any
  | n -> bad "attr pattern" n

let rec w_qterm b = function
  | Qterm.Var v ->
      w_u8 b 0;
      w_str b v
  | Qterm.As (v, q) ->
      w_u8 b 1;
      w_str b v;
      w_qterm b q
  | Qterm.Leaf l ->
      w_u8 b 2;
      w_leaf_pat b l
  | Qterm.El e ->
      w_u8 b 3;
      w_label_pat b e.Qterm.label;
      w_list
        (fun b (k, p) ->
          w_str b k;
          w_attr_pat b p)
        b e.Qterm.attrs;
      w_u8 b (match e.Qterm.ord with Term.Ordered -> 0 | Term.Unordered -> 1);
      w_u8 b (match e.Qterm.spec with Qterm.Total -> 0 | Qterm.Partial -> 1);
      w_list w_child b e.Qterm.children
  | Qterm.Desc q ->
      w_u8 b 4;
      w_qterm b q

and w_child b = function
  | Qterm.Pos q ->
      w_u8 b 0;
      w_qterm b q
  | Qterm.Without q ->
      w_u8 b 1;
      w_qterm b q
  | Qterm.Opt q ->
      w_u8 b 2;
      w_qterm b q

let rec r_qterm c =
  match r_u8 c with
  | 0 -> Qterm.Var (r_str c)
  | 1 ->
      let v = r_str c in
      Qterm.As (v, r_qterm c)
  | 2 -> Qterm.Leaf (r_leaf_pat c)
  | 3 ->
      let label = r_label_pat c in
      let attrs =
        r_list
          (fun c ->
            let k = r_str c in
            let p = r_attr_pat c in
            (k, p))
          c
      in
      let ord = match r_u8 c with 0 -> Term.Ordered | 1 -> Term.Unordered | n -> bad "ordering" n in
      let spec = match r_u8 c with 0 -> Qterm.Total | 1 -> Qterm.Partial | n -> bad "spec" n in
      let children = r_list r_child c in
      Qterm.El { Qterm.label; attrs; ord; spec; children }
  | 4 -> Qterm.Desc (r_qterm c)
  | n -> bad "query term" n

and r_child c =
  match r_u8 c with
  | 0 -> Qterm.Pos (r_qterm c)
  | 1 -> Qterm.Without (r_qterm c)
  | 2 -> Qterm.Opt (r_qterm c)
  | n -> bad "child pattern" n

let w_rdf_node b = function
  | Rdf.Iri s ->
      w_u8 b 0;
      w_str b s
  | Rdf.Blank s ->
      w_u8 b 1;
      w_str b s
  | Rdf.Lit s ->
      w_u8 b 2;
      w_str b s
  | Rdf.Lit_num f ->
      w_u8 b 3;
      w_f64 b f

let r_rdf_node c =
  match r_u8 c with
  | 0 -> Rdf.Iri (r_str c)
  | 1 -> Rdf.Blank (r_str c)
  | 2 -> Rdf.Lit (r_str c)
  | 3 -> Rdf.Lit_num (r_f64 c)
  | n -> bad "rdf node" n

let w_triple b { Rdf.s; p; o } =
  w_rdf_node b s;
  w_str b p;
  w_rdf_node b o

let r_triple c =
  let s = r_rdf_node c in
  let p = r_str c in
  let o = r_rdf_node c in
  { Rdf.s; p; o }

let w_update b = function
  | Action.U_insert { doc; selector; at; content } ->
      w_u8 b 0;
      w_str b doc;
      w_selector b selector;
      w_opt (fun b n -> w_i64 b n) b at;
      w_term b content
  | Action.U_delete { doc; selector; pattern } ->
      w_u8 b 1;
      w_str b doc;
      w_selector b selector;
      w_opt w_qterm b pattern
  | Action.U_replace { doc; selector; content } ->
      w_u8 b 2;
      w_str b doc;
      w_selector b selector;
      w_term b content
  | Action.U_create_doc { doc; content } ->
      w_u8 b 3;
      w_str b doc;
      w_term b content
  | Action.U_delete_doc { doc } ->
      w_u8 b 4;
      w_str b doc
  | Action.U_rdf_assert { doc; triple } ->
      w_u8 b 5;
      w_str b doc;
      w_triple b triple
  | Action.U_rdf_retract { doc; triple } ->
      w_u8 b 6;
      w_str b doc;
      w_triple b triple

let r_update c =
  match r_u8 c with
  | 0 ->
      let doc = r_str c in
      let selector = r_selector c in
      let at = r_opt r_i64 c in
      let content = r_term c in
      Action.U_insert { doc; selector; at; content }
  | 1 ->
      let doc = r_str c in
      let selector = r_selector c in
      let pattern = r_opt r_qterm c in
      Action.U_delete { doc; selector; pattern }
  | 2 ->
      let doc = r_str c in
      let selector = r_selector c in
      let content = r_term c in
      Action.U_replace { doc; selector; content }
  | 3 ->
      let doc = r_str c in
      let content = r_term c in
      Action.U_create_doc { doc; content }
  | 4 -> Action.U_delete_doc { doc = r_str c }
  | 5 ->
      let doc = r_str c in
      let triple = r_triple c in
      Action.U_rdf_assert { doc; triple }
  | 6 ->
      let doc = r_str c in
      let triple = r_triple c in
      Action.U_rdf_retract { doc; triple }
  | n -> bad "update" n

let w_event b (e : Event.t) =
  w_i64 b e.Event.id;
  w_str b e.Event.label;
  w_str b e.Event.sender;
  w_str b e.Event.recipient;
  w_i64 b e.Event.occurred_at;
  w_i64 b e.Event.received_at;
  w_opt w_i64 b e.Event.expires_at;
  w_term b e.Event.payload

let r_event c =
  let id = r_i64 c in
  let label = r_str c in
  let sender = r_str c in
  let recipient = r_str c in
  let occurred_at = r_i64 c in
  let received_at = r_i64 c in
  let expires_at = r_opt r_i64 c in
  let payload = r_term c in
  let ttl = Option.map (fun e -> e - occurred_at) expires_at in
  Event.make ~id ~sender ~recipient ~received_at ?ttl ~occurred_at ~label payload

let w_tail_entry b = function
  | T_event e ->
      w_u8 b 0;
      w_event b e
  | T_advance tm ->
      w_u8 b 1;
      w_i64 b tm

let r_tail_entry c =
  match r_u8 c with
  | 0 -> T_event (r_event c)
  | 1 -> T_advance (r_i64 c)
  | n -> bad "tail entry" n

let w_record b = function
  | Event e ->
      w_u8 b 1;
      w_event b e
  | Remote_update { from; msg_id; at; update } ->
      w_u8 b 2;
      w_str b from;
      w_i64 b msg_id;
      w_i64 b at;
      w_update b update
  | Advance tm ->
      w_u8 b 3;
      w_i64 b tm
  | Update u ->
      w_u8 b 4;
      w_update b u
  | Firing { rule; at } ->
      w_u8 b 5;
      w_str b rule;
      w_i64 b at
  | Snapshot s ->
      w_u8 b 6;
      w_i64 b s.s_at;
      w_term b s.s_store;
      w_i64 b s.s_event_n;
      w_i64 b s.s_msg_n;
      w_i64 b s.s_req_n;
      w_i64 b s.s_firings;
      w_list w_i64 b s.s_seen;
      w_list
        (fun b (h, n) ->
          w_str b h;
          w_i64 b n)
        b s.s_seen_updates;
      w_list w_str b s.s_logs;
      w_list
        (fun b (r, m) ->
          w_str b r;
          w_str b m)
        b s.s_errors;
      w_list w_tail_entry b s.s_tail

let r_record c =
  match r_u8 c with
  | 1 -> Event (r_event c)
  | 2 ->
      let from = r_str c in
      let msg_id = r_i64 c in
      let at = r_i64 c in
      let update = r_update c in
      Remote_update { from; msg_id; at; update }
  | 3 -> Advance (r_i64 c)
  | 4 -> Update (r_update c)
  | 5 ->
      let rule = r_str c in
      let at = r_i64 c in
      Firing { rule; at }
  | 6 ->
      let s_at = r_i64 c in
      let s_store = r_term c in
      let s_event_n = r_i64 c in
      let s_msg_n = r_i64 c in
      let s_req_n = r_i64 c in
      let s_firings = r_i64 c in
      let s_seen = r_list r_i64 c in
      let s_seen_updates =
        r_list
          (fun c ->
            let h = r_str c in
            let n = r_i64 c in
            (h, n))
          c
      in
      let s_logs = r_list r_str c in
      let s_errors =
        r_list
          (fun c ->
            let r = r_str c in
            let m = r_str c in
            (r, m))
          c
      in
      let s_tail = r_list r_tail_entry c in
      Snapshot
        {
          s_at;
          s_store;
          s_event_n;
          s_msg_n;
          s_req_n;
          s_firings;
          s_seen;
          s_seen_updates;
          s_logs;
          s_errors;
          s_tail;
        }
  | n -> bad "record" n

(* ------------------------------------------------------------------ *)
(* The device: an append-only buffer of [len u32][crc u32][payload]
   frames.  The checksum covers the payload only; the length field is
   validated against the remaining bytes, which is what distinguishes a
   torn write from a bit flip in the diagnostics. *)

(* The last [Snapshot] frame: its byte offset, its size (header
   included) and its index among the frames. *)
type snap = { off : int; size : int; index : int }

type t = {
  buf : Buffer.t;
  scratch : Buffer.t;
  mutable n_appended : int;
  mutable snap : snap option;
  mutable readable : bool;
      (* every byte belongs to a valid frame; only such a log is compacted *)
  c_appends : Obs.Metrics.Counter.t;
  c_appended_bytes : Obs.Metrics.Counter.t;
  c_snapshots : Obs.Metrics.Counter.t;
  c_snapshot_bytes : Obs.Metrics.Counter.t;
  c_compactions : Obs.Metrics.Counter.t;
  c_rollbacks : Obs.Metrics.Counter.t;
  c_corrupt : Obs.Metrics.Counter.t;
  c_replayed : Obs.Metrics.Counter.t;
}

let frame_header_bytes = 8
let max_frame_bytes = 1 lsl 30

(* the payload length in the header of the frame at [pos] *)
let frame_len s pos = Int32.to_int (String.get_int32_le s pos) land 0xffffffff

let create ?metrics () =
  let m = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  let t =
    {
      buf = Buffer.create 4096;
      scratch = Buffer.create 512;
      n_appended = 0;
      snap = None;
      readable = true;
      c_appends = Obs.Metrics.counter m "wal.appends";
      c_appended_bytes = Obs.Metrics.counter m "wal.appended_bytes";
      c_snapshots = Obs.Metrics.counter m "wal.snapshots";
      c_snapshot_bytes = Obs.Metrics.counter m "wal.snapshot_bytes";
      c_compactions = Obs.Metrics.counter m "wal.compactions";
      c_rollbacks = Obs.Metrics.counter m "wal.rollback_truncations";
      c_corrupt = Obs.Metrics.counter m "wal.corrupt_stops";
      c_replayed = Obs.Metrics.counter m "wal.replayed_updates";
    }
  in
  Obs.Metrics.gauge_fn m "wal.bytes" (fun () -> float_of_int (Buffer.length t.buf));
  Obs.Metrics.gauge_fn m "wal.records" (fun () -> float_of_int t.n_appended);
  t

let size_bytes t = Buffer.length t.buf
let appended t = t.n_appended

let append t r =
  Buffer.clear t.scratch;
  w_record t.scratch r;
  let payload = Buffer.contents t.scratch in
  let off = Buffer.length t.buf in
  w_u32 t.buf (String.length payload);
  Buffer.add_int32_le t.buf (crc32 payload);
  Buffer.add_string t.buf payload;
  let size = Buffer.length t.buf - off in
  Obs.Metrics.Counter.incr t.c_appends;
  Obs.Metrics.Counter.incr ~by:size t.c_appended_bytes;
  (match r with
  | Snapshot _ ->
      t.snap <- Some { off; size; index = t.n_appended };
      Obs.Metrics.Counter.incr t.c_snapshots;
      Obs.Metrics.Counter.incr ~by:size t.c_snapshot_bytes
  | Event _ | Remote_update _ | Advance _ | Update _ | Firing _ -> ());
  t.n_appended <- t.n_appended + 1

let snapshot_due t =
  match t.snap with
  | None -> true
  | Some s -> Buffer.length t.buf - (s.off + s.size) >= s.size

type mark = { m_bytes : int; m_records : int; m_snap : snap option }

let mark t = { m_bytes = Buffer.length t.buf; m_records = t.n_appended; m_snap = t.snap }

let truncate t m =
  if m.m_bytes < Buffer.length t.buf then begin
    Buffer.truncate t.buf m.m_bytes;
    t.n_appended <- m.m_records;
    t.snap <- m.m_snap;
    Obs.Metrics.Counter.incr t.c_rollbacks
  end

type stop = Clean | Corrupt of string

(* Fold [f] over the records of the longest valid prefix of [s], each
   with its frame's byte offset and size; also returns why decoding
   stopped and the byte offset where that prefix ends. *)
let fold_frames s ~init f =
  let total = String.length s in
  let stop acc pos why = (acc, Corrupt why, pos) in
  let rec go pos acc =
    if pos = total then (acc, Clean, pos)
    else if pos + frame_header_bytes > total then
      stop acc pos (Fmt.str "truncated tail: %d stray byte(s) after last record" (total - pos))
    else
      let len = frame_len s pos in
      let crc = String.get_int32_le s (pos + 4) in
      if len > max_frame_bytes then
        stop acc pos (Fmt.str "implausible frame length %d (corrupt header)" len)
      else if pos + frame_header_bytes + len > total then
        stop acc pos
          (Fmt.str "torn write: frame claims %d byte(s), only %d remain" len
             (total - pos - frame_header_bytes))
      else
        let payload = String.sub s (pos + frame_header_bytes) len in
        if crc32 payload <> crc then stop acc pos "checksum mismatch (bit flip or torn rewrite)"
        else
          match (try Ok (r_record { s = payload; pos = 0 }) with
                | Decode e -> Error e
                | Invalid_argument e -> Error e) with
          | Error e -> stop acc pos (Fmt.str "undecodable record: %s" e)
          | Ok r ->
              let size = frame_header_bytes + len in
              go (pos + size) (f acc ~off:pos ~size r)
  in
  go 0 init

let records t =
  let rs, stop, _ =
    fold_frames (Buffer.contents t.buf) ~init:[] (fun acc ~off:_ ~size:_ r -> r :: acc)
  in
  (match stop with Clean -> () | Corrupt _ -> Obs.Metrics.Counter.incr t.c_corrupt);
  (List.rev rs, stop)

let contents t = Buffer.contents t.buf

(* Re-derive the frame count and the last snapshot from the bytes, as a
   log loaded from them or cut to their valid prefix must. *)
let rescan t =
  let (n, snap), stop, valid_end =
    fold_frames (Buffer.contents t.buf) ~init:(0, None) (fun (n, snap) ~off ~size r ->
        (n + 1, match r with Snapshot _ -> Some { off; size; index = n } | _ -> snap))
  in
  t.n_appended <- n;
  t.snap <- snap;
  (stop, valid_end)

let of_string s =
  let t = create () in
  Buffer.add_string t.buf s;
  let stop, _ = rescan t in
  t.readable <- stop = Clean;
  t

let to_file t path =
  let oc = open_out_bin path in
  Buffer.output_buffer oc t.buf;
  close_out oc

let of_file path =
  match
    try
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Ok s
    with Sys_error e -> Error e
  with
  | Error e -> Error e
  | Ok s -> Ok (of_string s)

let drop_corrupt_tail t =
  if not t.readable then begin
    let stop, valid_end = rescan t in
    (match stop with Clean -> () | Corrupt _ -> Obs.Metrics.Counter.incr t.c_corrupt);
    Buffer.truncate t.buf valid_end;
    t.readable <- true
  end

(* Copy, frame by frame, the events [keep] pins before the last
   snapshot, then every byte from that snapshot on.  Only the pinned
   candidates are decoded: an [Event] frame's payload starts with
   [w_record]'s tag 1, and the event follows it in place. *)
let compact t ~keep =
  match t.snap with
  | Some s when t.readable ->
      let all = Buffer.contents t.buf in
      Buffer.clear t.buf;
      let rec pin pos pinned =
        if pos >= s.off then pinned
        else
          let len = frame_len all pos in
          let p = pos + frame_header_bytes in
          let kept = Char.code all.[p] = 1 && keep (r_event { s = all; pos = p + 1 }) in
          if kept then Buffer.add_substring t.buf all pos (frame_header_bytes + len);
          pin (p + len) (if kept then pinned + 1 else pinned)
      in
      let pinned = pin 0 0 in
      let off = Buffer.length t.buf in
      Buffer.add_substring t.buf all s.off (String.length all - s.off);
      t.n_appended <- pinned + (t.n_appended - s.index);
      t.snap <- Some { s with off; index = pinned };
      Obs.Metrics.Counter.incr t.c_compactions
  | Some _ | None -> () (* nothing to cut, or a log we cannot fully read: never rewrite it *)

let replay_store t store =
  let rs, _stop = records t in
  let rec go applied = function
    | [] -> Ok applied
    | Update u :: rest -> (
        match Store.apply store u with
        | Ok _ ->
            Obs.Metrics.Counter.incr t.c_replayed;
            go (applied + 1) rest
        | Error e -> Error (Fmt.str "replay stopped after %d update(s): %s" applied e))
    | (Event _ | Remote_update _ | Advance _ | Firing _ | Snapshot _) :: rest -> go applied rest
  in
  go 0 rs
