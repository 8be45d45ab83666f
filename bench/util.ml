(* Shared helpers for the experiment harness. *)

let time_ms f =
  let t0 = Sys.time () in
  let r = f () in
  (r, (Sys.time () -. t0) *. 1000.)

(* aligned plain-text tables *)
let print_table ~title ~header rows =
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w cell -> max w (String.length cell)) acc row)
      (List.map String.length header)
      rows
  in
  let pad i cell = cell ^ String.make (List.nth widths i - String.length cell) ' ' in
  Fmt.pr "@.## %s@.@." title;
  Fmt.pr "| %s |@." (String.concat " | " (List.mapi pad header));
  Fmt.pr "|%s|@." (String.concat "|" (List.map (fun w -> String.make (w + 2) '-') widths));
  List.iter (fun row -> Fmt.pr "| %s |@." (String.concat " | " (List.mapi pad row))) rows

(* A registry's cells at this instant: name -> value, summed over label
   sets, 0 when absent. *)
let cells m =
  let samples = Xchange.Obs.Metrics.snapshot m in
  fun name -> int_of_float (Xchange.Obs.Metrics.total samples name)

let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x
let si n =
  if n >= 1_000_000 then Printf.sprintf "%.1fM" (float_of_int n /. 1e6)
  else if n >= 10_000 then Printf.sprintf "%.0fk" (float_of_int n /. 1e3)
  else string_of_int n
