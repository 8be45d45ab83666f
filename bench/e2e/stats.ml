(* Order statistics over float samples. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile p xs =
  match sorted xs with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

(* First and third quartile, by the same rule as Python's
   [statistics.quantiles(xs, n=4)] (the "exclusive" method), so spreads
   printed here match what a Python checker computes. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let m = Array.length a in
  if m = 0 then (0., 0.)
  else if m = 1 then (a.(0), a.(0))
  else
    let cut i =
      let j = max 1 (min (m - 1) (i * (m + 1) / 4)) in
      let delta = (i * (m + 1)) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (cut 1, cut 3)

let ratio num den = if den = 0. then 0. else num /. den
