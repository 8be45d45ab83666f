type ordering = Ordered | Unordered

type t =
  | Elem of elem
  | Text of string
  | Num of float
  | Bool of bool

and elem = {
  id : int;
  label : string;
  attrs : (string * string) list;
  ord : ordering;
  children : t list;
}

let no_id = 0

let check_attrs attrs =
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) attrs in
  let rec dup = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if String.equal a b then invalid_arg ("Term.elem: duplicate attribute " ^ a)
        else dup rest
    | [ _ ] | [] -> ()
  in
  dup sorted;
  sorted

let elem ?(ord = Ordered) ?(attrs = []) label children =
  Elem { id = no_id; label; attrs = check_attrs attrs; ord; children }

let text s = Text s
let num f = Num f
let int i = Num (float_of_int i)
let bool_ b = Bool b

let with_id i = function Elem e -> Elem { e with id = i } | leaf -> leaf

let label = function Elem e -> Some e.label | Text _ | Num _ | Bool _ -> None
let children = function Elem e -> e.children | Text _ | Num _ | Bool _ -> []

let attr key = function
  | Elem e -> List.assoc_opt key e.attrs
  | Text _ | Num _ | Bool _ -> None

let elem_id = function Elem e -> e.id | Text _ | Num _ | Bool _ -> no_id

let float_is_int f = Float.is_integer f && Float.abs f < 1e15

let string_of_num f =
  if float_is_int f then string_of_int (int_of_float f) else string_of_float f

let as_text = function
  | Text s -> Some s
  | Num f -> Some (string_of_num f)
  | Bool b -> Some (string_of_bool b)
  | Elem _ -> None

let as_num = function
  | Num f -> Some f
  | Bool b -> Some (if b then 1. else 0.)
  | Text s -> float_of_string_opt (String.trim s)
  | Elem _ -> None

(* Extensional comparison: ids are ignored and unordered children are
   compared in canonical (sorted) order.  [compare] is the single source
   of truth; [equal] derives from it. *)
let rec compare a b =
  match (a, b) with
  | Text x, Text y -> String.compare x y
  | Num x, Num y -> Float.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | Elem x, Elem y -> compare_elems x y
  | Text _, (Num _ | Bool _ | Elem _) -> -1
  | (Num _ | Bool _ | Elem _), Text _ -> 1
  | Num _, (Bool _ | Elem _) -> -1
  | (Bool _ | Elem _), Num _ -> 1
  | Bool _, Elem _ -> -1
  | Elem _, Bool _ -> 1

and compare_elems x y =
  let c = String.compare x.label y.label in
  if c <> 0 then c
  else
    let c = Stdlib.compare x.attrs y.attrs in
    if c <> 0 then c
    else
      let c = Stdlib.compare x.ord y.ord in
      if c <> 0 then c
      else
        let xs = canonical_children x and ys = canonical_children y in
        compare_lists xs ys

and canonical_children e =
  match e.ord with
  | Ordered -> e.children
  | Unordered -> List.sort compare e.children

and compare_lists xs ys =
  match (xs, ys) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs', y :: ys' ->
      let c = compare x y in
      if c <> 0 then c else compare_lists xs' ys'

let equal a b = compare a b = 0

(* The digest's construction is documented in term.mli.  Every
   operation below wraps modulo 2^63.  The length prefix makes a
   sequence of strings hash unambiguously; [mix] is a bijective
   xor-shift-multiply finaliser.  Summing unordered children is what
   lets a multiset's digest follow one child at a time (incremental
   multiset hashing, Clarke et al. 2003). *)
let fnv_prime = 0x100000001b3
let fnv_basis = 0x4bf29ce484222325

let feed h x = (h lxor x) * fnv_prime

let feed_string h s =
  let h = ref (feed h (String.length s)) in
  for i = 0 to String.length s - 1 do
    h := feed !h (Char.code (String.unsafe_get s i))
  done;
  !h

let mix h =
  let h = (h lxor (h lsr 32)) * 0x7f51afd7ed558ccd in
  let h = (h lxor (h lsr 29)) * 0x44ceb9fe1a85ec53 in
  h lxor (h lsr 32)

(* All 64 bits of the float, in two halves; [equal] identifies -0. with
   0. and every NaN with every other one, and so does the digest. *)
let digest_num f =
  let b = Int64.bits_of_float (if f = 0. then 0. else if Float.is_nan f then Float.nan else f) in
  let h = feed (feed fnv_basis 2) (Int64.to_int b land 0xffff_ffff) in
  mix (feed h (Int64.to_int (Int64.shift_right_logical b 32)))

let header_hash e =
  let h = feed fnv_basis (match e.ord with Ordered -> 5 | Unordered -> 6) in
  let h = feed_string h e.label in
  mix (List.fold_left (fun h (k, v) -> feed_string (feed_string h k) v) h e.attrs)

type multiset_digest = { header : int; sum : int }

let digest_of_multiset m = mix (m.header + m.sum)

let rec digest = function
  | Text s -> mix (feed_string (feed fnv_basis 1) s)
  | Num f -> digest_num f
  | Bool b -> mix (feed (feed fnv_basis 3) (Bool.to_int b))
  | Elem e -> (
      match e.ord with
      | Ordered -> List.fold_left (fun h c -> mix (h + digest c)) (header_hash e) e.children
      | Unordered -> digest_of_multiset (multiset e))

and multiset e =
  { header = header_hash e; sum = List.fold_left (fun s c -> s + digest c) 0 e.children }

let multiset_digest = function
  | Elem ({ ord = Unordered; _ } as e) -> Some (multiset e)
  | Elem { ord = Ordered; _ } | Text _ | Num _ | Bool _ -> None

let multiset_shift m ~added ~removed =
  let sum = List.fold_left (fun s c -> s + digest c) m.sum added in
  { m with sum = List.fold_left (fun s c -> s - digest c) sum removed }

let rec size = function
  | Text _ | Num _ | Bool _ -> 1
  | Elem e -> List.fold_left (fun acc c -> acc + size c) 1 e.children

let rec depth = function
  | Text _ | Num _ | Bool _ -> 1
  | Elem e -> 1 + List.fold_left (fun acc c -> max acc (depth c)) 0 e.children

let rec fold f acc t =
  let acc = f acc t in
  match t with
  | Elem e -> List.fold_left (fold f) acc e.children
  | Text _ | Num _ | Bool _ -> acc

let subterms t = List.rev (fold (fun acc s -> s :: acc) [] t)
let find_all p t = List.filter p (subterms t)

let rec map_elements f = function
  | Elem e ->
      let children = List.map (map_elements f) e.children in
      Elem (f { e with children })
  | (Text _ | Num _ | Bool _) as leaf -> leaf

let strip_ids t = map_elements (fun e -> { e with id = no_id }) t

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec pp ppf = function
  | Text s -> Fmt.pf ppf "\"%s\"" (escape s)
  | Num f -> Fmt.string ppf (string_of_num f)
  | Bool b -> Fmt.bool ppf b
  | Elem e ->
      let o, c = match e.ord with Ordered -> ("[", "]") | Unordered -> ("{", "}") in
      let pp_attr ppf (k, v) = Fmt.pf ppf "@%s=\"%s\"" k (escape v) in
      if e.attrs = [] && e.children = [] then Fmt.pf ppf "%s%s%s" e.label o c
      else
        Fmt.pf ppf "@[<hv 2>%s%s%a%s%a%s@]" e.label o
          Fmt.(list ~sep:comma pp_attr)
          e.attrs
          (if e.attrs <> [] && e.children <> [] then ", " else "")
          Fmt.(list ~sep:comma pp)
          e.children c

let to_string t = Fmt.str "%a" pp t
