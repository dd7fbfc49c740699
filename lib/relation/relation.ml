type t = { schema : Schema.t; data : int array; count : int }

let of_array schema data =
  let ar = Schema.arity schema in
  if ar = 0 then invalid_arg "Relation.of_array: empty schema";
  if Array.length data mod ar <> 0 then
    invalid_arg "Relation.of_array: data length not a multiple of arity";
  { schema; data; count = Array.length data / ar }

let create schema tuples =
  let ar = Schema.arity schema in
  List.iter
    (fun tup ->
      if Array.length tup <> ar then
        invalid_arg
          (Printf.sprintf "Relation.create: tuple arity %d, schema arity %d"
             (Array.length tup) ar))
    tuples;
  let n = List.length tuples in
  let data = Array.make (n * ar) 0 in
  List.iteri (fun i tup -> Array.blit tup 0 data (i * ar) ar) tuples;
  { schema; data; count = n }

let empty schema = { schema; data = [||]; count = 0 }

let schema t = t.schema
let arity t = Schema.arity t.schema
let count t = t.count
let bytes t = t.count * Schema.tuple_bytes t.schema
let data t = t.data

let get t i =
  if i < 0 || i >= t.count then invalid_arg "Relation.get: out of range";
  let ar = arity t in
  Array.sub t.data (i * ar) ar

let attr t i j = t.data.((i * arity t) + j)

let to_list t = List.init t.count (get t)

let iter f t =
  for i = 0 to t.count - 1 do
    f (get t i)
  done

let fold f init t =
  let acc = ref init in
  for i = 0 to t.count - 1 do
    acc := f !acc (get t i)
  done;
  !acc

let compare_key schema ~key_arity a b =
  let rec go j =
    if j >= key_arity then 0
    else
      let c = Value.compare_as (Schema.dtype schema j) a.(j) b.(j) in
      if c <> 0 then c else go (j + 1)
  in
  go 0

let compare_tuple schema a b =
  compare_key schema ~key_arity:(Schema.arity schema) a b

(* Stable-sort a permutation of row indices over the flat array, comparing
   key columns in place (floats as floats) with the index as the final
   tie-break, then gather the rows once. *)
let sort ~key_arity t =
  let ar = arity t and data = t.data in
  let is_float =
    Array.init (max 0 (min key_arity ar)) (fun j ->
        Dtype.is_float (Schema.dtype t.schema j))
  in
  let cmp i1 i2 =
    let rec go j =
      if j >= key_arity then Int.compare i1 i2
      else
        let a = data.((i1 * ar) + j) and b = data.((i2 * ar) + j) in
        let c =
          if is_float.(j) then Float.compare (Value.to_f32 a) (Value.to_f32 b)
          else Int.compare a b
        in
        if c <> 0 then c else go (j + 1)
    in
    go 0
  in
  let perm = Array.init t.count Fun.id in
  Array.stable_sort cmp perm;
  let sorted = Array.make (t.count * ar) 0 in
  Array.iteri (fun i src -> Array.blit data (src * ar) sorted (i * ar) ar) perm;
  { t with data = sorted }

let is_sorted ~key_arity t =
  let ok = ref true in
  for i = 0 to t.count - 2 do
    if compare_key t.schema ~key_arity (get t i) (get t (i + 1)) > 0 then
      ok := false
  done;
  !ok

let equal_multiset a b =
  Schema.compatible a.schema b.schema
  && a.count = b.count
  &&
  let sa = sort ~key_arity:(arity a) a and sb = sort ~key_arity:(arity b) b in
  sa.data = sb.data

let approx_equal ?(eps = 1e-4) a b =
  Schema.compatible a.schema b.schema
  && a.count = b.count
  &&
  let sa = sort ~key_arity:(arity a) a and sb = sort ~key_arity:(arity b) b in
  let ar = arity a in
  let ok = ref true in
  for i = 0 to a.count - 1 do
    for j = 0 to ar - 1 do
      let va = sa.data.((i * ar) + j) and vb = sb.data.((i * ar) + j) in
      if Dtype.is_float (Schema.dtype a.schema j) then begin
        let fa = Value.to_f32 va and fb = Value.to_f32 vb in
        let scale = Float.max 1.0 (Float.max (Float.abs fa) (Float.abs fb)) in
        if Float.abs (fa -. fb) > eps *. scale then ok := false
      end
      else if va <> vb then ok := false
    done
  done;
  !ok

let pp ppf t =
  Format.fprintf ppf "@[<v>%d tuples of (%s)@ " t.count
    (String.concat ", "
       (List.init (arity t) (fun j ->
            Printf.sprintf "%s:%s"
              (Schema.name t.schema j)
              (Dtype.to_string (Schema.dtype t.schema j)))));
  let shown = min t.count 20 in
  for i = 0 to shown - 1 do
    let tup = get t i in
    Format.fprintf ppf "(%s)@ "
      (String.concat ", "
         (List.init (arity t) (fun j ->
              Value.to_string (Schema.dtype t.schema j) tup.(j))))
  done;
  if shown < t.count then Format.fprintf ppf "... (%d more)@ " (t.count - shown);
  Format.fprintf ppf "@]"
