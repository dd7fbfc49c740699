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

let check_key_arity fn schema ~key_arity =
  let ar = Schema.arity schema in
  if key_arity < 0 || key_arity > ar then
    invalid_arg
      (Printf.sprintf "Relation.%s: key_arity %d outside [0, %d]" fn key_arity
         ar)

let compare_key schema ~key_arity a b =
  check_key_arity "compare_key" schema ~key_arity;
  let rec go j =
    if j >= key_arity then 0
    else
      let c = Value.compare_as (Schema.dtype schema j) a.(j) b.(j) in
      if c <> 0 then c else go (j + 1)
  in
  go 0

let compare_tuple schema a b =
  compare_key schema ~key_arity:(Schema.arity schema) a b

(* An int whose signed order on words of one column is that column's
   order: ints as themselves; floats as the low 32 bits read as binary32
   under [Float.compare], where -0.0 equals +0.0 and every NaN equals
   every other NaN and sits below -inf. *)
let f32_key w =
  let b = w land 0xFFFF_FFFF in
  let mag = b land 0x7FFF_FFFF in
  if mag > 0x7F80_0000 then -0x8000_0000
  else if b = mag then mag
  else -mag

(* Unchecked accesses, for indices the loops below keep in range. *)
external unsafe_get : int array -> int -> int = "%array_unsafe_get"
external unsafe_set : int array -> int -> int -> unit = "%array_unsafe_set"

(* Stable LSD radix sort of the row indices [0, rows) by the columns
   [cols] (row-major, [ar] words a row), last column first: each column's
   keys are extracted once ([f32_key] applied where [floats.(c)]), offset
   by their minimum (as unsigned, so a full-range int column may wrap) and
   counting-sorted one digit at a time. Digits are at most ~log2 rows (and
   16) bits wide, so the count table stays proportional to the rows. *)
let radix_perm ~ar ~cols ~floats ~rows src =
  let perm = ref (Array.make rows 0) in
  for i = 0 to rows - 1 do
    unsafe_set !perm i i
  done;
  if rows > 1 && Array.length cols > 0 then begin
    let tmp = ref (Array.make rows 0) in
    let keys = Array.make rows 0 in
    let rec bit_length n acc = if n = 0 then acc else bit_length (n lsr 1) (acc + 1) in
    let max_width = min 16 (bit_length rows 0) in
    let count = ref [||] in
    for c = Array.length cols - 1 downto 0 do
      let j = cols.(c) in
      if floats.(c) then
        for i = 0 to rows - 1 do
          unsafe_set keys i (f32_key (unsafe_get src ((i * ar) + j)))
        done
      else
        for i = 0 to rows - 1 do
          unsafe_set keys i (unsafe_get src ((i * ar) + j))
        done;
      let lo = ref max_int and hi = ref min_int in
      for i = 0 to rows - 1 do
        let k = unsafe_get keys i in
        if k < !lo then lo := k;
        if k > !hi then hi := k
      done;
      let lo = !lo in
      let bits = bit_length (!hi - lo) 0 in
      if bits > 0 then begin
        let passes = (bits + max_width - 1) / max_width in
        let width = (bits + passes - 1) / passes in
        let mask = (1 lsl width) - 1 in
        if Array.length !count < mask + 2 then count := Array.make (mask + 2) 0;
        let count = !count in
        for pass = 0 to passes - 1 do
          let shift = pass * width in
          let p = !perm and q = !tmp in
          Array.fill count 0 (mask + 2) 0;
          for i = 0 to rows - 1 do
            let d = ((unsafe_get keys i - lo) lsr shift) land mask in
            unsafe_set count (d + 1) (unsafe_get count (d + 1) + 1)
          done;
          for d = 1 to mask do
            unsafe_set count d (unsafe_get count d + unsafe_get count (d - 1))
          done;
          for i = 0 to rows - 1 do
            let row = unsafe_get p i in
            let d = ((unsafe_get keys row - lo) lsr shift) land mask in
            let at = unsafe_get count d in
            unsafe_set q at row;
            unsafe_set count d (at + 1)
          done;
          perm := q;
          tmp := p
        done
      end
    done
  end;
  !perm

let sort_words schema ~key_arity ~rows ~src ~dst =
  check_key_arity "sort_words" schema ~key_arity;
  let ar = Schema.arity schema in
  if rows < 0 || Array.length src < rows * ar || Array.length dst < rows * ar
  then invalid_arg "Relation.sort_words: rows exceed the arrays";
  if rows > 0 && src == dst then
    invalid_arg "Relation.sort_words: src and dst alias";
  let perm =
    radix_perm ~ar ~rows src ~cols:(Array.init key_arity Fun.id)
      ~floats:(Array.init key_arity (fun j -> Dtype.is_float (Schema.dtype schema j)))
  in
  for i = 0 to rows - 1 do
    let from = unsafe_get perm i * ar and into = i * ar in
    for j = 0 to ar - 1 do
      unsafe_set dst (into + j) (unsafe_get src (from + j))
    done
  done

let sort ~key_arity t =
  check_key_arity "sort" t.schema ~key_arity;
  let dst = Array.make (t.count * arity t) 0 in
  sort_words t.schema ~key_arity ~rows:t.count ~src:t.data ~dst;
  { t with data = dst }

let group_perm t ~cols =
  let ar = arity t in
  List.iter
    (fun c ->
      if c < 0 || c >= ar then
        invalid_arg (Printf.sprintf "Relation.group_perm: column %d outside [0, %d)" c ar))
    cols;
  let cols = Array.of_list cols in
  radix_perm ~ar ~cols ~floats:(Array.map (fun _ -> false) cols) ~rows:t.count t.data

(* The order [sort] gives rows of a flat row-major array: key columns
   compared in place (floats as f32 under [Float.compare], the rest as
   ints), with the row index as the final tie-break. *)
let row_order schema ~key_arity data =
  let ar = Schema.arity schema in
  let is_float =
    Array.init key_arity (fun j -> Dtype.is_float (Schema.dtype schema j))
  in
  fun i1 i2 ->
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

(* With the index tie-break, [cmp i (i + 1) < 0] exactly when row [i]'s key
   is not above row [i + 1]'s. *)
let is_sorted_words schema ~key_arity ~rows data =
  check_key_arity "is_sorted_words" schema ~key_arity;
  let cmp = row_order schema ~key_arity data in
  let rec go i = i + 1 >= rows || (cmp i (i + 1) < 0 && go (i + 1)) in
  go 0

let is_sorted ~key_arity t =
  check_key_arity "is_sorted" t.schema ~key_arity;
  is_sorted_words t.schema ~key_arity ~rows:t.count t.data

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
