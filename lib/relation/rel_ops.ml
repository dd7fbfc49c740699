(* Every operator reads its inputs' flat arrays in place and writes one
   output array of exactly its size: a counting pass, a byte mask or a
   list of picked rows comes first when the size is not known up front. *)

(* A relation of [rows] rows over [data]. Only PROJECT and ARITH can make
   an empty schema, whose rows have no words. *)
let make schema ~rows data =
  if Schema.arity schema > 0 then Relation.of_array schema data
  else Relation.create schema (List.init rows (fun _ -> [||]))

let copy_row src from dst into n =
  for j = 0 to n - 1 do
    dst.(into + j) <- src.(from + j)
  done

(* [keep] marks each row in a byte mask, first row first; the marked rows
   are then copied once. *)
let select keep r =
  let ar = Relation.arity r and d = Relation.data r and n = Relation.count r in
  let mask = Bytes.make n '\000' and m = ref 0 in
  for i = 0 to n - 1 do
    if keep d (i * ar) then begin
      Bytes.set mask i '\001';
      incr m
    end
  done;
  let out = Array.make (!m * ar) 0 and at = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.get mask i <> '\000' then begin
      copy_row d (i * ar) out !at ar;
      at := !at + ar
    end
  done;
  make (Relation.schema r) ~rows:!m out

let project indices r =
  let out_schema = Schema.project (Relation.schema r) indices in
  let cols = Array.of_list indices in
  let ar = Relation.arity r and k = Array.length cols in
  let n = Relation.count r and d = Relation.data r in
  let out = Array.make (n * k) 0 in
  for i = 0 to n - 1 do
    for j = 0 to k - 1 do
      out.((i * k) + j) <- d.((i * ar) + cols.(j))
    done
  done;
  make out_schema ~rows:n out

let map out_schema fs r =
  let k = Schema.arity out_schema in
  if Array.length fs <> k then
    invalid_arg "Rel_ops.map: one function per output attribute";
  let ar = Relation.arity r and n = Relation.count r and d = Relation.data r in
  let out = Array.make (n * k) 0 in
  for i = 0 to n - 1 do
    for j = 0 to k - 1 do
      out.((i * k) + j) <- fs.(j) d (i * ar)
    done
  done;
  make out_schema ~rows:n out

let check_key_compat name ~key_arity a b =
  let sa = Relation.schema a and sb = Relation.schema b in
  if key_arity <= 0 then
    invalid_arg (Printf.sprintf "Rel_ops.%s: key arity must be positive" name);
  if key_arity > Schema.arity sa || key_arity > Schema.arity sb then
    invalid_arg (Printf.sprintf "Rel_ops.%s: key arity exceeds schema" name);
  for j = 0 to key_arity - 1 do
    if not (Dtype.equal (Schema.dtype sa j) (Schema.dtype sb j)) then
      invalid_arg
        (Printf.sprintf "Rel_ops.%s: key attribute %d dtypes differ" name j)
  done

(* {!Relation.compare_key} on rows of flat arrays, read in place: the row
   at word [ia] of [a] against the row at word [ib] of [b]. *)
let key_cmp schema ~key_arity =
  let dts = Array.init key_arity (Schema.dtype schema) in
  fun a ia b ib ->
    let rec go j =
      if j >= key_arity then 0
      else
        let c = Value.compare_as dts.(j) a.(ia + j) b.(ib + j) in
        if c <> 0 then c else go (j + 1)
    in
    go 0

(* The end of the run of rows equal to row [i] of a key-sorted [r]. *)
let run_end cmp r i =
  let ar = Relation.arity r and d = Relation.data r and n = Relation.count r in
  let rec go j = if j < n && cmp d (i * ar) d (j * ar) = 0 then go (j + 1) else j in
  go (i + 1)

(* Merge two key-sorted relations run by run: [both i i' j j'] for each key
   present in both, with rows [i, i') of [l] and [j, j') of [r]; [fl i]
   and [fr j] at the first row of a key found on one side only. *)
let merge_runs cmp l r ~both ~fl ~fr =
  let la = Relation.arity l and ra = Relation.arity r in
  let ld = Relation.data l and rd = Relation.data r in
  let ln = Relation.count l and rn = Relation.count r in
  let rec go i j =
    if i < ln && j < rn then begin
      let c = cmp ld (i * la) rd (j * ra) in
      if c < 0 then begin
        fl i;
        go (run_end cmp l i) j
      end
      else if c > 0 then begin
        fr j;
        go i (run_end cmp r j)
      end
      else begin
        let i' = run_end cmp l i and j' = run_end cmp r j in
        both i i' j j';
        go i' j'
      end
    end
    else if i < ln then begin
      fl i;
      go (run_end cmp l i) j
    end
    else if j < rn then begin
      fr j;
      go i (run_end cmp r j)
    end
  in
  go 0 0

let join ~key_arity left right =
  check_key_compat "join" ~key_arity left right;
  let ls = Relation.schema left and rs = Relation.schema right in
  let out_schema =
    Schema.concat ls
      (Array.sub rs key_arity (Schema.arity rs - key_arity))
  in
  let l = Relation.sort ~key_arity left and r = Relation.sort ~key_arity right in
  let cmp = key_cmp ls ~key_arity in
  let ignore_row _ = () in
  let n = ref 0 in
  merge_runs cmp l r ~fl:ignore_row ~fr:ignore_row ~both:(fun i i' j j' ->
      n := !n + ((i' - i) * (j' - j)));
  (* sort-merge: each key's run pair emits its cross product, left-major,
     so the output is key-sorted *)
  let la = Relation.arity l and ra = Relation.arity r in
  let ld = Relation.data l and rd = Relation.data r in
  let oa = la + ra - key_arity in
  let out = Array.make (!n * oa) 0 and at = ref 0 in
  merge_runs cmp l r ~fl:ignore_row ~fr:ignore_row ~both:(fun i i' j j' ->
      for a = i to i' - 1 do
        for b = j to j' - 1 do
          copy_row ld (a * la) out !at la;
          copy_row rd ((b * ra) + key_arity) out (!at + la) (ra - key_arity);
          at := !at + oa
        done
      done);
  Relation.of_array out_schema out

let product left right =
  let out_schema = Schema.concat (Relation.schema left) (Relation.schema right) in
  let la = Relation.arity left and ra = Relation.arity right in
  let ld = Relation.data left and rd = Relation.data right in
  let ln = Relation.count left and rn = Relation.count right in
  let oa = la + ra in
  let out = Array.make (ln * rn * oa) 0 in
  for a = 0 to ln - 1 do
    for b = 0 to rn - 1 do
      let at = ((a * rn) + b) * oa in
      copy_row ld (a * la) out at la;
      copy_row rd (b * ra) out (at + la) ra
    done
  done;
  Relation.of_array out_schema out

let member_filter name keep_present ~key_arity left right =
  check_key_compat name ~key_arity left right;
  let cmp = key_cmp (Relation.schema left) ~key_arity in
  let r = Relation.sort ~key_arity right in
  let ra = Relation.arity r and rd = Relation.data r and n = Relation.count r in
  let present d o =
    (* binary search the key prefix *)
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cmp rd (mid * ra) d o < 0 then go (mid + 1) hi else go lo mid
    in
    let lb = go 0 n in
    lb < n && cmp rd (lb * ra) d o = 0
  in
  select (fun d o -> present d o = keep_present) left

let semijoin ~key_arity left right =
  member_filter "semijoin" true ~key_arity left right

let antijoin ~key_arity left right =
  member_filter "antijoin" false ~key_arity left right

let set_op name keep_left_only keep_both keep_right_only ~key_arity left right =
  check_key_compat name ~key_arity left right;
  let ls = Relation.schema left in
  if keep_right_only && not (Schema.compatible ls (Relation.schema right)) then
    invalid_arg (Printf.sprintf "Rel_ops.%s: schemas incompatible" name);
  let l = Relation.sort ~key_arity left and r = Relation.sort ~key_arity right in
  (* the first row of each surviving key run: left row i as i, right row j
     as -(j + 1) *)
  let picks = Array.make (Relation.count l + Relation.count r) 0 and m = ref 0 in
  let pick keep p =
    if keep then begin
      picks.(!m) <- p;
      incr m
    end
  in
  merge_runs (key_cmp ls ~key_arity) l r
    ~fl:(fun i -> pick keep_left_only i)
    ~fr:(fun j -> pick keep_right_only (-(j + 1)))
    ~both:(fun i _ _ _ -> pick keep_both i);
  let ar = Relation.arity l and ld = Relation.data l and rd = Relation.data r in
  let out = Array.make (!m * ar) 0 in
  for k = 0 to !m - 1 do
    let p = picks.(k) in
    if p >= 0 then copy_row ld (p * ar) out (k * ar) ar
    else copy_row rd ((-p - 1) * ar) out (k * ar) ar
  done;
  Relation.of_array ls out

let union ~key_arity l r = set_op "union" true true true ~key_arity l r
let intersect ~key_arity l r = set_op "intersect" false true false ~key_arity l r
let difference ~key_arity l r = set_op "difference" true false false ~key_arity l r

let sort = Relation.sort

let unique ~key_arity r =
  let s = Relation.sort ~key_arity r in
  let cmp = key_cmp (Relation.schema r) ~key_arity and ar = Relation.arity r in
  (* the first row of each key run *)
  select (fun d o -> o = 0 || cmp d (o - ar) d o <> 0) s
