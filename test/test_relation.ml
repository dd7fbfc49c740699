(* Unit and property tests for the relation library: dtypes, values,
   schemas, dense sorted relations and the host reference algebra.
   The worked examples come straight from the paper's Table 1. *)

open Relation_lib

let i32 = Dtype.I32

let test_dtype () =
  Alcotest.(check int) "i32 width" 4 (Dtype.width Dtype.I32);
  Alcotest.(check int) "i64 width" 8 (Dtype.width Dtype.I64);
  Alcotest.(check int) "f32 width" 4 (Dtype.width Dtype.F32);
  Alcotest.(check int) "bool width" 4 (Dtype.width Dtype.Bool);
  Alcotest.(check int) "date width" 4 (Dtype.width Dtype.Date);
  Alcotest.(check bool) "f32 is float" true (Dtype.is_float Dtype.F32);
  Alcotest.(check bool) "i32 not float" false (Dtype.is_float Dtype.I32)

let test_value_roundtrip () =
  List.iter
    (fun f ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "f32 %f" f)
        f
        (Value.to_f32 (Value.of_f32 f)))
    [ 0.0; 1.0; -1.5; 3.14159; 1e10; -1e-10 ];
  Alcotest.(check bool) "bool true" true (Value.to_bool (Value.of_bool true));
  Alcotest.(check bool) "bool false" false (Value.to_bool (Value.of_bool false));
  (* float ordering via compare_as *)
  Alcotest.(check bool) "float compare" true
    (Value.compare_as Dtype.F32 (Value.of_f32 (-2.0)) (Value.of_f32 1.0) < 0);
  (* note: raw int compare would get this wrong (sign bit) *)
  Alcotest.(check bool) "int compare" true
    (Value.compare_as Dtype.I32 3 10 < 0)

let test_schema () =
  let s = Schema.make [ ("k", i32); ("v", Dtype.F32); ("w", Dtype.I64) ] in
  Alcotest.(check int) "arity" 3 (Schema.arity s);
  Alcotest.(check int) "tuple bytes" 16 (Schema.tuple_bytes s);
  Alcotest.(check int) "attr bytes" 8 (Schema.attr_bytes s 2);
  Alcotest.(check int) "index_of" 1 (Schema.index_of s "v");
  Alcotest.check_raises "index_of missing" Not_found (fun () ->
      ignore (Schema.index_of s "zzz"));
  let p = Schema.project s [ 2; 0 ] in
  Alcotest.(check int) "project arity" 2 (Schema.arity p);
  Alcotest.(check string) "project order" "w" (Schema.name p 0);
  Alcotest.check_raises "project out of range"
    (Invalid_argument "Schema.project: index 5 out of range") (fun () ->
      ignore (Schema.project s [ 5 ]));
  (* concat uniquifies names *)
  let c = Schema.concat s (Schema.make [ ("k", i32); ("x", i32) ]) in
  Alcotest.(check int) "concat arity" 5 (Schema.arity c);
  Alcotest.(check string) "renamed" "k_1" (Schema.name c 3);
  Alcotest.(check bool) "compatible" true
    (Schema.compatible s (Schema.make [ ("a", i32); ("b", Dtype.F32); ("c", Dtype.I64) ]));
  Alcotest.(check bool) "incompatible dtype" false
    (Schema.compatible s (Schema.make [ ("a", i32); ("b", i32); ("c", Dtype.I64) ]))

let s2 = Schema.make [ ("k", i32); ("v", i32) ]

let rel tuples = Relation.create s2 (List.map (fun (a, b) -> [| a; b |]) tuples)

let test_relation_basics () =
  let r = rel [ (3, 30); (1, 10); (2, 20) ] in
  Alcotest.(check int) "count" 3 (Relation.count r);
  Alcotest.(check int) "bytes" 24 (Relation.bytes r);
  Alcotest.(check int) "attr" 10 (Relation.attr r 1 1);
  Alcotest.(check bool) "unsorted" false (Relation.is_sorted ~key_arity:1 r);
  let s = Relation.sort ~key_arity:1 r in
  Alcotest.(check bool) "sorted" true (Relation.is_sorted ~key_arity:1 s);
  Alcotest.(check int) "first after sort" 1 (Relation.attr s 0 0);
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Relation.create: tuple arity 3, schema arity 2")
    (fun () -> ignore (Relation.create s2 [ [| 1; 2; 3 |] ]));
  Alcotest.check_raises "bad flat array"
    (Invalid_argument "Relation.of_array: data length not a multiple of arity")
    (fun () -> ignore (Relation.of_array s2 [| 1; 2; 3 |]))

let test_sort_stability () =
  (* equal keys keep their input order *)
  let r = rel [ (2, 1); (1, 1); (2, 2); (1, 2); (2, 3) ] in
  let s = Relation.sort ~key_arity:1 r in
  Alcotest.(check (list (pair int int)))
    "stable"
    [ (1, 1); (1, 2); (2, 1); (2, 2); (2, 3) ]
    (List.map (fun t -> (t.(0), t.(1))) (Relation.to_list s))

let test_equal_multiset () =
  let a = rel [ (1, 1); (2, 2); (1, 1) ] in
  let b = rel [ (2, 2); (1, 1); (1, 1) ] in
  let c = rel [ (2, 2); (1, 1) ] in
  Alcotest.(check bool) "permuted equal" true (Relation.equal_multiset a b);
  Alcotest.(check bool) "multiplicity matters" false (Relation.equal_multiset a c)

let test_approx_equal () =
  let sf = Schema.make [ ("k", i32); ("x", Dtype.F32) ] in
  let mk l = Relation.create sf (List.map (fun (k, f) -> [| k; Value.of_f32 f |]) l) in
  let a = mk [ (1, 1.0); (2, 2.0) ] in
  let b = mk [ (2, 2.0000001); (1, 0.9999999) ] in
  let c = mk [ (1, 1.1); (2, 2.0) ] in
  Alcotest.(check bool) "close floats equal" true (Relation.approx_equal a b);
  Alcotest.(check bool) "distant floats differ" false (Relation.approx_equal a c)

(* --- Table 1 worked examples ---------------------------------------------- *)

let sc = Schema.make [ ("k", i32); ("v", i32) ]
let mkc l = Relation.create sc (List.map (fun (a, b) -> [| a; b |]) l)
(* encode the paper's letters as ints: a=0 b=1 c=2 d=3 f=5 *)

let test_table1_union () =
  let x = mkc [ (2, 1); (3, 0); (4, 0) ] and y = mkc [ (0, 0); (2, 1) ] in
  let got = Rel_ops.union ~key_arity:1 x y in
  Alcotest.(check bool) "UNION example" true
    (Relation.equal_multiset got (mkc [ (0, 0); (2, 1); (3, 0); (4, 0) ]))

let test_table1_intersect () =
  let x = mkc [ (2, 1); (3, 0); (4, 0) ] and y = mkc [ (0, 0); (2, 1) ] in
  let got = Rel_ops.intersect ~key_arity:1 x y in
  Alcotest.(check bool) "INTERSECT example" true
    (Relation.equal_multiset got (mkc [ (2, 1) ]))

let test_table1_difference () =
  let x = mkc [ (2, 1); (3, 0); (4, 0) ] and y = mkc [ (3, 0); (4, 0) ] in
  let got = Rel_ops.difference ~key_arity:1 x y in
  Alcotest.(check bool) "DIFFERENCE example" true
    (Relation.equal_multiset got (mkc [ (2, 1) ]))

let test_table1_product () =
  let x = mkc [ (3, 0); (4, 0) ] in
  let y = Relation.create (Schema.make [ ("a", i32); ("b", Dtype.Bool) ]) [ [| 3; 1 |] ] in
  let got = Rel_ops.product x y in
  Alcotest.(check int) "PRODUCT count" 2 (Relation.count got);
  Alcotest.(check int) "PRODUCT arity" 4 (Relation.arity got)

let test_table1_join () =
  (* x = {(2,b),(3,a),(4,a)}, y = {(2,f),(3,c),(3,d)} ->
     {(2,b,f),(3,a,c),(3,a,d)} *)
  let x = mkc [ (2, 1); (3, 0); (4, 0) ] and y = mkc [ (2, 5); (3, 2); (3, 3) ] in
  let got = Rel_ops.join ~key_arity:1 x y in
  let expected =
    Relation.create
      (Relation.schema got)
      [ [| 2; 1; 5 |]; [| 3; 0; 2 |]; [| 3; 0; 3 |] ]
  in
  Alcotest.(check bool) "JOIN example" true (Relation.equal_multiset got expected)

let test_table1_project () =
  let x =
    Relation.create
      (Schema.make [ ("k", i32); ("f", Dtype.Bool); ("v", i32) ])
      [ [| 2; 0; 1 |] ]
  in
  let got = Rel_ops.project [ 0; 2 ] x in
  Alcotest.(check int) "PROJECT arity" 2 (Relation.arity got);
  Alcotest.(check int) "PROJECT value" 1 (Relation.attr got 0 1)

let test_table1_select () =
  let x = mkc [ (2, 0); (3, 1); (4, 1) ] in
  let got = Rel_ops.select (fun t -> t.(0) = 2) x in
  Alcotest.(check int) "SELECT count" 1 (Relation.count got)

let test_semijoin_antijoin () =
  let l = mkc [ (1, 10); (1, 11); (2, 20); (3, 30) ] in
  let r = mkc [ (1, 99); (3, 98); (5, 97) ] in
  let s = Rel_ops.semijoin ~key_arity:1 l r in
  (* duplicates kept, order preserved *)
  Alcotest.(check (list (pair int int))) "semijoin"
    [ (1, 10); (1, 11); (3, 30) ]
    (List.map (fun t -> (t.(0), t.(1))) (Relation.to_list s));
  let a = Rel_ops.antijoin ~key_arity:1 l r in
  Alcotest.(check (list (pair int int))) "antijoin" [ (2, 20) ]
    (List.map (fun t -> (t.(0), t.(1))) (Relation.to_list a));
  (* semijoin + antijoin partition the left input *)
  Alcotest.(check int) "partition" (Relation.count l)
    (Relation.count s + Relation.count a);
  (* the right side's schema beyond the key does not matter *)
  let wide =
    Relation.create
      (Schema.make [ ("k", i32); ("a", i32); ("b", i32) ])
      [ [| 1; 0; 0 |] ]
  in
  Alcotest.(check int) "schema-asymmetric" 2
    (Relation.count (Rel_ops.semijoin ~key_arity:1 l wide))

let test_join_duplicate_keys () =
  (* cross product within equal-key runs *)
  let x = mkc [ (1, 10); (1, 11) ] and y = mkc [ (1, 20); (1, 21); (1, 22) ] in
  let got = Rel_ops.join ~key_arity:1 x y in
  Alcotest.(check int) "2x3 matches" 6 (Relation.count got)

let test_unique_and_group_by () =
  let r = mkc [ (1, 10); (1, 11); (2, 20); (3, 30); (3, 31) ] in
  let u = Rel_ops.unique ~key_arity:1 r in
  Alcotest.(check int) "unique count" 3 (Relation.count u);
  (* unique keeps the first tuple of each run (stable) *)
  Alcotest.(check int) "keeps first" 10 (Relation.attr u 0 1);
  let groups = Rel_ops.group_by ~cols:[ 0 ] r in
  Alcotest.(check int) "3 groups" 3 (List.length groups);
  let _, members = List.nth groups 2 in
  Alcotest.(check int) "group 3 size" 2 (List.length members)

(* --- qcheck properties ----------------------------------------------------- *)

let arb_rel =
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) l))
    QCheck.Gen.(small_list (pair (int_bound 20) (int_bound 100)))

let to_rel l = mkc l

let prop_sort_idempotent =
  QCheck.Test.make ~name:"sort is idempotent" ~count:200 arb_rel (fun l ->
      let r = Relation.sort ~key_arity:1 (to_rel l) in
      Relation.equal_multiset r (Relation.sort ~key_arity:1 r)
      && Relation.is_sorted ~key_arity:1 r)

(* Mixed int/float schemas (floats with duplicates, signed zeros and NaN)
   keyed on a prefix of any length. *)
let arb_mixed =
  let gen =
    QCheck.Gen.(
      let* dts = list_size (int_range 1 4) (oneofl [ i32; Dtype.I64; Dtype.F32 ]) in
      let* key_arity = int_range 1 (List.length dts) in
      let value dt =
        if Dtype.is_float dt then
          map Value.of_f32 (oneofl [ 0.5; 1.0; -2.0; 0.0; -0.0; Float.nan ])
        else int_range (-3) 3
      in
      let* rows =
        list_size (int_bound 40) (flatten_l (List.map value dts))
      in
      return (dts, key_arity, rows))
  in
  let print (dts, key_arity, rows) =
    Printf.sprintf "(%s) key_arity=%d [%s]"
      (String.concat "," (List.map Dtype.to_string dts))
      key_arity
      (String.concat ";"
         (List.map
            (fun r -> String.concat "," (List.map string_of_int r))
            rows))
  in
  QCheck.make ~print gen

let mixed_rel dts rows =
  let schema =
    Schema.make (List.mapi (fun j dt -> (Printf.sprintf "c%d" j, dt)) dts)
  in
  Relation.create schema (List.map Array.of_list rows)

(* The flat index-permutation sort must reproduce a stable sort of the
   tuples, ties included. *)
let prop_sort_matches_stable_sort =
  QCheck.Test.make ~name:"sort = List.stable_sort on tuples" ~count:300
    arb_mixed (fun (dts, key_arity, rows) ->
      let r = mixed_rel dts rows in
      let expected =
        List.stable_sort
          (Relation.compare_key (Relation.schema r) ~key_arity)
          (Relation.to_list r)
      in
      Relation.to_list (Relation.sort ~key_arity r) = expected)

(* [is_sorted] holds exactly when sorting is the identity, both on the
   relation and on its words followed by padding (as a device buffer). *)
let prop_is_sorted_iff_sort_identity =
  QCheck.Test.make ~name:"is_sorted r = (sort r has r's data)" ~count:500
    arb_mixed (fun (dts, key_arity, rows) ->
      let r = mixed_rel dts rows in
      let s = Relation.sort ~key_arity r in
      let padded rel =
        Relation.is_sorted_words (Relation.schema rel) ~key_arity
          ~rows:(Relation.count rel)
          (Array.append (Relation.data rel) [| max_int; min_int; 7 |])
      in
      Relation.is_sorted ~key_arity r = (Relation.data s = Relation.data r)
      && padded r = Relation.is_sorted ~key_arity r
      && Relation.is_sorted ~key_arity s
      && padded s)

let prop_union_commutative_keys =
  QCheck.Test.make ~name:"union key set is commutative" ~count:200
    (QCheck.pair arb_rel arb_rel) (fun (a, b) ->
      let keys r =
        List.sort_uniq Int.compare
          (List.map (fun t -> t.(0)) (Relation.to_list r))
      in
      keys (Rel_ops.union ~key_arity:1 (to_rel a) (to_rel b))
      = keys (Rel_ops.union ~key_arity:1 (to_rel b) (to_rel a)))

let prop_intersect_subset =
  QCheck.Test.make ~name:"intersect result keys in both inputs" ~count:200
    (QCheck.pair arb_rel arb_rel) (fun (a, b) ->
      let keys r = List.map (fun t -> t.(0)) (Relation.to_list r) in
      let i = Rel_ops.intersect ~key_arity:1 (to_rel a) (to_rel b) in
      List.for_all
        (fun k ->
          List.mem k (keys (to_rel a)) && List.mem k (keys (to_rel b)))
        (keys i))

let prop_difference_disjoint =
  QCheck.Test.make ~name:"difference keys absent from right" ~count:200
    (QCheck.pair arb_rel arb_rel) (fun (a, b) ->
      let keys r = List.map (fun t -> t.(0)) (Relation.to_list r) in
      let d = Rel_ops.difference ~key_arity:1 (to_rel a) (to_rel b) in
      List.for_all (fun k -> not (List.mem k (keys (to_rel b)))) (keys d))

let prop_union_partition =
  QCheck.Test.make ~name:"union = intersect + both differences (by key)"
    ~count:200 (QCheck.pair arb_rel arb_rel) (fun (a, b) ->
      let keyset r =
        List.sort_uniq Int.compare
          (List.map (fun t -> t.(0)) (Relation.to_list r))
      in
      let a = to_rel a and b = to_rel b in
      let u = keyset (Rel_ops.union ~key_arity:1 a b) in
      let parts =
        List.sort_uniq Int.compare
          (keyset (Rel_ops.intersect ~key_arity:1 a b)
          @ keyset (Rel_ops.difference ~key_arity:1 a b)
          @ keyset (Rel_ops.difference ~key_arity:1 b a))
      in
      u = parts)

let prop_join_count =
  QCheck.Test.make ~name:"join count = sum of dup products" ~count:200
    (QCheck.pair arb_rel arb_rel) (fun (a, b) ->
      let count_key r k =
        List.length (List.filter (fun t -> t.(0) = k) (Relation.to_list r))
      in
      let a = to_rel a and b = to_rel b in
      let keys =
        List.sort_uniq Int.compare
          (List.map (fun t -> t.(0)) (Relation.to_list a))
      in
      let expected =
        List.fold_left (fun acc k -> acc + (count_key a k * count_key b k)) 0 keys
      in
      Relation.count (Rel_ops.join ~key_arity:1 a b) = expected)

let prop_project_select_commute =
  QCheck.Test.make ~name:"select on key commutes with key-keeping project"
    ~count:200 arb_rel (fun l ->
      let r = to_rel l in
      let pred t = t.(0) mod 2 = 0 in
      let a = Rel_ops.project [ 0 ] (Rel_ops.select pred r) in
      let b = Rel_ops.select (fun t -> t.(0) mod 2 = 0) (Rel_ops.project [ 0 ] r) in
      Relation.equal_multiset a b)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_sort_idempotent;
      prop_sort_matches_stable_sort;
      prop_is_sorted_iff_sort_identity;
      prop_union_commutative_keys;
      prop_intersect_subset;
      prop_difference_disjoint;
      prop_union_partition;
      prop_join_count;
      prop_project_select_commute;
    ]

let suite =
  [
    ("dtype widths", `Quick, test_dtype);
    ("value roundtrips", `Quick, test_value_roundtrip);
    ("schema operations", `Quick, test_schema);
    ("relation basics", `Quick, test_relation_basics);
    ("sort stability", `Quick, test_sort_stability);
    ("multiset equality", `Quick, test_equal_multiset);
    ("approximate equality", `Quick, test_approx_equal);
    ("Table 1: union", `Quick, test_table1_union);
    ("Table 1: intersect", `Quick, test_table1_intersect);
    ("Table 1: difference", `Quick, test_table1_difference);
    ("Table 1: product", `Quick, test_table1_product);
    ("Table 1: join", `Quick, test_table1_join);
    ("Table 1: project", `Quick, test_table1_project);
    ("Table 1: select", `Quick, test_table1_select);
    ("join duplicate keys", `Quick, test_join_duplicate_keys);
    ("semijoin / antijoin", `Quick, test_semijoin_antijoin);
    ("unique and group_by", `Quick, test_unique_and_group_by);
  ]
  @ qcheck_cases
