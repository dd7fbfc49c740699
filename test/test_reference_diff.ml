(* Differential tests of the host reference engine (Rel_ops, Reference
   and Pred.compile, on flat arrays) against the list-level oracle it
   replaced (Reference_oracle): every operator kind on random mixed
   relations, every row of random predicates and expressions, every node
   of the golden workloads, of random plans and of the Datalog tests'
   queries. Results must be equal data arrays, not equal multisets: same
   rows in the same order, with the same schema, or the same exception. *)

open Relation_lib
open Qplan
module O = Reference_oracle

type outcome = Rows of Schema.t * int * int array | Raised of string

let outcome f =
  match f () with
  | r -> Rows (Relation.schema r, Relation.count r, Relation.data r)
  | exception e -> Raised (Printexc.to_string e)

let show = function
  | Rows (_, n, _) -> Printf.sprintf "%d rows" n
  | Raised e -> "raised " ^ e

(* [None] when the engine's and the oracle's outcomes are equal, else
   what differs. *)
let diff what engine oracle =
  let a = outcome engine and b = outcome oracle in
  if a = b then None
  else
    Some
      (Printf.sprintf "%s: engine %s, oracle %s%s" what (show a) (show b)
         (match (a, b) with
         | Rows (sa, _, _), Rows (sb, _, _) when sa <> sb -> " (schemas differ)"
         | Rows (_, n, da), Rows (_, m, db) when n = m ->
             let i = ref 0 in
             while da.(!i) = db.(!i) do
               incr i
             done;
             Printf.sprintf " (first differing word %d: %d vs %d)" !i da.(!i)
               db.(!i)
         | _ -> ""))

let kind_diff kind inputs =
  diff (Op.show_kind kind)
    (fun () -> Reference.eval_kind kind inputs)
    (fun () -> O.Reference.eval_kind kind inputs)

(* --- random operators over mixed relations ------------------------------- *)

let pick st l = List.nth l (Random.State.int st (List.length l))

let floats = [ 0.5; -2.0; 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity; 3.0 ]

(* Every node types (the relations hold no booleans); integer division
   by a zero constant or a tiny attribute raises at some rows. *)
let rec random_expr st ar depth =
  match Random.State.int st (if depth = 0 then 3 else 5) with
  | 0 -> Pred.Attr (Random.State.int st ar)
  | 1 -> Pred.Int (Random.State.int st 7 - 3)
  | 2 -> Pred.F32 (pick st floats)
  | _ ->
      Pred.Bin
        ( pick st Pred.[ Add; Sub; Mul; Div ],
          random_expr st ar (depth - 1),
          random_expr st ar (depth - 1) )

let rec random_pred st ar depth =
  match Random.State.int st (if depth = 0 then 2 else 6) with
  | 0 -> Pred.True
  | 1 | 2 ->
      Pred.Cmp
        ( pick st Pred.[ Eq; Ne; Lt; Le; Gt; Ge ],
          random_expr st ar 1,
          random_expr st ar 1 )
  | 3 -> Pred.And (random_pred st ar (depth - 1), random_pred st ar (depth - 1))
  | 4 -> Pred.Or (random_pred st ar (depth - 1), random_pred st ar (depth - 1))
  | _ -> Pred.Not (random_pred st ar (depth - 1))

let random_cols st ar ~max =
  List.init (Random.State.int st (max + 1)) (fun _ -> Random.State.int st ar)

let first n r =
  let ar = Relation.arity r in
  let n = min n (Relation.count r) in
  Relation.of_array (Relation.schema r) (Array.sub (Relation.data r) 0 (n * ar))

let rows_where keep r =
  Relation.create (Relation.schema r)
    (List.filteri (fun i _ -> keep i) (Relation.to_list r))

(* Each row's predicate and expression outcome, row by row: a raise must
   come at the same row. *)
let row_diffs st r =
  let s = Relation.schema r and ar = Relation.arity r and d = Relation.data r in
  let p = random_pred st ar 2 and e = random_expr st ar 2 in
  let cp = Pred.compile s p and ce = Pred.compile_expr s e in
  let out f = match f () with v -> Ok v | exception x -> Error (Printexc.to_string x) in
  List.concat
    (List.init (Relation.count r) (fun i ->
         let tup = Relation.get r i in
         (if out (fun () -> cp d (i * ar)) = out (fun () -> O.Pred_eval.eval s tup p)
          then []
          else [ Printf.sprintf "predicate %s differs at row %d" (Pred.show p) i ])
         @
         if out (fun () -> ce d (i * ar)) = out (fun () -> O.Pred_eval.eval_expr s tup e)
         then []
         else [ Printf.sprintf "expression %s differs at row %d" (Pred.show_expr e) i ]))

let unary_kinds st ar =
  let keys = List.init (ar + 2) Fun.id in
  List.concat_map (fun k -> Op.[ Sort { key_arity = k }; Unique { key_arity = k } ]) keys
  @ [ Op.Project [] ]
  @ List.init 3 (fun _ -> Op.Project (Random.State.int st ar :: random_cols st ar ~max:4))
  @ List.init 3 (fun _ -> Op.Select (random_pred st ar 3))
  @ List.init 3 (fun _ ->
        Op.Arith
          (List.init (1 + Random.State.int st 3) (fun j ->
               (Printf.sprintf "e%d" j, random_expr st ar 2))))
  @ List.init 4 (fun _ ->
        Op.Aggregate
          {
            group_by = random_cols st ar ~max:3;
            aggs =
              List.init (1 + Random.State.int st 3) (fun j ->
                  {
                    Op.fn = pick st Op.[ Sum; Count; Min; Max; Avg ];
                    expr = random_expr st ar 1;
                    agg_name = Printf.sprintf "g%d" j;
                  });
          })

let binary_kinds ar =
  List.concat_map
    (fun k ->
      Op.
        [
          Join { key_arity = k };
          Semijoin { key_arity = k };
          Antijoin { key_arity = k };
          Union { key_arity = k };
          Intersect { key_arity = k };
          Difference { key_arity = k };
        ])
    (List.init (ar + 2) Fun.id)

(* Joins and products multiply rows: their inputs are cut to a few dozen
   rows, the others see whole relations. *)
let cut kind (a, b) =
  match kind with
  | Op.Join _ -> (first 120 a, first 120 b)
  | Op.Product -> (first 40 a, first 40 b)
  | _ -> (a, b)

let prop_operators =
  QCheck.Test.make ~name:"every operator equals the oracle" ~count:150
    (QCheck.pair Test_relation.arb_mixed QCheck.small_nat)
    (fun ((dts, _, rows), seed) ->
      let st = Random.State.make [| seed |] in
      let r = Test_relation.mixed_rel dts rows in
      let ar = Relation.arity r in
      (* overlapping thirds: shared keys and shared duplicate rows *)
      let l = rows_where (fun i -> i mod 3 <> 2) r
      and rt = rows_where (fun i -> i mod 3 <> 0) r in
      (* the same keys under a different value part *)
      let wide =
        O.Rel_ops.project (List.init ar (fun j -> ar - 1 - j) @ [ 0 ]) rt
      in
      let empty = Relation.empty (Relation.schema r) in
      let unary = List.map (fun k -> kind_diff k [ r ]) (unary_kinds st ar) in
      let binary =
        List.concat_map
          (fun kind ->
            List.map
              (fun pair ->
                let a, b = cut kind pair in
                kind_diff kind [ a; b ])
              [ (l, rt); (rt, l); (l, empty); (empty, rt); (r, r) ])
          (binary_kinds ar)
      in
      let keyed =
        List.concat_map
          (fun k ->
            List.map
              (fun kind ->
                let a, b = cut kind (l, wide) in
                kind_diff kind [ a; b ])
              Op.[ Join { key_arity = k }; Semijoin { key_arity = k }; Antijoin { key_arity = k }; Union { key_arity = k } ])
          (List.init ar (fun k -> k + 1))
      in
      let product = [ kind_diff Op.Product (let a, b = cut Op.Product (l, wide) in [ a; b ]) ] in
      match List.filter_map Fun.id (unary @ binary @ keyed @ product) @ row_diffs st r with
      | [] -> true
      | fails -> QCheck.Test.fail_report (String.concat "\n" fails))

(* --- hand-picked edge cases ------------------------------------------------ *)

let check = function None -> () | Some m -> Alcotest.fail m

let s_ii = Schema.make [ ("k", Dtype.I32); ("v", Dtype.I32) ]
let s_if = Schema.make [ ("k", Dtype.I32); ("x", Dtype.F32) ]
let rel s rows = Relation.create s (List.map Array.of_list rows)

let test_division_by_zero () =
  (* the third row divides by zero: the same Type_error, at that row *)
  let r = rel s_ii [ [ 4; 2 ]; [ 5; 1 ]; [ 6; 0 ]; [ 7; 0 ] ] in
  let e = Pred.Bin (Pred.Div, Pred.Attr 0, Pred.Attr 1) in
  let kinds =
    Op.
      [
        Arith [ ("q", e) ];
        Select (Pred.Cmp (Pred.Gt, e, Pred.Int 0));
        Aggregate { group_by = [ 0 ]; aggs = [ { fn = Count; expr = e; agg_name = "c" } ] };
        Aggregate { group_by = []; aggs = [ { fn = Sum; expr = e; agg_name = "s" } ] };
      ]
  in
  List.iter (fun k -> check (kind_diff k [ r ])) kinds;
  Alcotest.(check bool) "raises" true
    (match Reference.eval_kind (List.hd kinds) [ r ] with
    | _ -> false
    | exception Pred.Type_error _ -> true);
  let f = Pred.compile_expr s_ii e and d = Relation.data r in
  Alcotest.(check (list bool)) "raises at rows 2 and 3" [ false; false; true; true ]
    (List.init 4 (fun i ->
         match f d (2 * i) with _ -> false | exception Pred.Type_error _ -> true))

let test_float_groups () =
  (* f32 group words sort by bits: -0.0 after +0.0, NaN payloads apart;
     SUM, MIN and MAX see members in input order *)
  let w = Value.of_f32 in
  let r =
    rel s_if
      [
        [ 1; w (-0.0) ]; [ 1; w 0.0 ]; [ 2; 0x7FC0_0001 ]; [ 1; w 1e8 ]; [ 2; w nan ];
        [ 1; w 1.0 ]; [ 1; w (-1e8) ]; [ 3; w infinity ]; [ 3; w neg_infinity ];
      ]
  in
  let aggs =
    List.map
      (fun fn -> { Op.fn; expr = Pred.Attr 1; agg_name = Op.show_agg_fn fn })
      Op.[ Sum; Count; Min; Max; Avg ]
  in
  List.iter
    (fun group_by -> check (kind_diff (Op.Aggregate { group_by; aggs }) [ r ]))
    [ [ 0 ]; [ 1 ]; [ 1; 0 ]; [ 0; 0 ]; [] ];
  check (kind_diff (Op.Aggregate { group_by = [ 0 ]; aggs }) [ Relation.empty s_if ])

let nan_words = [ 0x7FC0_0001; 0xFFC1_2345; 0x7F80_0001; 0xFFFF_FFFF; 0x7F80_0000; 0x3F80_0000 ]

let test_nan_payloads () =
  (* which NaN a sum, a product or an average keeps, for every pair of
     operands in both orders *)
  let s = Schema.make [ ("a", Dtype.F32); ("b", Dtype.F32); ("k", Dtype.I32) ] in
  let rows =
    List.concat_map (fun a -> List.map (fun b -> [ a; b; 0 ]) nan_words) nan_words
  in
  let r = rel s rows in
  let ops = Pred.[ Add; Sub; Mul; Div ] in
  List.iter
    (fun op ->
      check
        (kind_diff
           (Op.Arith
              [
                ("ab", Pred.Bin (op, Pred.Attr 0, Pred.Attr 1));
                ("ba", Pred.Bin (op, Pred.Attr 1, Pred.Attr 0));
                ("ak", Pred.Bin (op, Pred.Attr 0, Pred.Attr 2));
                ("ka", Pred.Bin (op, Pred.Attr 2, Pred.Attr 0));
              ])
           [ r ]))
    ops;
  let aggs =
    List.concat_map
      (fun fn ->
        List.map
          (fun (n, e) -> { Op.fn; expr = e; agg_name = n ^ Op.show_agg_fn fn })
          [ ("a", Pred.Attr 0); ("b", Pred.Attr 1) ])
      Op.[ Sum; Min; Max; Avg ]
  in
  (* one group per operand pair, and groups of every row *)
  List.iter
    (fun group_by -> check (kind_diff (Op.Aggregate { group_by; aggs }) [ r ]))
    [ [ 0 ]; [ 1 ]; [ 2 ]; [] ]

let test_mismatches () =
  (* typing and arity failures raise what the oracle raises *)
  let r = rel s_ii [ [ 1; 2 ] ] and b = rel s_if [ [ 1; 0 ] ] in
  let bool_s = Schema.make [ ("k", Dtype.I32); ("f", Dtype.Bool) ] in
  let rb = rel bool_s [ [ 1; 1 ]; [ 2; 0 ] ] in
  List.iter check
    [
      kind_diff (Op.Union { key_arity = 1 }) [ r; b ];
      kind_diff (Op.Join { key_arity = 2 }) [ r; b ];
      kind_diff (Op.Project [ 2 ]) [ r ];
      kind_diff (Op.Sort { key_arity = 1 }) [ r; r ];
      kind_diff (Op.Select (Pred.Cmp (Pred.Eq, Pred.Attr 1, Pred.Int 0))) [ rb ];
      kind_diff
        (Op.Select
           (Pred.And
              ( Pred.Cmp (Pred.Gt, Pred.Attr 0, Pred.Int 5),
                Pred.Cmp (Pred.Eq, Pred.Attr 1, Pred.Int 0) )))
        [ rb ];
      kind_diff (Op.Select (Pred.Cmp (Pred.Eq, Pred.Attr 1, Pred.Int 0))) [ Relation.empty bool_s ];
      kind_diff
        (Op.Aggregate
           { group_by = [ 0 ]; aggs = [ { fn = Count; expr = Pred.Attr 1; agg_name = "c" } ] })
        [ rb ];
      kind_diff
        (Op.Aggregate
           { group_by = [ 0 ]; aggs = [ { fn = Avg; expr = Pred.Attr 7; agg_name = "a" } ] })
        [ rb ];
    ]

(* --- whole plans ----------------------------------------------------------- *)

let plan_diff what plan bases =
  let snap f =
    match f () with
    | rs -> Ok (Array.map (fun r -> (Relation.schema r, Relation.count r, Relation.data r)) rs)
    | exception e -> Error (Printexc.to_string e)
  in
  match (snap (fun () -> Reference.eval plan bases), snap (fun () -> O.Reference.eval plan bases)) with
  | a, b when a = b -> None
  | Ok a, Ok b ->
      let i = ref 0 in
      while a.(!i) = b.(!i) do
        incr i
      done;
      Some (Printf.sprintf "%s: node %d differs" what !i)
  | _ -> Some (what ^ ": one raised")

let goldens () =
  let patterns rows =
    List.map
      (fun (w : Tpch.Patterns.workload) ->
        (Printf.sprintf "%s at %d rows" w.name rows, w.plan, w.gen ~seed:5 ~rows))
      (Tpch.Patterns.all () @ [ Tpch.Patterns.pattern_ab () ])
  in
  let queries lineitems qs =
    let db = Tpch.Datagen.generate ~seed:5 ~lineitems in
    List.map
      (fun (q : Tpch.Queries.query) ->
        (Printf.sprintf "%s at %d lineitems" q.qname lineitems, q.plan, q.bind db))
      qs
  in
  patterns 300 @ patterns 2_000
  @ queries 300 Tpch.Queries.[ q1; q21; q21_semi ]
  @ queries 2_000 Tpch.Queries.[ q21; q21_semi ]
  @ queries 20_000 [ Tpch.Queries.q1 ]

let test_goldens () =
  let gs = goldens () in
  Alcotest.(check int) "8 goldens at two sizes, q21_semi, perfbench sizes" 18 (List.length gs);
  List.iter (fun (what, plan, bases) -> check (plan_diff what plan bases)) gs

let test_random_plans () =
  for seed = 0 to 150 do
    let { Test_property.plan; bases; desc } = Test_property.build_random seed in
    check (plan_diff (Printf.sprintf "seed %d (%s)" seed desc) plan bases)
  done

let test_datalog () =
  List.iter
    (fun (name, src, named) ->
      let q = Datalog.compile src in
      check (plan_diff name q.Datalog.plan (Datalog.bind q named)))
    (Test_datalog.queries ())

let suite =
  [
    QCheck_alcotest.to_alcotest prop_operators;
    ("division by zero at the same row", `Quick, test_division_by_zero);
    ("f32 group words and member order", `Quick, test_float_groups);
    ("NaN payloads", `Quick, test_nan_payloads);
    ("typing and arity failures", `Quick, test_mismatches);
    ("golden nodes equal the oracle", `Quick, test_goldens);
    ("random plans 0-150 equal the oracle", `Quick, test_random_plans);
    ("datalog queries equal the oracle", `Quick, test_datalog);
  ]
