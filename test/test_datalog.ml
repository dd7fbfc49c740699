(* Datalog front-end: lexing, parsing, translation and end-to-end runs. *)

open Relation_lib

let check_tokens src expected =
  let got = List.map fst (Datalog.Lexer.tokenize src) in
  Alcotest.(check int) "token count" (List.length expected) (List.length got);
  List.iter2
    (fun e g ->
      Alcotest.(check bool)
        (Printf.sprintf "token %s" (Datalog.Lexer.show_token e))
        true
        (Datalog.Lexer.equal_token e g))
    expected got

let test_lexer () =
  check_tokens "foo(X, 12) :- bar(X), X >= 1.5. % comment"
    Datalog.Lexer.
      [
        IDENT "foo";
        LPAREN;
        VAR "X";
        COMMA;
        INT 12;
        RPAREN;
        TURNSTILE;
        IDENT "bar";
        LPAREN;
        VAR "X";
        RPAREN;
        COMMA;
        VAR "X";
        GE;
        FLOAT 1.5;
        DOT;
        EOF;
      ];
  check_tokens ".decl r(k: i32)"
    Datalog.Lexer.
      [ DIRECTIVE "decl"; IDENT "r"; LPAREN; IDENT "k"; COLON; IDENT "i32"; RPAREN; EOF ]

let test_parse_errors () =
  let expect_failure src =
    match Datalog.compile src with
    | exception (Datalog.Parser.Parse_error _ | Datalog.Lexer.Lex_error _
                | Datalog.Translate.Translate_error _) ->
        ()
    | _ -> Alcotest.fail ("should not compile: " ^ src)
  in
  expect_failure ".decl r(k: i32) r(X) :- s(X).";
  (* undeclared s *)
  expect_failure ".decl r(k: i32)\n.decl s(k: i32)\nr(Y) :- s(X).\n.output r";
  (* unbound head var *)
  expect_failure ".decl r(k: i32)\n.decl s(k: i32)\nr(X) :- s(X), r(X).\n.output r";
  (* recursion *)
  expect_failure ".decl r(k: i32)\nr(X) :- r(X)";
  (* missing dot / recursion *)
  expect_failure ".decl r(k: badtype)"

let sales_src =
  {|
  % filter and join two relations, compute a derived price
  .decl items(k: i32, price: f32, disc: f32)
  .decl stock(k: i32, qty: i32)
  .decl result(k: i32, net: f32, qty: i32)
  result(K, P * (1.0 - D), Q) :- items(K, P, D), stock(K, Q), Q > 5.
  .output result
  |}

let items_schema =
  Schema.make [ ("k", Dtype.I32); ("price", Dtype.F32); ("disc", Dtype.F32) ]

let stock_schema = Schema.make [ ("k", Dtype.I32); ("qty", Dtype.I32) ]

let test_translate_sales () =
  let q = Datalog.compile sales_src in
  Alcotest.(check (list string)) "bases" [ "items"; "stock" ] q.Datalog.base_names;
  Alcotest.(check int) "one output" 1 (List.length q.Datalog.output_nodes);
  (* plan: select(stock) for Q>5 happens as a comparison select; join;
     arith head.  At minimum there must be a JOIN and an ARITH. *)
  let kinds =
    List.map (fun (n : Qplan.Plan.node) -> Qplan.Op.name n.kind)
      (Qplan.Plan.nodes q.Datalog.plan)
  in
  Alcotest.(check bool) "has join" true (List.mem "JOIN" kinds);
  Alcotest.(check bool) "has arith" true (List.mem "ARITH" kinds)

let sales_inputs () =
  let st = Generator.make_state 99 in
  let items =
    Generator.random_relation ~key_range:150 ~sorted_key_arity:1 st items_schema
      ~count:300
  in
  let stock =
    Generator.random_relation ~key_range:150 ~sorted_key_arity:1 st stock_schema
      ~count:200
  in
  (* host stock qty values are large ints; rebuild with small ones so the
     Q > 5 filter has both outcomes *)
  let stock =
    Relation_lib.Rel_ops.map stock_schema
      [| (fun d o -> d.(o)); (fun d o -> d.(o + 1) mod 12) |]
      stock
  in
  [ ("items", items); ("stock", stock) ]

let test_run_sales () =
  let q = Datalog.compile sales_src in
  let named = sales_inputs () in
  let expected = Datalog.reference q named in
  let bases = Datalog.bind q named in
  let program = Weaver.Driver.compile q.Datalog.plan in
  let result = Weaver.Driver.run program bases ~mode:Weaver.Runtime.Resident in
  let got = Datalog.outputs_of_sinks q result.Weaver.Runtime.sinks in
  List.iter2
    (fun (n1, r1) (n2, r2) ->
      Alcotest.(check string) "output name" n1 n2;
      Alcotest.(check bool)
        (Printf.sprintf "%s matches reference (%d tuples)" n1 (Relation.count r1))
        true
        (Relation.approx_equal r1 r2))
    expected got

let union_src =
  {|
    .decl t(k: i32, v: i32)
    .decl small(k: i32, v: i32)
    small(K, V) :- t(K, V), V < 100.
    small(K, V) :- t(K, V), K < 3.
    .output small
    |}

let union_inputs () =
  let s = Schema.make [ ("k", Dtype.I32); ("v", Dtype.I32) ] in
  [
    ( "t",
      Relation.create s
        [ [| 1; 50 |]; [| 2; 500 |]; [| 4; 99 |]; [| 5; 1000 |]; [| 1; 50 |] ] );
  ]

let test_multi_rule_union () =
  let q = Datalog.compile union_src in
  let t = List.assoc "t" (union_inputs ()) in
  let expected = Datalog.reference q [ ("t", t) ] in
  let bases = Datalog.bind q [ ("t", t) ] in
  let program = Weaver.Driver.compile q.Datalog.plan in
  let result = Weaver.Driver.run program bases ~mode:Weaver.Runtime.Resident in
  let got = Datalog.outputs_of_sinks q result.Weaver.Runtime.sinks in
  let r_exp = List.assoc "small" expected and r_got = List.assoc "small" got in
  Alcotest.(check bool) "union of rules matches" true
    (Relation.equal_multiset r_exp r_got);
  (* union deduplicates on the full tuple: (1,50) appears once *)
  Alcotest.(check int) "set semantics" 3 (Relation.count r_got)

let cross_src =
  {|
    .decl a(x: i32)
    .decl b(y: i32)
    .decl pairs(x: i32, y: i32)
    pairs(X, Y) :- a(X), b(Y).
    .output pairs
    |}

let cross_inputs () =
  let sa = Schema.make [ ("x", Dtype.I32) ] in
  let sb = Schema.make [ ("y", Dtype.I32) ] in
  [
    ("a", Relation.create sa [ [| 1 |]; [| 2 |] ]);
    ("b", Relation.create sb [ [| 10 |]; [| 20 |]; [| 30 |] ]);
  ]

let test_cross_product_rule () =
  let q = Datalog.compile cross_src in
  let named = cross_inputs () in
  let expected = Datalog.reference q named in
  let bases = Datalog.bind q named in
  let program = Weaver.Driver.compile q.Datalog.plan in
  let result = Weaver.Driver.run program bases ~mode:Weaver.Runtime.Resident in
  let got = Datalog.outputs_of_sinks q result.Weaver.Runtime.sinks in
  Alcotest.(check bool) "cross product matches" true
    (Relation.equal_multiset (List.assoc "pairs" expected) (List.assoc "pairs" got));
  Alcotest.(check int) "6 pairs" 6 (Relation.count (List.assoc "pairs" got))

let negation_src =
  {|
    .decl emp(id: i32, dept: i32)
    .decl oncall(id: i32)
    .decl banned(id: i32)
    .decl avail(id: i32, dept: i32)
    avail(X, D) :- emp(X, D), oncall(X), !banned(X).
    .output avail
    |}

let negation_inputs () =
  let s1 = Schema.make [ ("id", Dtype.I32); ("dept", Dtype.I32) ] in
  let s2 = Schema.make [ ("id", Dtype.I32) ] in
  [
    ("emp", Relation.create s1 [ [| 1; 7 |]; [| 2; 7 |]; [| 3; 8 |]; [| 2; 9 |] ]);
    ("oncall", Relation.create s2 [ [| 1 |]; [| 2 |] ]);
    ("banned", Relation.create s2 [ [| 2 |] ]);
  ]

let test_negation_and_semijoin () =
  let q = Datalog.compile negation_src in
  (* oncall binds nothing new -> SEMIJOIN; !banned -> ANTIJOIN *)
  let kinds =
    List.map (fun (n : Qplan.Plan.node) -> Qplan.Op.name n.kind)
      (Qplan.Plan.nodes q.Datalog.plan)
  in
  Alcotest.(check bool) "has semijoin" true (List.mem "SEMIJOIN" kinds);
  Alcotest.(check bool) "has antijoin" true (List.mem "ANTIJOIN" kinds);
  let named = negation_inputs () in
  let expected = Datalog.reference q named in
  Alcotest.(check int) "only employee 1 remains" 1
    (Relation.count (List.assoc "avail" expected));
  (* and the device agrees *)
  let bases = Datalog.bind q named in
  let program = Weaver.Driver.compile q.Datalog.plan in
  let result = Weaver.Driver.run program bases ~mode:Weaver.Runtime.Resident in
  let got = Datalog.outputs_of_sinks q result.Weaver.Runtime.sinks in
  Alcotest.(check bool) "device matches" true
    (Relation.equal_multiset (List.assoc "avail" expected) (List.assoc "avail" got))

let test_unsafe_negation_rejected () =
  let src =
    {|
    .decl a(x: i32)
    .decl b(x: i32)
    .decl r(x: i32)
    r(X) :- a(X), !b(Y).
    .output r
    |}
  in
  match Datalog.compile src with
  | exception Datalog.Translate.Translate_error _ -> ()
  | _ -> Alcotest.fail "unsafe negation should be rejected"

let self_src =
  {|
    .decl e(src: i32, dst: i32)
    .decl self(src: i32, dst: i32)
    self(X, X) :- e(X, X).
    .output self
    |}

let self_inputs () =
  let s = Schema.make [ ("src", Dtype.I32); ("dst", Dtype.I32) ] in
  [ ("e", Relation.create s [ [| 1; 1 |]; [| 1; 2 |]; [| 3; 3 |] ]) ]

let test_repeated_var_and_const () =
  let q = Datalog.compile self_src in
  let got = Datalog.reference q (self_inputs ()) in
  Alcotest.(check int) "self loops" 2 (Relation.count (List.assoc "self" got))

(* Every query these tests run, with its inputs, for the reference
   engine's differential suite. *)
let queries () =
  [
    ("sales", sales_src, sales_inputs ());
    ("multi-rule union", union_src, union_inputs ());
    ("cross product", cross_src, cross_inputs ());
    ("negation and semijoin", negation_src, negation_inputs ());
    ("repeated var", self_src, self_inputs ());
  ]

let suite =
  [
    ("lexer", `Quick, test_lexer);
    ("parse/translate errors", `Quick, test_parse_errors);
    ("translate sales", `Quick, test_translate_sales);
    ("run sales end-to-end", `Quick, test_run_sales);
    ("multi-rule union", `Quick, test_multi_rule_union);
    ("cross product rule", `Quick, test_cross_product_rule);
    ("repeated var / const args", `Quick, test_repeated_var_and_const);
    ("negation and semijoin", `Quick, test_negation_and_semijoin);
    ("unsafe negation rejected", `Quick, test_unsafe_negation_rejected);
  ]
