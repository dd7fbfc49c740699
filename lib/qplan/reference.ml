open Relation_lib

(* One aggregate over the members [perm.(lo) .. perm.(hi - 1)] of a group
   (rows of [d], [ar] words each), in input order. Every member's value is
   computed before the expression's dtype is read, so an expression that
   only fails to type (COUNT or AVG of a boolean attribute, which the
   output schema does not type) raises after the same rows it always did. *)
(* [acc +. x], where a NaN [x] is the result even when [acc] is NaN too:
   the NaN a running sum keeps is fixed here, not by which operand the
   compiler's register allocation puts first (x86 keeps the first one's),
   and it is the one the list fold that preceded this engine kept. *)
let[@inline] add acc x = if Float.is_nan x then x else acc +. x

let agg_value (fn : Op.agg_fn) f dt d ar perm lo hi =
  let v i = f d (perm.(i) * ar) in
  match dt with
  | Error e ->
      for i = lo to hi - 1 do
        ignore (v i)
      done;
      raise e
  | Ok dt -> (
      match fn with
      | Count ->
          for i = lo to hi - 1 do
            ignore (v i)
          done;
          hi - lo
      | Sum ->
          if Dtype.is_float dt then begin
            (* accumulate in f32 like the device does *)
            let acc = ref 0.0 in
            for i = lo to hi - 1 do
              acc := add !acc (Value.to_f32 (v i));
              acc := Value.to_f32 (Value.of_f32 !acc)
            done;
            Value.of_f32 !acc
          end
          else begin
            let acc = ref 0 in
            for i = lo to hi - 1 do
              acc := !acc + v i
            done;
            !acc
          end
      | Min | Max ->
          let sign = if fn = Min then -1 else 1 in
          let acc = ref (v lo) in
          for i = lo + 1 to hi - 1 do
            let x = v i in
            if sign * Value.compare_as dt x !acc > 0 then acc := x
          done;
          !acc
      | Avg ->
          let acc = ref 0.0 in
          for i = lo to hi - 1 do
            let x = v i in
            acc := add !acc (if Dtype.is_float dt then Value.to_f32 x else float_of_int x)
          done;
          Value.of_f32 (!acc /. float_of_int (hi - lo)))

let eval_aggregate ~group_by ~aggs rel =
  let schema = Relation.schema rel in
  let out_schema =
    match Op.out_schema (Op.Aggregate { group_by; aggs }) [ schema ] with
    | Ok s -> s
    | Error m -> invalid_arg ("Reference.eval_aggregate: " ^ m)
  in
  let n = Relation.count rel and ar = Relation.arity rel and d = Relation.data rel in
  let cols = Array.of_list group_by in
  let k = Array.length cols in
  (* groups are runs of equal group words after a stable sort on them: in
     the order [Stdlib.compare] gives the key arrays, members in input
     order *)
  let perm = Relation.group_perm rel ~cols:group_by in
  let same a b =
    let rec go c =
      c >= k || (d.((a * ar) + cols.(c)) = d.((b * ar) + cols.(c)) && go (c + 1))
    in
    go 0
  in
  let first p = p = 0 || not (same perm.(p - 1) perm.(p)) in
  let groups = ref 0 in
  for p = 0 to n - 1 do
    if first p then incr groups
  done;
  let starts = Array.make (!groups + 1) n and g = ref 0 in
  for p = 0 to n - 1 do
    if first p then begin
      starts.(!g) <- p;
      incr g
    end
  done;
  let aggs =
    Array.of_list
      (List.map
         (fun (a : Op.agg) ->
           ( a.fn,
             Pred.compile_expr schema a.expr,
             match Pred.type_of_expr schema a.expr with
             | t -> Ok t
             | exception (Pred.Type_error _ as e) -> Error e ))
         aggs)
  in
  let oa = k + Array.length aggs in
  let out = Array.make (!groups * oa) 0 in
  for g = 0 to !groups - 1 do
    let lo = starts.(g) and hi = starts.(g + 1) and o = g * oa in
    for c = 0 to k - 1 do
      out.(o + c) <- d.((perm.(lo) * ar) + cols.(c))
    done;
    Array.iteri
      (fun j (fn, f, dt) -> out.(o + k + j) <- agg_value fn f dt d ar perm lo hi)
      aggs
  done;
  Relation.of_array out_schema out

let eval_kind kind inputs =
  let unary () = match inputs with [ r ] -> r | _ -> invalid_arg "Reference.eval_kind: arity" in
  let binary () =
    match inputs with [ a; b ] -> (a, b) | _ -> invalid_arg "Reference.eval_kind: arity"
  in
  match kind with
  | Op.Select p ->
      let r = unary () in
      Rel_ops.select (Pred.compile (Relation.schema r) p) r
  | Op.Project cols -> Rel_ops.project cols (unary ())
  | Op.Arith outs ->
      let r = unary () in
      let schema = Relation.schema r in
      let out_schema =
        match Op.out_schema kind [ schema ] with
        | Ok s -> s
        | Error m -> invalid_arg ("Reference.eval_kind: " ^ m)
      in
      Rel_ops.map out_schema
        (Array.of_list (List.map (fun (_, e) -> Pred.compile_expr schema e) outs))
        r
  | Op.Join { key_arity } ->
      let a, b = binary () in
      Rel_ops.join ~key_arity a b
  | Op.Semijoin { key_arity } ->
      let a, b = binary () in
      Rel_ops.semijoin ~key_arity a b
  | Op.Antijoin { key_arity } ->
      let a, b = binary () in
      Rel_ops.antijoin ~key_arity a b
  | Op.Product ->
      let a, b = binary () in
      Rel_ops.product a b
  | Op.Union { key_arity } ->
      let a, b = binary () in
      Rel_ops.union ~key_arity a b
  | Op.Intersect { key_arity } ->
      let a, b = binary () in
      Rel_ops.intersect ~key_arity a b
  | Op.Difference { key_arity } ->
      let a, b = binary () in
      Rel_ops.difference ~key_arity a b
  | Op.Sort { key_arity } -> Rel_ops.sort ~key_arity (unary ())
  | Op.Unique { key_arity } -> Rel_ops.unique ~key_arity (unary ())
  | Op.Aggregate { group_by; aggs } -> eval_aggregate ~group_by ~aggs (unary ())

let eval_node (results : Relation.t array) bases (n : Plan.node) =
  let input = function
    | Plan.Base i -> bases.(i)
    | Plan.Node i -> results.(i)
  in
  eval_kind n.kind (List.map input n.inputs)

let eval plan bases =
  if Array.length bases <> Plan.base_count plan then
    invalid_arg
      (Printf.sprintf "Reference.eval: plan has %d bases, got %d relations"
         (Plan.base_count plan) (Array.length bases));
  Array.iteri
    (fun i r ->
      if not (Schema.equal (Relation.schema r) (Plan.base_schema plan i)) then
        invalid_arg (Printf.sprintf "Reference.eval: base %d schema mismatch" i))
    bases;
  let results =
    Array.make (Plan.node_count plan) (Relation.empty (Plan.base_schema plan 0))
  in
  List.iter
    (fun (n : Plan.node) -> results.(n.id) <- eval_node results bases n)
    (Plan.nodes plan);
  results

let eval_sinks plan bases =
  let results = eval plan bases in
  List.map (fun id -> (id, results.(id))) (Plan.sinks plan)
