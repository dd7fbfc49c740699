(* The list-level host algebra and plan evaluator that
   [Relation_lib.Rel_ops], [Qplan.Reference] and [Qplan.Pred.eval] were
   before they ran on flat arrays with staged predicates, kept verbatim
   as the oracle those are tested against (test_reference_diff.ml):
   simple, obviously-correct algorithms over tuple lists, which the flat
   engine must equal row for row, in the same order, raising the same
   exceptions. *)

open Relation_lib
open Qplan

(* The tree-walking evaluator: every node of every row re-derives its
   operand types. *)
module Pred_eval = struct
  open Pred

  let type_error fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

  (* round through binary32, as the GPU does after every float operation *)
  let f32 x = Value.to_f32 (Value.of_f32 x)

  (* An operand as the float the device computes with: an f32 decodes as
     stored, an int widens through binary32 exactly as the device's I2f
     rounds it. *)
  let as_float t v =
    if Dtype.is_float t then Value.to_f32 v else f32 (float_of_int v)

  let rec eval_expr schema tup e =
    match e with
    | Attr i -> tup.(i)
    | Int n -> n
    | F32 f -> Value.of_f32 f
    | Bin (op, a, b) ->
        let ta = type_of_expr schema a and tb = type_of_expr schema b in
        let va = eval_expr schema tup a and vb = eval_expr schema tup b in
        if Dtype.is_float (type_of_expr schema e) then
          let fa = as_float ta va and fb = as_float tb vb in
          Value.of_f32
            (match op with
            | Add -> f32 (fa +. fb)
            | Sub -> f32 (fa -. fb)
            | Mul -> f32 (fa *. fb)
            | Div -> f32 (fa /. fb))
        else
          match op with
          | Add -> va + vb
          | Sub -> va - vb
          | Mul -> va * vb
          | Div ->
              if vb = 0 then type_error "integer division by zero" else va / vb

  let rec eval schema tup = function
    | True -> true
    | Not p -> not (eval schema tup p)
    | And (a, b) -> eval schema tup a && eval schema tup b
    | Or (a, b) -> eval schema tup a || eval schema tup b
    | Cmp (c, a, b) ->
        let ta = type_of_expr schema a and tb = type_of_expr schema b in
        let va = eval_expr schema tup a and vb = eval_expr schema tup b in
        let r =
          if Dtype.is_float ta || Dtype.is_float tb then
            Float.compare (as_float ta va) (as_float tb vb)
          else Int.compare va vb
        in
        (match c with
        | Eq -> r = 0
        | Ne -> r <> 0
        | Lt -> r < 0
        | Le -> r <= 0
        | Gt -> r > 0
        | Ge -> r >= 0)
end

module Rel_ops = struct
  let select pred r =
    Relation.create (Relation.schema r)
      (List.filter pred (Relation.to_list r))

  let project indices r =
    let out_schema = Schema.project (Relation.schema r) indices in
    let keep tup = Array.of_list (List.map (fun i -> tup.(i)) indices) in
    Relation.create out_schema (List.map keep (Relation.to_list r))

  let map out_schema f r =
    let ar = Schema.arity out_schema in
    let apply tup =
      let out = f tup in
      if Array.length out <> ar then
        invalid_arg "Rel_ops.map: function result does not match output schema";
      out
    in
    Relation.create out_schema (List.map apply (Relation.to_list r))

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

  let value_suffix ~key_arity tup =
    Array.sub tup key_arity (Array.length tup - key_arity)

  let join ~key_arity left right =
    check_key_compat "join" ~key_arity left right;
    let ls = Relation.schema left and rs = Relation.schema right in
    let out_schema =
      Schema.concat ls
        (Array.sub rs key_arity (Schema.arity rs - key_arity))
    in
    let l = Relation.to_list (Relation.sort ~key_arity left) in
    let r = Relation.to_list (Relation.sort ~key_arity right) in
    let cmp a b = Relation.compare_key ls ~key_arity a b in
    (* sort-merge: for each run of equal keys emit the cross product *)
    let rec run_of key = function
      | x :: rest when cmp x key = 0 ->
          let same, rest' = run_of key rest in
          (x :: same, rest')
      | rest -> ([], rest)
    in
    let rec merge l r acc =
      match (l, r) with
      | [], _ | _, [] -> List.rev acc
      | x :: _, y :: _ ->
          let c = cmp x y in
          if c < 0 then merge (List.tl l) r acc
          else if c > 0 then merge l (List.tl r) acc
          else
            let lrun, l' = run_of x l in
            let rrun, r' = run_of x r in
            let acc =
              List.fold_left
                (fun acc a ->
                  List.fold_left
                    (fun acc b ->
                      Array.append a (value_suffix ~key_arity b) :: acc)
                    acc rrun)
                acc lrun
            in
            merge l' r' acc
    in
    Relation.sort ~key_arity (Relation.create out_schema (merge l r []))

  let product left right =
    let out_schema = Schema.concat (Relation.schema left) (Relation.schema right) in
    let tuples =
      List.concat_map
        (fun a ->
          List.map (fun b -> Array.append a b) (Relation.to_list right))
        (Relation.to_list left)
    in
    Relation.create out_schema tuples

  let member_filter name keep_present ~key_arity left right =
    check_key_compat name ~key_arity left right;
    let ls = Relation.schema left in
    let sorted_right = Relation.sort ~key_arity right in
    let n = Relation.count sorted_right in
    let present tup =
      (* binary search the key prefix *)
      let cmp i =
        Relation.compare_key ls ~key_arity (Relation.get sorted_right i) tup
      in
      let rec go lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if cmp mid < 0 then go (mid + 1) hi else go lo mid
      in
      let lb = go 0 n in
      lb < n && cmp lb = 0
    in
    let keep tup = if keep_present then present tup else not (present tup) in
    Relation.create ls (List.filter keep (Relation.to_list left))

  let semijoin ~key_arity left right =
    member_filter "semijoin" true ~key_arity left right

  let antijoin ~key_arity left right =
    member_filter "antijoin" false ~key_arity left right

  (* Deduplicate a key-sorted tuple list by key, keeping the first tuple. *)
  let dedup_sorted cmp l =
    let rec go = function
      | a :: b :: rest when cmp a b = 0 -> go (a :: rest)
      | a :: rest -> a :: go rest
      | [] -> []
    in
    go l

  let set_op name keep_left_only keep_both keep_right_only ~key_arity left right =
    check_key_compat name ~key_arity left right;
    let ls = Relation.schema left in
    if keep_right_only && not (Schema.compatible ls (Relation.schema right)) then
      invalid_arg (Printf.sprintf "Rel_ops.%s: schemas incompatible" name);
    let cmp a b = Relation.compare_key ls ~key_arity a b in
    let l = dedup_sorted cmp (Relation.to_list (Relation.sort ~key_arity left)) in
    let r = dedup_sorted cmp (Relation.to_list (Relation.sort ~key_arity right)) in
    let rec merge l r acc =
      match (l, r) with
      | [], [] -> List.rev acc
      | x :: l', [] -> merge l' [] (if keep_left_only then x :: acc else acc)
      | [], y :: r' -> merge [] r' (if keep_right_only then y :: acc else acc)
      | x :: l', y :: r' ->
          let c = cmp x y in
          if c < 0 then merge l' r (if keep_left_only then x :: acc else acc)
          else if c > 0 then merge l r' (if keep_right_only then y :: acc else acc)
          else merge l' r' (if keep_both then x :: acc else acc)
    in
    Relation.create ls (merge l r [])

  let union ~key_arity l r = set_op "union" true true true ~key_arity l r
  let intersect ~key_arity l r = set_op "intersect" false true false ~key_arity l r
  let difference ~key_arity l r = set_op "difference" true false false ~key_arity l r

  let sort = Relation.sort

  let unique ~key_arity r =
    let s = Relation.sort ~key_arity r in
    let cmp a b = Relation.compare_key (Relation.schema r) ~key_arity a b in
    Relation.create (Relation.schema r) (dedup_sorted cmp (Relation.to_list s))

  let group_by ~cols r =
    let key tup = Array.of_list (List.map (fun c -> tup.(c)) cols) in
    let tbl = Hashtbl.create 64 in
    let order = ref [] in
    Relation.iter
      (fun tup ->
        let k = key tup in
        match Hashtbl.find_opt tbl k with
        | Some members -> members := tup :: !members
        | None ->
            Hashtbl.replace tbl k (ref [ tup ]);
            order := k :: !order)
      r;
    !order
    |> List.map (fun k -> (k, List.rev !(Hashtbl.find tbl k)))
    |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)
end

module Reference = struct
  let eval_aggregate ~group_by ~aggs rel =
    let schema = Relation.schema rel in
    let out_schema =
      match Op.out_schema (Op.Aggregate { group_by; aggs }) [ schema ] with
      | Ok s -> s
      | Error m -> invalid_arg ("Reference.eval_aggregate: " ^ m)
    in
    let groups = Rel_ops.group_by ~cols:group_by rel in
    let agg_value members (a : Op.agg) =
      let vals = List.map (fun tup -> Pred_eval.eval_expr schema tup a.expr) members in
      let dt = Pred.type_of_expr schema a.expr in
      let as_float v = if Dtype.is_float dt then Value.to_f32 v else float_of_int v in
      match a.fn with
      | Count -> List.length members
      | Sum ->
          if Dtype.is_float dt then
            (* accumulate in f32 like the device does *)
            Value.of_f32
              (List.fold_left
                 (fun acc v -> Value.to_f32 (Value.of_f32 (acc +. Value.to_f32 v)))
                 0.0 vals)
          else List.fold_left ( + ) 0 vals
      | Min -> (
          match vals with
          | [] -> 0
          | v0 :: rest ->
              List.fold_left
                (fun acc v -> if Value.compare_as dt v acc < 0 then v else acc)
                v0 rest)
      | Max -> (
          match vals with
          | [] -> 0
          | v0 :: rest ->
              List.fold_left
                (fun acc v -> if Value.compare_as dt v acc > 0 then v else acc)
                v0 rest)
      | Avg ->
          let n = List.length vals in
          if n = 0 then Value.of_f32 0.0
          else
            Value.of_f32
              (List.fold_left (fun acc v -> acc +. as_float v) 0.0 vals
              /. float_of_int n)
    in
    let tuples =
      List.map
        (fun (key, members) ->
          Array.append key (Array.of_list (List.map (agg_value members) aggs)))
        groups
    in
    Relation.create out_schema tuples

  let eval_kind kind inputs =
    let unary () = match inputs with [ r ] -> r | _ -> invalid_arg "Reference.eval_kind: arity" in
    let binary () =
      match inputs with [ a; b ] -> (a, b) | _ -> invalid_arg "Reference.eval_kind: arity"
    in
    match kind with
    | Op.Select p ->
        let r = unary () in
        let schema = Relation.schema r in
        Rel_ops.select (fun tup -> Pred_eval.eval schema tup p) r
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
          (fun tup ->
            Array.of_list
              (List.map (fun (_, e) -> Pred_eval.eval_expr schema tup e) outs))
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
end
