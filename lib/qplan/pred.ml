open Relation_lib

type arith = Add | Sub | Mul | Div [@@deriving show, eq]

type cmp = Eq | Ne | Lt | Le | Gt | Ge [@@deriving show, eq]

type expr = Attr of int | Int of int | F32 of float | Bin of arith * expr * expr
[@@deriving show, eq]

type t =
  | Cmp of cmp * expr * expr
  | And of t * t
  | Or of t * t
  | Not of t
  | True
[@@deriving show, eq]

exception Type_error of string

let type_error fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

let rec type_of_expr schema = function
  | Attr i ->
      if i < 0 || i >= Schema.arity schema then
        type_error "attribute %d out of range (arity %d)" i
          (Schema.arity schema)
      else
        let dt = Schema.dtype schema i in
        if Dtype.equal dt Dtype.Bool then
          type_error "attribute %d is boolean; not usable in arithmetic" i
        else dt
  | Int _ -> Dtype.I32
  | F32 _ -> Dtype.F32
  | Bin (_, a, b) -> (
      let ta = type_of_expr schema a and tb = type_of_expr schema b in
      match (Dtype.is_float ta, Dtype.is_float tb) with
      | true, _ | _, true -> Dtype.F32
      | false, false ->
          if Dtype.equal ta Dtype.I64 || Dtype.equal tb Dtype.I64 then
            Dtype.I64
          else ta)

let rec check schema = function
  | True -> ()
  | Not p -> check schema p
  | And (a, b) | Or (a, b) ->
      check schema a;
      check schema b
  | Cmp (_, a, b) ->
      (* both sides typecheck; mixed int/float comparisons promote *)
      ignore (type_of_expr schema a);
      ignore (type_of_expr schema b)

(* round through binary32, as the GPU does after every float operation *)
let f32 x = Value.to_f32 (Value.of_f32 x)

(* An operand as the float the device computes with: an f32 decodes as
   stored, an int widens through binary32 exactly as the device's I2f
   rounds it. *)
let[@inline] as_float is_float v =
  if is_float then Value.to_f32 v else f32 (float_of_int v)

(* A node whose typing raises compiles to a function that raises the same
   exception, so a row raises exactly where the tree-walking evaluator
   did: at every row that reaches the node, and at no other. *)
let typed f k =
  match f () with exception (Type_error _ as e) -> fun _ _ -> raise e | t -> k t

let rec compile_expr schema e =
  match e with
  | Attr i ->
      if i < 0 || i >= Schema.arity schema then fun _ _ ->
        invalid_arg "index out of bounds"
      else fun d o -> d.(o + i)
  | Int n -> fun _ _ -> n
  | F32 f ->
      let w = Value.of_f32 f in
      fun _ _ -> w
  | Bin (op, a, b) ->
      typed
        (fun () ->
          let ta = type_of_expr schema a and tb = type_of_expr schema b in
          (ta, tb))
        (fun (ta, tb) ->
          let ca = compile_expr schema a and cb = compile_expr schema b in
          if Dtype.is_float (type_of_expr schema e) then
            let fla = Dtype.is_float ta and flb = Dtype.is_float tb in
            fun d o ->
              let va = ca d o and vb = cb d o in
              let fa = as_float fla va and fb = as_float flb vb in
              Value.of_f32
                (match op with
                | Add -> f32 (fa +. fb)
                | Sub -> f32 (fa -. fb)
                | Mul -> f32 (fa *. fb)
                | Div -> f32 (fa /. fb))
          else fun d o ->
            let va = ca d o and vb = cb d o in
            match op with
            | Add -> va + vb
            | Sub -> va - vb
            | Mul -> va * vb
            | Div ->
                if vb = 0 then type_error "integer division by zero"
                else va / vb)

let rec compile schema = function
  | True -> fun _ _ -> true
  | Not p ->
      let c = compile schema p in
      fun d o -> not (c d o)
  | And (a, b) ->
      let ca = compile schema a and cb = compile schema b in
      fun d o -> ca d o && cb d o
  | Or (a, b) ->
      let ca = compile schema a and cb = compile schema b in
      fun d o -> ca d o || cb d o
  | Cmp (c, a, b) ->
      typed
        (fun () ->
          let ta = type_of_expr schema a and tb = type_of_expr schema b in
          (ta, tb))
        (fun (ta, tb) ->
          let ca = compile_expr schema a and cb = compile_expr schema b in
          let holds r =
            match c with
            | Eq -> r = 0
            | Ne -> r <> 0
            | Lt -> r < 0
            | Le -> r <= 0
            | Gt -> r > 0
            | Ge -> r >= 0
          in
          if Dtype.is_float ta || Dtype.is_float tb then
            let fla = Dtype.is_float ta and flb = Dtype.is_float tb in
            fun d o ->
              let va = ca d o and vb = cb d o in
              holds (Float.compare (as_float fla va) (as_float flb vb))
          else fun d o ->
            let va = ca d o and vb = cb d o in
            holds (Int.compare va vb))

let eval_expr schema tup e = compile_expr schema e tup 0
let eval schema tup p = compile schema p tup 0

let rec expr_attrs = function
  | Attr i -> [ i ]
  | Int _ | F32 _ -> []
  | Bin (_, a, b) -> expr_attrs a @ expr_attrs b

let attrs_used p =
  let rec go = function
    | True -> []
    | Not p -> go p
    | And (a, b) | Or (a, b) -> go a @ go b
    | Cmp (_, a, b) -> expr_attrs a @ expr_attrs b
  in
  List.sort_uniq Int.compare (go p)

let ( &&& ) a b = And (a, b)
let ( ||| ) a b = Or (a, b)

let attr_between i lo hi =
  And (Cmp (Ge, Attr i, Int lo), Cmp (Le, Attr i, Int hi))
