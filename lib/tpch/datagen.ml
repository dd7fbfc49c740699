open Relation_lib

type db = {
  lineitem : Relation.t;
  orders : Relation.t;
  supplier : Relation.t;
  nation : Relation.t;
  customer : Relation.t;
}

(* day numbers relative to 1992-01-01 *)
let day_of ~year ~month ~day = ((year - 1992) * 365) + ((month - 1) * 30) + day
let date_1995_03_15 = day_of ~year:1995 ~month:3 ~day:15
let date_1998_09_01 = day_of ~year:1998 ~month:9 ~day:1

let f32 = Value.of_f32

(* A table of [n] rows, each written in place by [row i d o] at word
   offset [o] of the table's one flat array. *)
let table schema n row =
  let ar = Schema.arity schema in
  let d = Array.make (n * ar) 0 in
  for i = 0 to n - 1 do
    row i d (i * ar)
  done;
  Relation.of_array schema d

(* Every draw is bound by [let], in the order the table's rows have always
   drawn them, so a seed keeps generating the same data. *)
let generate ~seed ~lineitems =
  let st = Random.State.make [| seed; 0x7bc4 |] in
  let irand n = Random.State.int st (max n 1) in
  let frand lo hi = lo +. Random.State.float st (hi -. lo) in
  let n_orders = max 1 (lineitems / 4) in
  let n_customers = (n_orders / 8) + 1 in
  let n_suppliers = (lineitems / 50) + 1 in
  let n_nations = 25 in
  let nation =
    table Tpch_schema.nation n_nations (fun i d o ->
        d.(o) <- i;
        d.(o + 1) <- 1000 + i)
  in
  let keyed_by_nation schema n =
    table schema n (fun i d o ->
        d.(o) <- i;
        d.(o + 1) <- irand n_nations)
  in
  let supplier = keyed_by_nation Tpch_schema.supplier n_suppliers in
  let customer = keyed_by_nation Tpch_schema.customer n_customers in
  let orders =
    table Tpch_schema.orders n_orders (fun i d o ->
        let status =
          if irand 2 = 0 then Tpch_schema.ostatus_f else Tpch_schema.ostatus_o
        in
        let orderdate = day_of ~year:1992 ~month:1 ~day:1 + irand (6 * 365) in
        let custkey = irand n_customers in
        d.(o) <- i;
        d.(o + 1) <- custkey;
        d.(o + 2) <- status;
        d.(o + 3) <- orderdate)
  in
  (* lineitems: each row belongs to a uniformly drawn order, then the
     whole table is sorted by orderkey (the dense sorted format) *)
  let lineitem =
    table Tpch_schema.lineitem lineitems (fun _ d o ->
        let orderkey = irand n_orders in
        let orderdate = Relation.attr orders orderkey 3 in
        let shipdate = orderdate + 1 + irand 120 in
        let commitdate = orderdate + 30 + irand 60 in
        let receiptdate = shipdate + 1 + irand 30 in
        let quantity = float_of_int (1 + irand 50) in
        let price = frand 900.0 105000.0 in
        let returnflag =
          if shipdate > date_1995_03_15 + 200 then Tpch_schema.flag_n
          else if irand 2 = 0 then Tpch_schema.flag_a
          else Tpch_schema.flag_r
        in
        let tax = frand 0.0 0.08 in
        let discount = frand 0.0 0.10 in
        let suppkey = irand n_suppliers in
        let partkey = irand 200000 in
        d.(o) <- orderkey;
        d.(o + 1) <- partkey;
        d.(o + 2) <- suppkey;
        d.(o + 3) <- f32 quantity;
        d.(o + 4) <- f32 price;
        d.(o + 5) <- f32 discount;
        d.(o + 6) <- f32 tax;
        d.(o + 7) <- returnflag;
        d.(o + 8) <-
          (if shipdate > date_1995_03_15 then Tpch_schema.status_o
           else Tpch_schema.status_f);
        d.(o + 9) <- shipdate;
        d.(o + 10) <- commitdate;
        d.(o + 11) <- receiptdate)
  in
  {
    lineitem = Relation.sort ~key_arity:1 lineitem;
    orders;
    supplier;
    nation;
    customer;
  }
