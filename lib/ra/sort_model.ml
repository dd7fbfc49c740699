open Gpu_sim
open Relation_lib

let tile_rows = 1024

let merge_passes ~rows =
  let tiles = max 1 ((rows + tile_rows - 1) / tile_rows) in
  let rec log2_ceil n acc = if n <= 1 then acc else log2_ceil ((n + 1) / 2) (acc + 1) in
  log2_ceil tiles 0

let pass_count ~rows = 1 + merge_passes ~rows

let synthetic_stats ~rows ~schema =
  let bytes = rows * Schema.tuple_bytes schema in
  let words = rows * Schema.arity schema in
  (* local pass: stream in and out once; ~ log2(tile) compare/exchange
     steps per row in shared memory *)
  let local = Stats.create () in
  local.Stats.global_loads <- words;
  local.Stats.global_load_bytes <- bytes;
  local.Stats.global_stores <- words;
  local.Stats.global_store_bytes <- bytes;
  local.Stats.shared_loads <- rows * 10;
  local.Stats.shared_load_bytes <- rows * 40;
  local.Stats.shared_stores <- rows * 10;
  local.Stats.shared_store_bytes <- rows * 40;
  local.Stats.instructions <- rows * 60;
  local.Stats.alu_ops <- rows * 40;
  local.Stats.barrier_waits <- rows / 16;
  (* each merge pass: stream everything once with ~log n compares *)
  let merge () =
    let m = Stats.create () in
    m.Stats.global_loads <- words;
    m.Stats.global_load_bytes <- bytes;
    m.Stats.global_stores <- words;
    m.Stats.global_store_bytes <- bytes;
    m.Stats.instructions <- rows * 24;
    m.Stats.alu_ops <- rows * 16;
    m
  in
  local :: List.init (merge_passes ~rows) (fun _ -> merge ())

let sort_host mem ~src ~dst ~rows ~schema ~key_arity =
  Relation.sort_words schema ~key_arity ~rows ~src:(Memory.data mem src)
    ~dst:(Memory.data mem dst)
