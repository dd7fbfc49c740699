(* KIR-level tests for the skeleton building blocks: tiles, cooperative
   copies, scans, binary search, the partition kernels and the bitonic
   demonstrator. These run real kernels through the interpreter. *)

open Gpu_sim
open Relation_lib

let device = Device.fermi_c2050
let s2 = Schema.make [ ("k", Dtype.I32); ("v", Dtype.I32) ]

let test_tile_roundtrip () =
  (* copy global -> tile -> global through the cooperative helpers *)
  let b = Kir_builder.create ~name:"tile_rt" ~params:3 () in
  let open Kir_builder in
  let src = param b 0 and dst = param b 1 and n = param b 2 in
  let tile = Ra_lib.Tile.alloc b ~cap:64 s2 in
  Ra_lib.Emit_common.coop_copy_g2s b ~buf:src ~src_row:(Imm 0) ~count:n ~tile;
  let cnt = Ra_lib.Tile.load_count b tile in
  Ra_lib.Emit_common.coop_copy_s2g b ~tile ~count:(Reg cnt) ~buf:dst
    ~dst_row:(Imm 0);
  let k = finish b in
  Kir_validate.check_exn k;
  let mem = Memory.create device in
  let rows = 50 in
  let src_b = Memory.alloc mem ~words:(rows * 2) ~bytes:(rows * 8) in
  let dst_b = Memory.alloc mem ~words:(rows * 2) ~bytes:(rows * 8) in
  Array.iteri (fun i _ -> (Memory.data mem src_b).(i) <- i * 3) (Memory.data mem src_b);
  ignore (Executor.launch device mem k ~params:[| src_b; dst_b; rows |] ~grid:1 ~cta:64);
  Alcotest.(check bool) "roundtrip intact" true
    (Memory.data mem src_b = Memory.data mem dst_b)

let test_seq_scan () =
  (* exclusive scan of flags in shared memory *)
  let n = 37 in
  let b = Kir_builder.create ~name:"scan" ~params:2 () in
  let open Kir_builder in
  let src = param b 0 and dst = param b 1 in
  let flags =
    match alloc_shared b ~words:n ~bytes:(4 * n) with
    | Kir.Imm base -> base
    | _ -> assert false
  in
  let total =
    match alloc_shared b ~words:1 ~bytes:4 with
    | Kir.Imm t -> t
    | _ -> assert false
  in
  let start, stop = Ra_lib.Emit_common.blocked_chunk b ~count:(Imm n) in
  for_range b ~start:(Reg start) ~stop:(Reg stop) ~step:(Imm 1) (fun i ->
      let v = ld b Kir.Global ~base:src ~idx:(Reg i) ~width:4 in
      st b Kir.Shared ~base:(Imm flags) ~idx:(Reg i) ~src:(Reg v) ~width:4);
  Ra_lib.Emit_common.seq_scan_exclusive b ~base:flags ~n:(Imm n) ~total_slot:total;
  for_range b ~start:(Reg start) ~stop:(Reg stop) ~step:(Imm 1) (fun i ->
      let v = ld b Kir.Shared ~base:(Imm flags) ~idx:(Reg i) ~width:4 in
      st b Kir.Global ~base:dst ~idx:(Reg i) ~src:(Reg v) ~width:4);
  let t = ld b Kir.Shared ~base:(Imm total) ~idx:(Imm 0) ~width:4 in
  st b Kir.Global ~base:dst ~idx:(Imm n) ~src:(Reg t) ~width:4;
  let k = finish b in
  let mem = Memory.create device in
  let src_b = Memory.alloc mem ~words:n ~bytes:(4 * n) in
  let dst_b = Memory.alloc mem ~words:(n + 1) ~bytes:(4 * (n + 1)) in
  let st_rand = Random.State.make [| 5 |] in
  let input = Array.init n (fun _ -> Random.State.int st_rand 5) in
  Array.blit input 0 (Memory.data mem src_b) 0 n;
  ignore (Executor.launch device mem k ~params:[| src_b; dst_b |] ~grid:1 ~cta:32);
  let got = Memory.data mem dst_b in
  let expect = ref 0 in
  for i = 0 to n - 1 do
    Alcotest.(check int) (Printf.sprintf "prefix %d" i) !expect got.(i);
    expect := !expect + input.(i)
  done;
  Alcotest.(check int) "total" !expect got.(n)

let test_bsearch () =
  (* lower/upper bound over a sorted tile vs the OCaml reference *)
  let st_rand = Random.State.make [| 6 |] in
  let n = 100 in
  let keys = Array.init n (fun _ -> Random.State.int st_rand 50) in
  Array.sort compare keys;
  let lower probe =
    let rec go i = if i >= n || keys.(i) >= probe then i else go (i + 1) in
    go 0
  in
  let upper probe =
    let rec go i = if i >= n || keys.(i) > probe then i else go (i + 1) in
    go 0
  in
  let b = Kir_builder.create ~name:"bs" ~params:3 () in
  let open Kir_builder in
  let src = param b 0 and dst = param b 1 and probe = param b 2 in
  let tile = Ra_lib.Tile.alloc b ~cap:128 s2 in
  Ra_lib.Emit_common.coop_copy_g2s b ~buf:src ~src_row:(Imm 0) ~count:(Imm n) ~tile;
  let cnt = Ra_lib.Tile.load_count b tile in
  let lo =
    Ra_lib.Emit_common.bsearch_tile b ~upper:false ~tile ~count:(Reg cnt)
      ~key_arity:1 ~key:[| probe |]
  in
  let hi =
    Ra_lib.Emit_common.bsearch_tile b ~upper:true ~tile ~count:(Reg cnt)
      ~key_arity:1 ~key:[| probe |]
  in
  let is_t0 = cmp b Kir.Eq tid (Imm 0) in
  if_ b (Reg is_t0) (fun () ->
      st b Kir.Global ~base:dst ~idx:(Imm 0) ~src:(Reg lo) ~width:4;
      st b Kir.Global ~base:dst ~idx:(Imm 1) ~src:(Reg hi) ~width:4);
  let k = finish b in
  let mem = Memory.create device in
  let src_b = Memory.alloc mem ~words:(n * 2) ~bytes:(n * 8) in
  let dst_b = Memory.alloc mem ~words:2 ~bytes:8 in
  Array.iteri (fun i key -> (Memory.data mem src_b).(i * 2) <- key) keys;
  List.iter
    (fun probe ->
      ignore
        (Executor.launch device mem k ~params:[| src_b; dst_b; probe |] ~grid:1
           ~cta:32);
      let got = Memory.data mem dst_b in
      Alcotest.(check int) (Printf.sprintf "lower %d" probe) (lower probe) got.(0);
      Alcotest.(check int) (Printf.sprintf "upper %d" probe) (upper probe) got.(1))
    [ -1; 0; 7; 25; 49; 50; 1000 ]

let test_partition_even () =
  let k =
    Ra_lib.Partition_emit.emit ~name:"pe" ~inputs:[ (Ra_lib.Partition_emit.Even, s2) ]
      ~key_arity:1 ~pivot:None ~cap:32
  in
  let mem = Memory.create device in
  let grid = 7 in
  let n = 200 in
  let buf = Memory.alloc mem ~words:(n * 2) ~bytes:(n * 8) in
  let bounds = Memory.alloc mem ~words:(grid + 1) ~bytes:(4 * (grid + 1)) in
  ignore (Executor.launch device mem k ~params:[| buf; n; bounds |] ~grid ~cta:32);
  let got = Memory.data mem bounds in
  Alcotest.(check int) "starts at 0" 0 got.(0);
  Alcotest.(check int) "ends at n" n got.(grid);
  for c = 0 to grid - 1 do
    Alcotest.(check bool) "monotonic" true (got.(c) <= got.(c + 1));
    Alcotest.(check bool) "balanced" true (got.(c + 1) - got.(c) <= ((n + grid - 1) / grid))
  done

let test_partition_keyed_runs () =
  (* keyed partition must keep key runs whole and cover both inputs *)
  let st_rand = Random.State.make [| 7 |] in
  let gen n range =
    let keys = Array.init n (fun _ -> Random.State.int st_rand range) in
    Array.sort compare keys;
    keys
  in
  let n0 = 300 and n1 = 200 in
  let k0 = gen n0 40 and k1 = gen n1 40 in
  let cap = 32 in
  let kern =
    Ra_lib.Partition_emit.emit ~name:"pk"
      ~inputs:
        [ (Ra_lib.Partition_emit.Keyed, s2); (Ra_lib.Partition_emit.Keyed, s2) ]
      ~key_arity:1 ~pivot:(Some 0) ~cap
  in
  let mem = Memory.create device in
  let grid = (n0 + cap - 1) / cap in
  let b0 = Memory.alloc mem ~words:(n0 * 2) ~bytes:(n0 * 8) in
  let b1 = Memory.alloc mem ~words:(n1 * 2) ~bytes:(n1 * 8) in
  Array.iteri (fun i key -> (Memory.data mem b0).(i * 2) <- key) k0;
  Array.iteri (fun i key -> (Memory.data mem b1).(i * 2) <- key) k1;
  let bounds0 = Memory.alloc mem ~words:(grid + 1) ~bytes:(4 * (grid + 1)) in
  let bounds1 = Memory.alloc mem ~words:(grid + 1) ~bytes:(4 * (grid + 1)) in
  ignore
    (Executor.launch device mem kern
       ~params:[| b0; n0; b1; n1; bounds0; bounds1 |]
       ~grid ~cta:32);
  let g0 = Memory.data mem bounds0 and g1 = Memory.data mem bounds1 in
  Alcotest.(check int) "covers input 0" n0 g0.(grid);
  Alcotest.(check int) "covers input 1" n1 g1.(grid);
  for c = 0 to grid - 1 do
    Alcotest.(check bool) "monotonic 0" true (g0.(c) <= g0.(c + 1));
    Alcotest.(check bool) "monotonic 1" true (g1.(c) <= g1.(c + 1));
    (* a boundary never splits a key run: the key before the boundary
       differs from the key at it *)
    if g0.(c) > 0 && g0.(c) < n0 then
      Alcotest.(check bool) "run integrity 0" true
        (k0.(g0.(c) - 1) <> k0.(g0.(c)));
    if g1.(c) > 0 && g1.(c) < n1 then
      Alcotest.(check bool) "run integrity 1" true
        (k1.(g1.(c) - 1) <> k1.(g1.(c)));
    (* alignment: CTA c's key ranges agree across inputs *)
    if g0.(c) < n0 && g1.(c) < n1 && g0.(c) > 0 then
      Alcotest.(check bool) "aligned" true (k1.(g1.(c) - 1) < k0.(g0.(c)))
  done

let test_bitonic_sizes () =
  List.iter
    (fun n ->
      let k = Ra_lib.Bitonic.emit ~n in
      Kir_validate.check_exn k;
      let mem = Memory.create device in
      let buf = Memory.alloc mem ~words:n ~bytes:(4 * n) in
      let st_rand = Random.State.make [| n |] in
      let data = Memory.data mem buf in
      for i = 0 to n - 1 do
        data.(i) <- Random.State.int st_rand 10_000
      done;
      let sorted_ref = Array.copy data in
      Array.sort compare sorted_ref;
      ignore
        (Executor.launch device mem k ~params:[| buf |] ~grid:1
           ~cta:(max 2 (n / 2)));
      Alcotest.(check bool)
        (Printf.sprintf "bitonic %d" n)
        true
        (Array.sub data 0 n = sorted_ref))
    [ 2; 8; 64; 256; 1024 ];
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Bitonic.emit: n must be a power of two >= 2") (fun () ->
      ignore (Ra_lib.Bitonic.emit ~n:48))

let test_sort_model () =
  Alcotest.(check int) "one pass for tiny" 1 (Ra_lib.Sort_model.pass_count ~rows:100);
  Alcotest.(check bool) "passes grow with size" true
    (Ra_lib.Sort_model.pass_count ~rows:1_000_000
    > Ra_lib.Sort_model.pass_count ~rows:10_000);
  let stats = Ra_lib.Sort_model.synthetic_stats ~rows:10_000 ~schema:s2 in
  Alcotest.(check int) "stats per pass"
    (Ra_lib.Sort_model.pass_count ~rows:10_000)
    (List.length stats);
  (* every pass streams the whole relation in and out *)
  List.iter
    (fun (s : Stats.t) ->
      Alcotest.(check int) "bytes in" 80_000 s.Stats.global_load_bytes;
      Alcotest.(check int) "bytes out" 80_000 s.Stats.global_store_bytes)
    stats;
  (* host sort sorts *)
  let mem = Memory.create device in
  let rows = 500 in
  let src = Memory.alloc mem ~words:(rows * 2) ~bytes:(rows * 8) in
  let dst = Memory.alloc mem ~words:(rows * 2) ~bytes:(rows * 8) in
  let st_rand = Random.State.make [| 3 |] in
  let input = Memory.data mem src in
  for i = 0 to rows - 1 do
    input.(i * 2) <- Random.State.int st_rand 100;
    input.((i * 2) + 1) <- i
  done;
  let before = Array.copy input in
  Ra_lib.Sort_model.sort_host mem ~src ~dst ~rows ~schema:s2 ~key_arity:1;
  Alcotest.(check (array int)) "input untouched" before input;
  let rel = Relation.of_array s2 (Array.copy (Memory.data mem dst)) in
  Alcotest.(check bool) "sorted" true (Relation.is_sorted ~key_arity:1 rel);
  Alcotest.(check bool) "same rows" true
    (Relation.equal_multiset rel (Relation.of_array s2 before))

let suite =
  [
    ("tile roundtrip", `Quick, test_tile_roundtrip);
    ("sequential scan", `Quick, test_seq_scan);
    ("binary search", `Quick, test_bsearch);
    ("even partition", `Quick, test_partition_even);
    ("keyed partition run integrity", `Quick, test_partition_keyed_runs);
    ("bitonic sort sizes", `Quick, test_bitonic_sizes);
    ("sort model", `Quick, test_sort_model);
  ]
