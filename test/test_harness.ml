(* Experiment harness smoke tests: every figure/table runs at reduced
   sizes and lands in the paper's qualitative regime. *)

let headline o name =
  match List.assoc_opt name o.Harness.Report.headline with
  | Some v -> v
  | None ->
      Alcotest.failf "missing headline %s (have: %s)" name
        (String.concat ", " (List.map fst o.Harness.Report.headline))

let test_fig4 () =
  let o = Harness.Experiments.fig4 ~sizes:[ 16_384; 32_768 ] () in
  let s2 = headline o "avg 2-select speedup" in
  let s3 = headline o "avg 3-select speedup" in
  Alcotest.(check bool) (Printf.sprintf "2 selects speed up (%.2f)" s2) true (s2 > 1.3);
  Alcotest.(check bool) (Printf.sprintf "3 selects beat 2 (%.2f > %.2f)" s3 s2)
    true (s3 > s2)

let test_fig16 () =
  let o = Harness.Experiments.fig16 ~rows:40_000 () in
  let avg = headline o "avg speedup" in
  Alcotest.(check bool) (Printf.sprintf "fusion wins on average (%.2f)" avg)
    true (avg > 1.2);
  let a = headline o "a:3-selects+project" in
  let e = headline o "e:arithmetic" in
  let d = headline o "d:shared-input-selects" in
  (* thread-dependence patterns gain most; input dependence least *)
  Alcotest.(check bool) "(a) biggest" true (a >= e && a > d);
  Alcotest.(check bool) "(d) modest" true (d < e)

let test_fig17 () =
  let o = Harness.Experiments.fig17 ~rows:40_000 () in
  (* table renders and has one row per pattern *)
  Alcotest.(check int) "five patterns" 5
    (List.length o.Harness.Report.table.Harness.Report.rows)

let test_fig18 () =
  let o = Harness.Experiments.fig18 ~rows:40_000 () in
  let avg = headline o "avg change" in
  Alcotest.(check bool)
    (Printf.sprintf "memory cycles drop (%.2f)" avg)
    true (avg < -0.15)

let test_fig19 () =
  let o = Harness.Experiments.fig19 ~rows:30_000 () in
  let f = headline o "avg O3 gain fused" in
  let u = headline o "avg O3 gain unfused" in
  Alcotest.(check bool) "O3 helps" true (f >= 1.0 && u >= 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "fusion widens optimizer scope (%.3f >= %.3f)" f u)
    true (f >= u -. 0.005)

let test_fig20 () =
  let o = Harness.Experiments.fig20 ~rows:60_000 ~ratios:[ 0.1; 0.5; 0.9 ] () in
  let s10 = headline o "speedup@10%" in
  let s90 = headline o "speedup@90%" in
  Alcotest.(check bool)
    (Printf.sprintf "monotone in selectivity (%.2f < %.2f)" s10 s90)
    true (s10 < s90);
  Alcotest.(check bool) "always a win" true (s10 > 1.0)

let test_fig21 () =
  let o = Harness.Experiments.fig21 ~rows:40_000 () in
  let pcie = headline o "avg pcie speedup" in
  let overall = headline o "avg overall speedup" in
  let pc = headline o "producer-consumer pcie speedup" in
  Alcotest.(check bool) (Printf.sprintf "PCIe traffic shrinks (%.2f)" pcie)
    true (pcie > 1.3);
  Alcotest.(check bool) "overall win" true (overall > 1.2);
  (* (d) has no producer-consumer data to save, so excluding it helps *)
  Alcotest.(check bool) "producer-consumer PCIe stronger" true (pc >= pcie)

let test_table3 () =
  let o = Harness.Experiments.table3 () in
  let rows = o.Harness.Report.table.Harness.Report.rows in
  Alcotest.(check int) "4 singles + 5 fused" 9 (List.length rows);
  (* the JOIN rows must show more registers than SELECT rows *)
  let regs name =
    match List.find_opt (fun r -> List.hd r = name) rows with
    | Some (_ :: r :: _) -> int_of_string r
    | _ -> Alcotest.failf "missing row %s" name
  in
  Alcotest.(check bool) "join uses more registers than select" true
    (regs "JOIN" > regs "SELECT");
  Alcotest.(check bool) "fused b >= join" true (regs "fused b:2-joins" >= regs "JOIN")

let test_q1 () =
  let o = Harness.Experiments.q1 ~lineitems:30_000 () in
  let speedup = headline o "overall speedup" in
  let sort_share = headline o "sort share" in
  let nonsort = headline o "non-sort speedup" in
  Alcotest.(check bool) (Printf.sprintf "overall win (%.2f)" speedup)
    true (speedup > 1.0);
  Alcotest.(check bool) "SORT is a large share" true (sort_share > 0.2);
  Alcotest.(check bool) "excluding SORT is better" true (nonsort > speedup)

let test_q21 () =
  let o = Harness.Experiments.q21 ~lineitems:10_000 () in
  let speedup = headline o "overall speedup" in
  Alcotest.(check bool) (Printf.sprintf "overall win (%.2f)" speedup)
    true (speedup > 1.0)

let test_ablations () =
  let sharing = Harness.Ablations.input_sharing ~rows:30_000 () in
  Alcotest.(check bool) "input sharing helps" true
    (headline sharing "input sharing speedup" > 1.05);
  let rw = Harness.Ablations.plan_rewriting ~rows:30_000 () in
  Alcotest.(check bool) "rewriting helps" true
    (headline rw "rewrite speedup" > 1.2)

let test_report_rendering () =
  let t =
    {
      Harness.Report.title = "t";
      header = [ "a"; "bb" ];
      rows = [ [ "1"; "2" ]; [ "333"; "4" ] ];
      notes = [ "n" ];
    }
  in
  let s = Harness.Report.render t in
  Alcotest.(check bool) "title present" true (Astring_contains.contains s "== t ==");
  Alcotest.(check bool) "note present" true (Astring_contains.contains s "note: n");
  let md = Harness.Report.render_markdown t in
  Alcotest.(check bool) "markdown row" true (Astring_contains.contains md "| 333 | 4 |");
  Alcotest.(check string) "fx" "2.50x" (Harness.Report.fx 2.5);
  Alcotest.(check string) "pct" "-59%" (Harness.Report.pct (-0.59));
  Alcotest.(check string) "bytes" "1.00 MB" (Harness.Report.bytes_human 1048576)

let test_select () =
  let names r = List.map fst (Result.get_ok r) in
  let select = Harness.Experiments.select in
  Alcotest.(check (list string))
    "named entries, in the order given"
    [ "q1"; "ablation-rewriting" ]
    (names (select [ "q1"; "ablation-rewriting" ]));
  Alcotest.(check bool) "[] selects every experiment and ablation" true
    (List.length (names (select [])) > 15);
  match select [ "fig4"; "nosuch" ] with
  | Ok _ -> Alcotest.fail "an unknown name must be an error"
  | Error msg ->
      Alcotest.(check bool) "names the unknown one" true
        (Astring_contains.contains msg "nosuch");
      Alcotest.(check bool) "lists the known ones" true
        (Astring_contains.contains msg "ablation-platforms")

let suite =
  [
    ("fig4 shape", `Slow, test_fig4);
    ("fig16 shape", `Slow, test_fig16);
    ("fig17 runs", `Slow, test_fig17);
    ("fig18 shape", `Slow, test_fig18);
    ("fig19 shape", `Slow, test_fig19);
    ("fig20 shape", `Slow, test_fig20);
    ("fig21 shape", `Slow, test_fig21);
    ("table3 shape", `Quick, test_table3);
    ("q1 shape", `Slow, test_q1);
    ("q21 shape", `Slow, test_q21);
    ("ablations", `Slow, test_ablations);
    ("report rendering", `Quick, test_report_rendering);
    ("experiment selector", `Quick, test_select);
  ]
