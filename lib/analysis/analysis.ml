open Gpu_sim

type region = Resources.region = { base : int; words : int }

type report = {
  kname : string;
  diags : Diag.t list;
  certificate : Resources.certificate;
  stores_disjoint : bool;
  instrs : int;
}

(* Barrier divergence: a Bar inside the influence region of a branch on
   a thread-varying condition — some threads would wait forever. *)
let divergence cfg uni =
  let k = Cfg.kernel cfg in
  let diags = ref [] in
  for b = 0 to Cfg.nblocks cfg - 1 do
    if Uniform.divergent uni b then
      List.iter
        (fun r ->
          let blk = Cfg.block cfg r in
          for i = blk.Cfg.first to blk.Cfg.last do
            match k.Kir.body.(i) with
            | Kir.Bar ->
                diags :=
                  Diag.make ~severity:Diag.Error ~pass:"divergence" ~at:i
                    "barrier at %d is control-dependent on a thread-varying \
                     branch at %d"
                    i (Cfg.block cfg b).Cfg.last
                  :: !diags
            | _ -> ()
          done)
        (Cfg.influence cfg b)
  done;
  List.rev !diags

let analyze ?(regions = []) ?expected_regs ?(trace = Weaver_obs.Trace.none)
    (k : Kir.kernel) =
  (* The gate is host-side work outside the cost model, so its span has
     zero simulated duration; it still timestamps when in the pipeline
     each kernel was certified and carries the diagnostic count. *)
  let module T = Weaver_obs.Trace in
  let sp =
    if T.active trace then T.span trace ~lane:T.Gate ("gate:" ^ k.Kir.kname)
    else T.no_span
  in
  let report =
    let cfg = Cfg.build k in
    let defs = Defs.compute cfg in
    let live = Live.compute cfg in
    let uni = Uniform.compute cfg in
    let sym = Sym.create cfg defs uni in
    let races, stores_disjoint = Races.check cfg sym in
    let diags = divergence cfg uni @ races @ Hygiene.analyze cfg defs live in
    let rdiags, certificate =
      Resources.analyze cfg sym live ~regions ~expected_regs
    in
    {
      kname = k.Kir.kname;
      diags = List.sort Diag.compare (diags @ rdiags);
      certificate;
      stores_disjoint;
      instrs = Array.length k.Kir.body;
    }
  in
  (if T.active trace then
     let args =
       if T.recording trace then
         [ ("instrs", T.Int report.instrs);
           ("diags", T.Int (List.length report.diags)) ]
       else []
     in
     T.close trace sp ~args);
  report

let gating r = List.filter Diag.gating r.diags

let report_json r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       {|{"kernel": "%s", "instrs": %d, "max_live_regs": %d, "max_shared_addr": %d, "diagnostics": [|}
       r.kname r.instrs r.certificate.Resources.max_live_regs
       r.certificate.Resources.max_shared_addr);
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (Diag.to_json d))
    r.diags;
  Buffer.add_string buf "]}";
  Buffer.contents buf
