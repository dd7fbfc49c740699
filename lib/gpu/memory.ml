type entry = {
  data : int array;
  bytes : int;
  label : string;
  mutable live : bool;
  mutable cert : int option;
      (* integrity certificate: the digest of the buffer's words, recorded
         at PCIe boundaries and segment-output adoption (see Runtime) *)
}

type t = {
  device : Device.t;
  entries : (int, entry) Hashtbl.t;
  faults : Fault_inject.t;
  trace : Weaver_obs.Trace.t;
  mutable next_id : int;
  mutable live_bytes : int;
  mutable peak_bytes : int;
}

type buffer = int

(* Word-at-a-time digest over the buffer's 63-bit words. Four lanes take
   the words round-robin (a tail of up to three goes to lane [a]); each
   word is one step [x = (h lxor w) * mul; h <- x lxor (x lsr 31)]. The
   length and then the four lanes are folded into the result by the same
   step. For a fixed word every step is a bijection of the running state
   (xor; multiplication by an odd constant modulo 2^63; an xorshift), so
   changing any single word always changes the digest. The lanes are
   independent multiply chains, which lets them overlap in the pipeline.
   The step is written out at each use, not through a helper: a variant
   with a helper was reported to slow q21-repeat's interpreter through
   code layout, so measure every perfbench workload before reshaping
   this loop. *)
let mul = 0x1E3779B97F4A7C15

let checksum_words (data : int array) =
  let n = Array.length data in
  let a = ref 0x0123456789ABCDEF and b = ref 0x3C6EF372FE94F82B in
  let c = ref 0x2545F4914F6CDD1D and d = ref 0x1B873593CC9E2D51 in
  let i = ref 0 in
  while !i + 3 < n do
    let j = !i in
    let x = (!a lxor data.(j)) * mul in
    a := x lxor (x lsr 31);
    let x = (!b lxor data.(j + 1)) * mul in
    b := x lxor (x lsr 31);
    let x = (!c lxor data.(j + 2)) * mul in
    c := x lxor (x lsr 31);
    let x = (!d lxor data.(j + 3)) * mul in
    d := x lxor (x lsr 31);
    i := j + 4
  done;
  while !i < n do
    let x = (!a lxor data.(!i)) * mul in
    a := x lxor (x lsr 31);
    incr i
  done;
  let x = n * mul in
  let h = x lxor (x lsr 31) in
  let x = (h lxor !a) * mul in
  let h = x lxor (x lsr 31) in
  let x = (h lxor !b) * mul in
  let h = x lxor (x lsr 31) in
  let x = (h lxor !c) * mul in
  let h = x lxor (x lsr 31) in
  let x = (h lxor !d) * mul in
  x lxor (x lsr 31)

(* The corruptor the fault injector's [:flip] kind calls: pick one live
   *certified* buffer (the high-stakes data at rest that crossed a
   materialization boundary — staging scratch is never targeted, so every
   flip is detectable by certificate verification), then one word and one
   bit, all from the firing site's hash. Deterministic: depends only on
   the hash and the sorted set of certified handles. *)
let apply_flip t h =
  let targets =
    Hashtbl.fold
      (fun id e acc -> if e.live && e.cert <> None then id :: acc else acc)
      t.entries []
    |> List.sort compare
  in
  match targets with
  | [] -> false
  | _ ->
      let id = List.nth targets (h mod List.length targets) in
      let e = Hashtbl.find t.entries id in
      let h2 = Fault_inject.mix (h lxor 0x5bd1e995) in
      let word = h2 mod Array.length e.data in
      (* the digest sees all 63 bits; the 0..61 range only pins where
         each seeded flip lands *)
      let bit = Fault_inject.mix (h2 + 1) mod 62 in
      e.data.(word) <- e.data.(word) lxor (1 lsl bit);
      Weaver_obs.Trace.instant t.trace ~lane:Weaver_obs.Trace.Mem "bit_flip"
        ~args:
          [
            ("buffer", Weaver_obs.Trace.Int id);
            ("word", Weaver_obs.Trace.Int word);
            ("bit", Weaver_obs.Trace.Int bit);
          ];
      true

let create ?(faults = Fault_inject.none) ?(trace = Weaver_obs.Trace.none)
    device =
  let t =
    {
      device;
      entries = Hashtbl.create 64;
      faults;
      trace;
      next_id = 1;
      live_bytes = 0;
      peak_bytes = 0;
    }
  in
  Fault_inject.set_corruptor faults (apply_flip t);
  t

let alloc ?(label = "buf") t ~words ~bytes =
  if words < 0 || bytes < 0 then invalid_arg "Memory.alloc: negative size";
  (try
     Fault_inject.on_alloc t.faults ~label ~bytes ~live:t.live_bytes
       ~capacity:t.device.Device.global_mem_bytes
   with e ->
     Weaver_obs.Trace.instant t.trace ~lane:Weaver_obs.Trace.Mem "alloc_fault";
     raise e);
  let id = t.next_id in
  t.next_id <- id + 1;
  Hashtbl.replace t.entries id
    { data = Array.make (max words 1) 0; bytes; label; live = true; cert = None };
  t.live_bytes <- t.live_bytes + bytes;
  if t.live_bytes > t.peak_bytes then t.peak_bytes <- t.live_bytes;
  Weaver_obs.Trace.counter t.trace ~lane:Weaver_obs.Trace.Mem "device_bytes"
    (float_of_int t.live_bytes);
  id

let entry t b =
  match Hashtbl.find_opt t.entries b with
  | Some e -> e
  | None -> raise Not_found

let free t b =
  let e = entry t b in
  if not e.live then invalid_arg "Memory.free: buffer already freed";
  e.live <- false;
  t.live_bytes <- t.live_bytes - e.bytes;
  Weaver_obs.Trace.counter t.trace ~lane:Weaver_obs.Trace.Mem "device_bytes"
    (float_of_int t.live_bytes)

let data t b =
  let e = entry t b in
  if not e.live then
    invalid_arg (Printf.sprintf "Memory.data: buffer %d (%s) is dead" b e.label);
  e.data

let words t b = Array.length (entry t b).data
let bytes t b = (entry t b).bytes
let label t b = (entry t b).label
let is_live t b =
  match Hashtbl.find_opt t.entries b with Some e -> e.live | None -> false

let live_buffers t =
  Hashtbl.fold (fun id e acc -> if e.live then (id, e.label) :: acc else acc)
    t.entries []
  |> List.sort compare

let checksum t b = checksum_words (entry t b).data

let certify t b =
  let e = entry t b in
  if not e.live then invalid_arg "Memory.certify: buffer is dead";
  e.cert <- Some (checksum_words e.data)

let cert t b = (entry t b).cert

let verify t b ~site =
  let e = entry t b in
  match e.cert with
  | None -> ()
  | Some expected ->
      let got = checksum_words e.data in
      if got <> expected then begin
        Weaver_obs.Trace.instant t.trace ~lane:Weaver_obs.Trace.Mem
          "corruption_detected"
          ~args:
            [
              ("buffer", Weaver_obs.Trace.Int b);
              ("site", Weaver_obs.Trace.Str site);
            ];
        Fault.raise_ (Fault.Data_corrupted { buffer = b; expected; got; site })
      end

let mismatches t =
  Hashtbl.fold
    (fun id e acc ->
      match e.cert with
      | Some c when e.live && checksum_words e.data <> c -> id :: acc
      | _ -> acc)
    t.entries []
  |> List.sort compare

let live_bytes t = t.live_bytes
let peak_bytes t = t.peak_bytes
let reset_peak t = t.peak_bytes <- t.live_bytes
let capacity_bytes t = t.device.Device.global_mem_bytes

let would_overflow t ~extra_bytes =
  t.live_bytes + extra_bytes > capacity_bytes t
