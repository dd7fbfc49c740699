(* Buffer integrity certificates — the Memory-level silent-corruption
   defense — and the fault taxonomy's derived printers/equality.

   Unit coverage: the word digest over the backing words (deterministic,
   a pinned value, and the single-word law: changing any one word changes
   the digest, checked exhaustively per bit on short buffers and by
   QCheck), certification and verification sites, the
   mismatch sweep, the injector's :flip corruptor (exactly one bit of one
   word of one live certified buffer), and an exhaustiveness check that
   walks every Fault constructor through equal/pp/show/render. *)

open Gpu_sim

let contains ~needle s = Astring_contains.contains s needle

(* --- checksums --------------------------------------------------------------- *)

let test_checksum () =
  let mem = Memory.create Device.fermi_c2050 in
  let b = Memory.alloc ~label:"b" mem ~words:16 ~bytes:64 in
  let c0 = Memory.checksum mem b in
  Alcotest.(check int) "checksum is deterministic" c0 (Memory.checksum mem b);
  (Memory.data mem b).(3) <- 42;
  Alcotest.(check bool)
    "a changed word changes the digest" true
    (Memory.checksum mem b <> c0);
  (Memory.data mem b).(3) <- 0;
  Alcotest.(check int)
    "restoring the word restores the digest" c0 (Memory.checksum mem b);
  (* single-bit sensitivity across the word, including high bits *)
  List.iter
    (fun bit ->
      (Memory.data mem b).(7) <- 1 lsl bit;
      Alcotest.(check bool)
        (Printf.sprintf "flipped bit %d is visible" bit)
        true
        (Memory.checksum mem b <> c0);
      (Memory.data mem b).(7) <- 0)
    [ 0; 13; 31; 47; 61 ];
  Memory.free mem b

(* A fresh buffer holding [words], through the Memory API. *)
let buffer_of mem words =
  let b =
    Memory.alloc ~label:"d" mem ~words:(Array.length words)
      ~bytes:(8 * Array.length words)
  in
  Array.blit words 0 (Memory.data mem b) 0 (Array.length words);
  b

(* Every bit 0-62 of every word of buffers of 1-9 words (straddling the
   lane count): the flip is visible and undoing it restores the digest. *)
let test_single_bit_exhaustive () =
  let mem = Memory.create Device.fermi_c2050 in
  for n = 1 to 9 do
    let b =
      buffer_of mem (Array.init n (fun i -> Fault_inject.mix (1000 + i)))
    in
    let d = Memory.data mem b and c0 = Memory.checksum mem b in
    for i = 0 to n - 1 do
      for bit = 0 to 62 do
        d.(i) <- d.(i) lxor (1 lsl bit);
        if Memory.checksum mem b = c0 then
          Alcotest.failf "len %d: flipping bit %d of word %d kept the digest" n
            bit i;
        d.(i) <- d.(i) lxor (1 lsl bit);
        if Memory.checksum mem b <> c0 then
          Alcotest.failf "len %d: undoing bit %d of word %d lost the digest" n
            bit i
      done
    done;
    Memory.free mem b
  done

(* The digest of a fixed buffer is pinned, so that any change to the
   digest function is a visible test edit. *)
let test_digest_pinned () =
  let mem = Memory.create Device.fermi_c2050 in
  let b = buffer_of mem (Array.init 10 (fun i -> (i * 0x9E3779B9) - 7)) in
  Alcotest.(check int) "pinned digest" (-52831198957417403)
    (Memory.checksum mem b);
  let z = buffer_of mem [| 0 |] and z2 = buffer_of mem [| 0; 0 |] in
  Alcotest.(check bool)
    "zero buffers of different lengths differ" true
    (Memory.checksum mem z <> Memory.checksum mem z2)

(* Seeded two-word changes: no digest equals the original's or that of a
   different change (a repeated change maps to the same digest). Half
   replace both words with random values, half flip one random bit in
   each. *)
let test_two_word_changes () =
  let mem = Memory.create Device.fermi_c2050 in
  let rng = Random.State.make [| 17 |] in
  let n = 23 in
  let b = buffer_of mem (Array.init n (fun _ -> Random.State.bits rng)) in
  let d = Memory.data mem b and c0 = Memory.checksum mem b in
  let seen = Hashtbl.create 20_000 in
  Hashtbl.replace seen c0 None;
  for trial = 1 to 20_000 do
    let i = Random.State.int rng n in
    let j = (i + 1 + Random.State.int rng (n - 1)) mod n in
    let wi = d.(i) and wj = d.(j) in
    let change w =
      if trial land 1 = 0 then w lxor (1 lsl Random.State.int rng 63)
      else
        let v = Random.State.bits rng lor (Random.State.bits rng lsl 30) in
        if v = w then lnot w else v
    in
    d.(i) <- change wi;
    d.(j) <- change wj;
    let key = Some (min i j, d.(min i j), max i j, d.(max i j)) in
    let c = Memory.checksum mem b in
    (match Hashtbl.find_opt seen c with
    | Some k when k <> key ->
        Alcotest.failf "trial %d: changing words %d and %d collides" trial i j
    | _ -> Hashtbl.replace seen c key);
    d.(i) <- wi;
    d.(j) <- wj
  done;
  Alcotest.(check int) "buffer restored" c0 (Memory.checksum mem b)

let prop_one_word_replacement =
  let gen =
    QCheck.Gen.(
      let* words = array_size (int_range 1 40) int in
      let* i = int_bound (Array.length words - 1) in
      let* v = int in
      return (words, i, v))
  in
  let print (words, i, v) =
    Printf.sprintf "[%s] word %d := %d"
      (String.concat ";" (Array.to_list (Array.map string_of_int words)))
      i v
  in
  QCheck.Test.make ~name:"replacing one word changes the digest" ~count:2000
    (QCheck.make ~print gen) (fun (words, i, v) ->
      QCheck.assume (words.(i) <> v);
      let mem = Memory.create Device.fermi_c2050 in
      let b = buffer_of mem words in
      let c0 = Memory.checksum mem b in
      (Memory.data mem b).(i) <- v;
      Memory.checksum mem b <> c0)

(* --- certify / verify -------------------------------------------------------- *)

let test_certify_verify () =
  let mem = Memory.create Device.fermi_c2050 in
  let b = Memory.alloc ~label:"b" mem ~words:8 ~bytes:32 in
  Alcotest.(check (option int)) "no certificate yet" None (Memory.cert mem b);
  (* verification of an uncertified buffer is a no-op *)
  Memory.verify mem b ~site:"precert";
  Memory.certify mem b;
  Alcotest.(check (option int))
    "certificate records the digest"
    (Some (Memory.checksum mem b))
    (Memory.cert mem b);
  Memory.verify mem b ~site:"clean";
  Alcotest.(check (list int)) "no mismatches" [] (Memory.mismatches mem);
  (* corrupt one bit behind the certificate's back *)
  (Memory.data mem b).(2) <- (Memory.data mem b).(2) lxor (1 lsl 17);
  Alcotest.(check (list int))
    "the sweep finds the flip" [ b ] (Memory.mismatches mem);
  (match Memory.verify mem b ~site:"d2h" with
  | () -> Alcotest.fail "verify should raise on a mismatch"
  | exception Fault.Error (Fault.Data_corrupted { buffer; expected; got; site })
    ->
      Alcotest.(check int) "fault names the buffer" b buffer;
      Alcotest.(check string) "fault names the site" "d2h" site;
      Alcotest.(check bool) "digests really differ" true (expected <> got);
      Alcotest.(check int)
        "got is the current digest" (Memory.checksum mem b) got);
  (* a legitimate rewrite recertifies and the mismatch clears *)
  Memory.certify mem b;
  Memory.verify mem b ~site:"recertified";
  Alcotest.(check (list int)) "sweep is clean again" [] (Memory.mismatches mem);
  Memory.free mem b

(* --- the :flip corruptor ------------------------------------------------------ *)

let test_injector_flip () =
  let fi = Fault_inject.of_spec "alloc@2:flip" in
  let mem = Memory.create ~faults:fi Device.fermi_c2050 in
  let b1 = Memory.alloc ~label:"b1" mem ~words:8 ~bytes:32 in
  Memory.certify mem b1;
  let before = Array.copy (Memory.data mem b1) in
  let _b2 = Memory.alloc ~label:"b2" mem ~words:8 ~bytes:32 in
  Alcotest.(check int) "one flip applied" 1 (Fault_inject.injected_flips fi);
  Alcotest.(check int)
    "flips count as injected faults" 1 (Fault_inject.injected fi);
  Alcotest.(check (list int))
    "the flip is a certificate mismatch" [ b1 ] (Memory.mismatches mem);
  (* the corruption is exactly one bit of one word *)
  let after = Memory.data mem b1 in
  let changed = ref [] in
  Array.iteri
    (fun i w -> if w <> before.(i) then changed := (i, w lxor before.(i)) :: !changed)
    after;
  (match !changed with
  | [ (_, delta) ] ->
      Alcotest.(check bool)
        "delta is a single bit" true
        (delta <> 0 && delta land (delta - 1) = 0)
  | l ->
      Alcotest.fail (Printf.sprintf "%d words changed, expected 1" (List.length l)))

let test_flip_without_target () =
  (* no live certified buffer: the firing flip corrupts nothing and is not
     counted as injected *)
  let fi = Fault_inject.of_spec "alloc@1:flip" in
  let mem = Memory.create ~faults:fi Device.fermi_c2050 in
  let b = Memory.alloc ~label:"b" mem ~words:8 ~bytes:32 in
  Alcotest.(check int) "no target, no flip" 0 (Fault_inject.injected_flips fi);
  Alcotest.(check int) "nothing injected" 0 (Fault_inject.injected fi);
  Alcotest.(check (list int)) "nothing corrupted" [] (Memory.mismatches mem);
  Memory.free mem b

(* --- fault taxonomy: every constructor through equal/pp/show/render ----------- *)

let all_faults () =
  [
    Fault.capacity_trap ~kernel:"k" ~which:Fault.Cap_staging ~have:64 ();
    Fault.Out_of_bounds
      {
        kernel = "k";
        space = Fault.Global_space;
        buffer = Some 3;
        index = 9;
        length = 8;
      };
    Fault.Div_by_zero { kernel = "k" };
    Fault.Budget_exhausted { kernel = "k" };
    Fault.Invalid_handle { kernel = "k"; handle = 7 };
    Fault.Invalid_launch { kernel = "k"; reason = "bad grid" };
    Fault.Alloc_failure
      {
        label = "t";
        requested_bytes = 64;
        live_bytes = 0;
        capacity_bytes = 128;
        injected = false;
      };
    Fault.Transfer_failure { direction = Fault.D2h; bytes = 32; injected = true };
    Fault.Data_corrupted
      { buffer = 5; expected = 0x1234; got = 0x4321; site = "d2h" };
    Fault.Host_error "boom";
    Fault.Budget_vetoed
      {
        action = "retry";
        reason = Fault.Tokens_exhausted { budget = 2; spent = 2 };
      };
    Fault.Deadline_exceeded
      { kind = Fault.Deadline_cycles; limit = 10.0; spent = 11.0 };
    Fault.Cancelled { reason = "client abort" };
    Fault.Recovery_exhausted
      { attempts = 3; last = Fault.Div_by_zero { kernel = "k" } };
    Fault.Static_rejected { kernel = "k"; count = 1; first = "oob write" };
  ]

let test_fault_exhaustive () =
  let fs = all_faults () in
  Alcotest.(check int) "every constructor represented" 15 (List.length fs);
  List.iteri
    (fun i f ->
      Alcotest.(check bool)
        (Printf.sprintf "equal is reflexive (%d)" i)
        true (Fault.equal f f);
      Alcotest.(check bool)
        (Printf.sprintf "show is non-empty (%d)" i)
        true
        (String.length (Fault.show f) > 0);
      Alcotest.(check bool)
        (Printf.sprintf "render is non-empty (%d)" i)
        true
        (String.length (Fault.render f) > 0);
      Alcotest.(check string)
        (Printf.sprintf "pp agrees with show (%d)" i)
        (Fault.show f)
        (Format.asprintf "%a" Fault.pp f);
      List.iteri
        (fun j g ->
          if i <> j then
            Alcotest.(check bool)
              (Printf.sprintf "constructors %d and %d differ" i j)
              false (Fault.equal f g))
        fs)
    fs;
  (* equality is payload-sensitive, not just constructor-sensitive *)
  Alcotest.(check bool)
    "payload-sensitive equality" false
    (Fault.equal
       (Fault.Data_corrupted { buffer = 5; expected = 1; got = 2; site = "d2h" })
       (Fault.Data_corrupted { buffer = 5; expected = 1; got = 3; site = "d2h" }))

let test_corruption_render () =
  let r =
    Fault.render
      (Fault.Data_corrupted
         { buffer = 5; expected = 0xab; got = 0xcd; site = "publish" })
  in
  Alcotest.(check bool) "names the site" true (contains ~needle:"publish" r);
  Alcotest.(check bool) "names the buffer" true (contains ~needle:"5" r)

(* --- config defaults ---------------------------------------------------------- *)

let test_config_defaults () =
  let c = Weaver.Config.default in
  Alcotest.(check bool)
    "integrity verification is on by default" true c.Weaver.Config.integrity;
  Alcotest.(check bool)
    "checkpointing is opt-in" false c.Weaver.Config.checkpoint;
  Alcotest.(check bool)
    "ledger budget fraction is sane" true
    (c.Weaver.Config.checkpoint_budget_frac > 0.0
    && c.Weaver.Config.checkpoint_budget_frac <= 1.0)

let suite =
  [
    ("word digest checksum", `Quick, test_checksum);
    ("digest single-bit law, lengths 1-9", `Quick, test_single_bit_exhaustive);
    ("digest pinned value", `Quick, test_digest_pinned);
    ("digest two-word changes never collide", `Quick, test_two_word_changes);
    QCheck_alcotest.to_alcotest prop_one_word_replacement;
    ("certify/verify/mismatch sweep", `Quick, test_certify_verify);
    ("injector :flip corrupts one bit", `Quick, test_injector_flip);
    ("flip with no certified target is a no-op", `Quick,
     test_flip_without_target);
    ("fault taxonomy exhaustive equal/pp/show/render", `Quick,
     test_fault_exhaustive);
    ("Data_corrupted rendering", `Quick, test_corruption_render);
    ("integrity config defaults", `Quick, test_config_defaults);
  ]
