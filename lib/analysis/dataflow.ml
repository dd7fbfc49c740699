module Bits = struct
  (* Bit [i] lives in word [i / w] at position [i mod w], with [w] the
     63 bits of a 64-bit OCaml int. Bits past [n] in the last word stay
     zero, so whole-word equality and popcounts need no masking. *)
  type t = { words : int array; n : int }

  let w = 63
  let create n = { words = Array.make ((n + w - 1) / w) 0; n }
  let length t = t.n
  let set t i = t.words.(i / w) <- t.words.(i / w) lor (1 lsl (i mod w))
  let clear t i = t.words.(i / w) <- t.words.(i / w) land lnot (1 lsl (i mod w))
  let get t i = t.words.(i / w) land (1 lsl (i mod w)) <> 0
  let copy t = { words = Array.copy t.words; n = t.n }

  let equal a b =
    a.n = b.n
    &&
    let rec go i = i < 0 || (a.words.(i) = b.words.(i) && go (i - 1)) in
    go (Array.length a.words - 1)

  let fill t =
    let nw = Array.length t.words in
    if nw > 0 then begin
      Array.fill t.words 0 nw (-1);
      let r = t.n mod w in
      if r > 0 then t.words.(nw - 1) <- (1 lsl r) - 1
    end

  let union_into ~dst src =
    let changed = ref false in
    for i = 0 to Array.length dst.words - 1 do
      let d = dst.words.(i) in
      let u = d lor src.words.(i) in
      if u <> d then begin
        changed := true;
        dst.words.(i) <- u
      end
    done;
    !changed

  let inter_into ~dst src =
    let changed = ref false in
    for i = 0 to Array.length dst.words - 1 do
      let d = dst.words.(i) in
      let u = d land src.words.(i) in
      if u <> d then begin
        changed := true;
        dst.words.(i) <- u
      end
    done;
    !changed

  (* SWAR popcount over the 63 bits of an int: the masks skip the top
     bit where a 64-bit mask would not fit, and the byte sums (at most
     63) fit the 7-bit top byte. *)
  let popcount x =
    let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
    let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
    let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
    (x * 0x0101_0101_0101_0101) lsr 56

  let iter f t =
    Array.iteri
      (fun i word ->
        let x = ref word in
        while !x <> 0 do
          let v = !x in
          let low = v land -v in
          f ((i * w) + popcount (low - 1));
          x := v lxor low
        done)
      t.words

  let count t = Array.fold_left (fun c x -> c + popcount x) 0 t.words

  let count_inter a b =
    let c = ref 0 in
    for i = 0 to Array.length a.words - 1 do
      c := !c + popcount (a.words.(i) land b.words.(i))
    done;
    !c
end

(* Reverse postorder of the blocks reachable from block 0 over
   [succs]. *)
let reverse_postorder nblocks succs =
  let seen = Array.make nblocks false in
  let order = ref [] in
  let rec go b =
    if not seen.(b) then begin
      seen.(b) <- true;
      List.iter go (succs b);
      order := b :: !order
    end
  in
  if nblocks > 0 then go 0;
  (!order, seen)

let solve ?start ~nblocks ~direction ~succs ~preds ~boundary ~transfer () =
  let nbits = Bits.length boundary in
  let in_, out =
    match start with
    | Some (i, o) -> (i, o)
    | None ->
        (Array.init nblocks (fun _ -> Bits.create nbits),
         Array.init nblocks (fun _ -> Bits.create nbits))
  in
  (* forward: join over preds into in_, transfer to out.
     backward: we store the "entry fact" in [in_] and the propagated fact
     in [out] with the roles of succs/preds swapped; callers read the pair
     as documented in the mli. *)
  let join_edges, dependents, prop_from, prop_to =
    match direction with
    | `Forward -> (preds, succs, out, in_)
    | `Backward -> (succs, preds, in_, out)
  in
  (* Forward problems visit reachable blocks in reverse postorder,
     backward ones in postorder, so most blocks see their inputs final
     on the first sweep; unreachable blocks come last, in index order. *)
  let order =
    let rpo, reached = reverse_postorder nblocks succs in
    let reachable = match direction with `Forward -> rpo | `Backward -> List.rev rpo in
    Array.of_list
      (reachable @ List.filter (fun b -> not reached.(b)) (List.init nblocks Fun.id))
  in
  let is_boundary b =
    match direction with
    | `Forward -> b = 0
    | `Backward -> succs b = []
  in
  let step b =
    let acc = Bits.create nbits in
    if is_boundary b then ignore (Bits.union_into ~dst:acc boundary);
    List.iter (fun p -> ignore (Bits.union_into ~dst:acc prop_from.(p))) (join_edges b);
    prop_to.(b) <- acc;
    let res = transfer b acc in
    if Bits.equal res prop_from.(b) then false
    else begin
      prop_from.(b) <- res;
      true
    end
  in
  (* Ordered round-robin: sweep in [order], visiting only blocks whose
     inputs changed since their last visit. *)
  let dirty = Array.make nblocks true in
  let pending = ref true in
  while !pending do
    pending := false;
    Array.iter
      (fun b ->
        if dirty.(b) then begin
          dirty.(b) <- false;
          if step b then begin
            pending := true;
            List.iter (fun d -> dirty.(d) <- true) (dependents b)
          end
        end)
      order
  done;
  (in_, out)
