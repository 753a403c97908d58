(* Packed bit array: 32 bits per int cell so that index arithmetic is two
   shifts/masks rather than a division. Cell [i lsr 5], bit [i land 31].
   The last cell's unused high bits are kept at zero by construction, which
   lets [cardinal], [equal], [subset] and [is_full] work cell-wise. *)

type t = { words : int array; n : int }

let bits = 32
let mask = bits - 1
let shift = 5

let words_for n = if n = 0 then 0 else ((n - 1) lsr shift) + 1

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Array.make (words_for n) 0; n }

let capacity s = s.n

let check s i =
  if i < 0 || i >= s.n then invalid_arg "Bitset: index out of range"

let mem s i =
  check s i;
  s.words.(i lsr shift) land (1 lsl (i land mask)) <> 0

let add s i =
  check s i;
  let w = i lsr shift in
  s.words.(w) <- s.words.(w) lor (1 lsl (i land mask))

let remove s i =
  check s i;
  let w = i lsr shift in
  s.words.(w) <- s.words.(w) land lnot (1 lsl (i land mask))

(* Check-free variants for simulation inner loops; [0 <= i < n] is the
   caller's obligation. [@inline], so the kernels' step loops compile to
   the word arithmetic itself. *)
let[@inline] unsafe_mem s i =
  Array.unsafe_get s.words (i lsr shift) land (1 lsl (i land mask)) <> 0

let[@inline] unsafe_add s i =
  let w = i lsr shift in
  Array.unsafe_set s.words w (Array.unsafe_get s.words w lor (1 lsl (i land mask)))

let[@inline] unsafe_remove s i =
  let w = i lsr shift in
  Array.unsafe_set s.words w (Array.unsafe_get s.words w land lnot (1 lsl (i land mask)))

let[@inline] unsafe_add_new s i =
  let w = i lsr shift and bit = 1 lsl (i land mask) in
  let cell = Array.unsafe_get s.words w in
  cell land bit = 0
  &&
  (Array.unsafe_set s.words w (cell lor bit);
   true)

let[@inline] member_at w b = (w lsl shift) + b

let clear s = Array.fill s.words 0 (Array.length s.words) 0

let fill s =
  let nw = Array.length s.words in
  if nw > 0 then begin
    Array.fill s.words 0 nw ((1 lsl bits) - 1);
    (* Zero the bits above [n - 1] in the last cell. *)
    let used = s.n - (nw - 1) * bits in
    s.words.(nw - 1) <- (1 lsl used) - 1
  end

let[@inline] popcount x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  (x * 0x01010101) lsr 24 land 0x3F

(* Trailing-zero count of a nonzero 32-bit cell: isolate the lowest set
   bit, turn it into a mask of everything below it, popcount the mask.
   Branch-free, and exact for cells up to 2^32 - 1. *)
let[@inline] ctz x = popcount ((x land -x) - 1)

let cardinal s = Array.fold_left (fun acc w -> acc + popcount w) 0 s.words

(* Early-exit word scan; no cardinal, no closure allocation. *)
let is_empty s =
  let words = s.words in
  let nw = Array.length words in
  let rec go w = w >= nw || (Array.unsafe_get words w = 0 && go (w + 1)) in
  go 0

let is_full s = cardinal s = s.n

let copy s = { words = Array.copy s.words; n = s.n }

let same_capacity a b op =
  if a.n <> b.n then invalid_arg ("Bitset." ^ op ^ ": capacity mismatch")

let blit ~src ~dst =
  same_capacity src dst "blit";
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let union_into ~src ~dst =
  same_capacity src dst "union_into";
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) lor src.words.(w)
  done

let inter_into ~src ~dst =
  same_capacity src dst "inter_into";
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) land src.words.(w)
  done

let diff_into ~src ~dst =
  same_capacity src dst "diff_into";
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) land lnot src.words.(w)
  done

let equal a b = a.n = b.n && a.words = b.words

let subset a b =
  same_capacity a b "subset";
  let rec go w =
    w >= Array.length a.words
    || (a.words.(w) land lnot b.words.(w) = 0 && go (w + 1))
  in
  go 0

(* Word-scan traversal: zero cells cost one compare each; nonzero cells
   cost one trailing-zero scan per member (lowest set bit cleared with
   [cell land (cell - 1)]). Members are produced in increasing order —
   the same order as the old bit-by-bit loop — so traversal-driven RNG
   draw sequences are unchanged. Each cell is read once up front, as
   before, so mutation of other cells during iteration behaves
   identically. *)
let iter f s =
  let words = s.words in
  for w = 0 to Array.length words - 1 do
    let cell = ref (Array.unsafe_get words w) in
    if !cell <> 0 then begin
      let base = w lsl shift in
      while !cell <> 0 do
        f (base + ctz !cell);
        cell := !cell land (!cell - 1)
      done
    end
  done

let word_size = bits
let iter_words f s = Array.iteri f s.words

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

let to_list s = List.rev (fold (fun i acc -> i :: acc) s [])

let of_list n xs =
  let s = create n in
  List.iter (add s) xs;
  s

let choose s =
  let words = s.words in
  let rec go w =
    if w >= Array.length words then None
    else begin
      let cell = Array.unsafe_get words w in
      if cell = 0 then go (w + 1) else Some ((w lsl shift) + ctz cell)
    end
  in
  go 0

let next_member s i =
  if i < 0 then invalid_arg "Bitset.next_member: negative index";
  if i >= s.n then None
  else begin
    let words = s.words in
    let rec go w cell =
      if cell <> 0 then Some ((w lsl shift) + ctz cell)
      else if w + 1 >= Array.length words then None
      else go (w + 1) (Array.unsafe_get words (w + 1))
    in
    let w0 = i lsr shift in
    (* Mask away the bits strictly below [i] in the first word. *)
    go w0 (Array.unsafe_get words w0 land lnot ((1 lsl (i land mask)) - 1))
  end
