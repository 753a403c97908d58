(* Batched per-lane randomness for the bit-sliced engine: 64 independent
   Splitmix streams, one per replica lane, consumed 32 output bits at a
   time through an in-place 32x32 bit transpose.

   Lane j's randomness is drawn from {e exactly} the stream the scalar
   engine would create for trial j (same generator family, same seed):
   per refill, each of a block's 32 lanes contributes the low 32 bits of
   one [Splitmix.next] draw; the transpose turns those 32 rows into 32
   {e plane} words whose bit j is a fresh fair bit of lane j's stream.
   Plane p of refill r carries bit (31 - p) of draw r (MSB first), so
   the bits each lane consumes are a fixed enumeration of its own
   stream — stream identity
   with the scalar engine holds at the generator level, while the cost
   of one 32-lane random word amortises to a single Splitmix draw plus a
   few transpose operations.

   Where exact equality with the scalar engine is NOT guaranteed: the
   scalar engine interprets its draws differently (53-bit floats for
   Bernoulli, 62-bit rejection for bounded ints), and sliced steppers
   may consume a different number of bits (shared rejection rounds,
   skipped draws when no lane can be affected). Equality is therefore
   distributional per lane, not draw-for-draw; determinism in the seed
   array is exact. *)

type t = {
  states : int array; (* 64 per-lane Splitmix states; 0..31 lo, 32..63 hi *)
  planes : int array; (* 64 buffered plane words: lo block 0..31, hi 32..63 *)
  mutable pos : int; (* planes consumed from the current refill, 0..32 *)
  mutable lo : int; (* result cells of the last mask-producing call *)
  mutable hi : int;
}

let block = 32
let full = 0xFFFFFFFF

(* In-place 32x32 bit-matrix transpose (Hacker's Delight 7-3) over
   [a.(off) .. a.(off + 31)], each element a 32-bit row. Level [j]
   swaps the [j]-bit blocks selected by [m] between rows [k] and
   [k + j], for every [k] with bit [j] clear; the levels are written out
   with constant [j] and [m] (immediates once [swap] is inlined) and
   short inner runs unrolled, so the 80 swaps pay few loop tests. *)
let[@inline] swap a i j m =
  let x = Array.unsafe_get a i and y = Array.unsafe_get a (i + j) in
  let t = (x lxor (y lsr j)) land m in
  Array.unsafe_set a i (x lxor t);
  Array.unsafe_set a (i + j) (y lxor (t lsl j))

let transpose32 a off =
  for i = off to off + 15 do
    swap a i 16 0x0000FFFF
  done;
  for h = 0 to 1 do
    let b = off + (16 * h) in
    for i = b to b + 7 do
      swap a i 8 0x00FF00FF
    done
  done;
  for h = 0 to 3 do
    let b = off + (8 * h) in
    swap a b 4 0x0F0F0F0F;
    swap a (b + 1) 4 0x0F0F0F0F;
    swap a (b + 2) 4 0x0F0F0F0F;
    swap a (b + 3) 4 0x0F0F0F0F
  done;
  for h = 0 to 7 do
    let b = off + (4 * h) in
    swap a b 2 0x33333333;
    swap a (b + 1) 2 0x33333333
  done;
  for h = 0 to 15 do
    swap a (off + (2 * h)) 1 0x55555555
  done

let create seeds =
  if Array.length seeds <> 2 * block then
    invalid_arg "Lanes.create: exactly 64 per-lane seeds required";
  {
    (* [Splitmix.create]'s initial state: every lane stream has gamma
       [Splitmix.golden]. *)
    states = Array.map (fun seed -> Splitmix.mix (seed + Splitmix.golden)) seeds;
    planes = Array.make (2 * block) 0;
    pos = block; (* force a refill on first use *)
    lo = 0;
    hi = 0;
  }

(* One block's 32 draws, each a [Splitmix.next] step: lane [j]'s low 32
   bits land in row [off + block - 1 - j]. *)
let draw_block states planes off =
  for j = 0 to block - 1 do
    let s = Array.unsafe_get states (off + j) + Splitmix.golden in
    Array.unsafe_set states (off + j) s;
    Array.unsafe_set planes (off + block - 1 - j) (Splitmix.mix s land full)
  done

(* The HD transpose numbers matrix columns from the most significant
   bit, so with lane [j]'s draw stored in row [block - 1 - j], plane [p]
   comes out with lane [j] at bit [j], serving bit [block - 1 - p] of
   each draw: lanes in natural order, each draw's bits consumed MSB
   first. *)
let refill t =
  draw_block t.states t.planes 0;
  transpose32 t.planes 0;
  draw_block t.states t.planes block;
  transpose32 t.planes block;
  t.pos <- 0

(* One fresh plane: a fair random bit in every lane, in [lo]/[hi]. *)
let[@inline] word t =
  if t.pos = block then refill t;
  let pos = t.pos in
  t.lo <- Array.unsafe_get t.planes pos;
  t.hi <- Array.unsafe_get t.planes (block + pos);
  t.pos <- pos + 1

let lo t = t.lo
let hi t = t.hi

(* Bernoulli(p) mask by bitwise comparison X < p over p's binary
   expansion, MSB first: at the first differing position, X < p iff the
   X-bit is 0 and the p-bit is 1. Floats are dyadic, so the comparison
   is exact; each plane halves the undecided lanes in expectation, so
   the expected cost is ~2 planes regardless of p. *)
let bernoulli t p =
  if p <= 0.0 then begin
    t.lo <- 0;
    t.hi <- 0
  end
  else if p >= 1.0 then begin
    t.lo <- full;
    t.hi <- full
  end
  else begin
    let res_lo = ref 0 and res_hi = ref 0 in
    let und_lo = ref full and und_hi = ref full in
    let q = ref p in
    while !und_lo lor !und_hi <> 0 && !q > 0.0 do
      q := !q *. 2.0;
      let bit = !q >= 1.0 in
      if bit then q := !q -. 1.0;
      word t;
      if bit then begin
        res_lo := !res_lo lor (!und_lo land lnot t.lo);
        res_hi := !res_hi lor (!und_hi land lnot t.hi);
        und_lo := !und_lo land t.lo;
        und_hi := !und_hi land t.hi
      end
      else begin
        und_lo := !und_lo land lnot t.lo;
        und_hi := !und_hi land lnot t.hi
      end
    done;
    (* p's bits exhausted: the still-undecided lanes have X >= p. *)
    t.lo <- !res_lo land full;
    t.hi <- !res_hi land full
  end

(* A loop, not a local recursive function: a closure over [bound]
   would allocate on every call, and the sliced steppers call this once
   per vertex they read. *)
let bits_for bound =
  let b = ref 0 in
  while 1 lsl !b < bound do
    incr b
  done;
  !b

(* Mask of lanes whose [nbits]-plane index is >= bound, i.e. > bound-1:
   scanning from the most significant plane, a lane exceeds the constant
   at the first position where its bit is 1 and the constant's is 0. *)
let ge_bound ~planes ~nbits ~bound =
  let c = bound - 1 in
  let gt = ref 0 and eq = ref full in
  for b = nbits - 1 downto 0 do
    let x = Array.unsafe_get planes b in
    if (c lsr b) land 1 = 1 then eq := !eq land x
    else begin
      gt := !gt lor (!eq land x);
      eq := !eq land lnot x
    end
  done;
  !gt

let uniform_planes t ~bound ~nbits ~lo:lp ~hi:hp =
  if bound < 1 then invalid_arg "Lanes.uniform_planes: bound must be positive";
  if Array.length lp < nbits || Array.length hp < nbits then
    invalid_arg "Lanes.uniform_planes: plane arrays shorter than nbits";
  for b = 0 to nbits - 1 do
    word t;
    Array.unsafe_set lp b t.lo;
    Array.unsafe_set hp b t.hi
  done;
  if bound land (bound - 1) <> 0 then begin
    (* Sliced rejection for non-power-of-two bounds: redraw only into
       the rejected lanes (fresh planes are spliced in under the
       rejection mask), so accepted lanes keep their index. Both blocks
       share the redraw rounds; a block with no rejections simply
       discards its fresh bits — distributionally harmless. *)
    let rej_lo = ref (ge_bound ~planes:lp ~nbits ~bound) in
    let rej_hi = ref (ge_bound ~planes:hp ~nbits ~bound) in
    while !rej_lo lor !rej_hi <> 0 do
      let rl = !rej_lo and rh = !rej_hi in
      for b = 0 to nbits - 1 do
        word t;
        Array.unsafe_set lp b ((Array.unsafe_get lp b land lnot rl) lor (t.lo land rl));
        Array.unsafe_set hp b ((Array.unsafe_get hp b land lnot rh) lor (t.hi land rh))
      done;
      rej_lo := ge_bound ~planes:lp ~nbits ~bound;
      rej_hi := ge_bound ~planes:hp ~nbits ~bound
    done
  end
