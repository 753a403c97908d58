(* OCaml ints are 63-bit with silent wraparound, so all arithmetic below is
   mod 2^63. Constants are the SplitMix64 ones truncated to 63 bits; the
   finalizer remains a bijection on 63 bits because xor-shift-multiply by an
   odd constant is invertible at any word size. *)

type t = { mutable seed : int; gamma : int }

let golden = 0x1E3779B97F4A7C15 (* 2^63 golden-ratio increment, 63-bit *)
let mult_a = 0x3F58476D1CE4E5B9
let mult_b = 0x14D049BB133111EB

let[@inline] mix z =
  let z = (z lxor (z lsr 30)) * mult_a in
  let z = (z lxor (z lsr 27)) * mult_b in
  z lxor (z lsr 31)

(* Second mixer (murmur3-style constants) used only to derive gammas, so
   that split streams do not share the output mixer's orbit structure. *)
let mix_gamma z =
  let z = (z lxor (z lsr 33)) * 0x7F51AFD7ED558CCD in
  let z = (z lxor (z lsr 33)) * 0x64DD9FE6AD7D6255 in
  (z lxor (z lsr 33)) lor 1

let create seed = { seed = mix (seed + golden); gamma = golden }

let copy t = { seed = t.seed; gamma = t.gamma }

let[@inline] next_raw t =
  t.seed <- t.seed + t.gamma;
  t.seed

let[@inline] next t = mix (next_raw t)

let split t =
  let seed = mix (next_raw t) in
  let gamma = mix_gamma (next_raw t) in
  { seed; gamma }

let[@inline] bits62 t = next t land max_int

(* Rejection below the largest multiple of [bound] that fits in 62 bits,
   to avoid modulo bias: [x] is kept iff its whole residue block
   [x - x mod bound, x - x mod bound + bound) lies in [0, 2^62), i.e.
   iff [x - x mod bound <= top] with [top = max_int - bound + 1]. That
   keeps exactly the [x <= max_int - (2^62 mod bound)] of the textbook
   form, with one division per draw instead of three. The rejection is a
   loop, so [int] inlines into its callers whole. *)
let[@inline] int t bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  if bound land (bound - 1) = 0 then bits62 t land (bound - 1)
  else begin
    let top = max_int - bound + 1 in
    let x = ref (bits62 t) in
    let r = ref (!x mod bound) in
    while !x - !r > top do
      x := bits62 t;
      r := !x mod bound
    done;
    !r
  end

let two_pow_53 = 9007199254740992.0

let[@inline] float t = Float.of_int (bits62 t lsr 9) /. two_pow_53

(* Here rather than in [Rng], which re-exports it: the comparison then
   reads the draw unboxed instead of a float boxed by a call. *)
let[@inline] bernoulli t p =
  if p <= 0.0 then false else if p >= 1.0 then true else float t < p

let bool t = next t land 1 = 1
