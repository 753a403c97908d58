let check x y = if Array.length x <> Array.length y then invalid_arg "Vec: size mismatch"

let dot x y =
  check x y;
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let norm2 x = sqrt (dot x x)

let scale x a =
  for i = 0 to Array.length x - 1 do
    x.(i) <- x.(i) *. a
  done

let axpy ~a ~x ~y =
  check x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (a *. x.(i))
  done

let normalize x =
  let n = norm2 x in
  if n = 0.0 then invalid_arg "Vec.normalize: zero vector";
  scale x (1.0 /. n)

let center x =
  let n = Array.length x in
  let mean = Array.fold_left ( +. ) 0.0 x /. Float.of_int n in
  for i = 0 to n - 1 do
    x.(i) <- x.(i) -. mean
  done

let random rng n = Array.init n (fun _ -> Prng.Rng.float_range rng ~lo:(-1.0) ~hi:1.0)
