type t = { lambda : float; gap : float; bound : float }

let of_extremes e =
  let lambda = Float.max (Float.abs e.Lanczos.lambda_2) (Float.abs e.Lanczos.lambda_min) in
  { lambda; gap = 1.0 -. lambda; bound = Float.max e.Lanczos.bound_2 e.Lanczos.bound_min }

let estimate rng g = of_extremes (Lanczos.extremes rng g)

let theorem1_bound ~n t =
  if n < 2 then invalid_arg "Gap.theorem1_bound: n >= 2";
  if t.gap <= 0.0 then infinity
  else log (Float.of_int n) /. (t.gap ** 3.0)

let satisfies_gap_condition ~n t =
  if n < 2 then invalid_arg "Gap.satisfies_gap_condition: n >= 2";
  t.gap /. sqrt (log (Float.of_int n) /. Float.of_int n)

let pp ppf t = Format.fprintf ppf "lambda=%.6f ± %.1e gap=%.3g" t.lambda t.bound t.gap
