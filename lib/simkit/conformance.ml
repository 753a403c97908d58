let samples ?domains ~master ~tag ~trials sample =
  Trial.collect ?domains ~trials ~master ~salt0:(Seeds.salt_of_tag tag) sample

let validate_dist tag dist =
  if dist = [] then invalid_arg "Conformance: empty distribution";
  let total =
    List.fold_left
      (fun acc (_, p) ->
        if p <= 0.0 then
          invalid_arg
            (Printf.sprintf "Conformance (%s): non-positive probability in support" tag);
        acc +. p)
      0.0 dist
  in
  if Float.abs (total -. 1.0) > 1e-9 then
    invalid_arg
      (Printf.sprintf "Conformance (%s): probabilities sum to %.12g, not 1" tag total)

let counts ?domains ~master ~tag ~trials ~dist ~equal ~describe ~sample () =
  validate_dist tag dist;
  let support = Array.of_list (List.map fst dist) in
  let observed = Array.make (Array.length support) 0 in
  let index_of x =
    let rec go i =
      if i = Array.length support then
        failwith
          (Printf.sprintf
             "Conformance (%s): sampled %s, which the oracle assigns probability 0" tag
             (describe x))
      else if equal support.(i) x then i
      else go (i + 1)
    in
    go 0
  in
  Array.iter
    (fun x ->
      let i = index_of x in
      observed.(i) <- observed.(i) + 1)
    (samples ?domains ~master ~tag ~trials sample);
  observed

let check ?domains ?min_expected ~alpha ~master ~tag ~trials ~dist ~equal ~describe
    ~sample () =
  let observed = counts ?domains ~master ~tag ~trials ~dist ~equal ~describe ~sample () in
  let expected =
    Array.of_list (List.map (fun (_, p) -> p *. Float.of_int trials) dist)
  in
  let observed, expected =
    Stats.Gof.pool_low_expected ?min_expected ~observed ~expected ()
  in
  Stats.Gof.pearson_chi2 ~alpha ~observed ~expected ()
