type t = Fixed of int | One_plus of float | Distinct of int

let fixed k =
  if k < 1 then invalid_arg "Branching.fixed: k >= 1 required";
  Fixed k

let one_plus rho =
  if rho <= 0.0 || rho > 1.0 then invalid_arg "Branching.one_plus: rho in (0, 1]";
  One_plus rho

let distinct k =
  if k < 1 then invalid_arg "Branching.distinct: k >= 1 required";
  Distinct k

let cobra_k2 = Fixed 2

let expected = function
  | Fixed k | Distinct k -> Float.of_int k
  | One_plus rho -> 1.0 +. rho

let max_picks = function Fixed k | Distinct k -> k | One_plus _ -> 2

let draws t rng =
  match t with
  | Fixed k | Distinct k -> k
  | One_plus rho -> if Prng.Rng.bernoulli rng rho then 2 else 1

let picks_into t rng g v buf =
  (* One range check per call; the per-pick reads then use the unchecked
     view accessors (every pick stays inside [v]'s adjacency slice). This
     is the innermost loop of every process step. *)
  if v < 0 || v >= Graph.View.n_vertices g then
    invalid_arg "Branching.iter_picks: vertex out of range";
  let deg = Graph.View.unsafe_degree g v in
  if deg = 0 then invalid_arg "Branching.iter_picks: isolated vertex";
  match t with
  | Fixed _ | One_plus _ ->
    let picks = draws t rng in
    for i = 0 to picks - 1 do
      buf.(i) <- Graph.View.unsafe_random_neighbour g rng v
    done;
    picks
  | Distinct k ->
    let k = min k deg in
    if k = deg then Graph.View.unsafe_neighbours_into g v buf
    else begin
      let picked = Prng.Sample.without_replacement rng ~k ~n:deg in
      for j = 0 to k - 1 do
        buf.(j) <- Graph.View.unsafe_nth_neighbour g v picked.(j)
      done;
      k
    end

let picks_buffer t g =
  match t with
  | Fixed _ | One_plus _ -> Array.make (max_picks t) 0
  | Distinct k -> Array.make (min k (Graph.View.max_degree g)) 0

let iter_picks t rng g v ~f =
  let buf = picks_buffer t g in
  let picks = picks_into t rng g v buf in
  for i = 0 to picks - 1 do
    f buf.(i)
  done;
  picks

let pick_count_distribution = function
  | Fixed k | Distinct k -> [ (k, 1.0) ]
  | One_plus rho -> [ (1, 1.0 -. rho); (2, rho) ]

let infection_probability t p =
  match t with
  | Fixed k -> 1.0 -. ((1.0 -. p) ** Float.of_int k)
  | One_plus rho -> 1.0 -. ((1.0 -. p) *. (1.0 -. (rho *. p)))
  | Distinct _ ->
    invalid_arg
      "Branching.infection_probability: Distinct needs integer counts; use \
       infection_probability_counts"

(* C(n, k) as a float, for the small n this repository's exact paths use. *)
let choose n k =
  if k < 0 || k > n then 0.0
  else begin
    let k = min k (n - k) in
    let acc = ref 1.0 in
    for i = 0 to k - 1 do
      acc := !acc *. Float.of_int (n - i) /. Float.of_int (i + 1)
    done;
    !acc
  end

let infection_probability_counts t ~degree ~infected =
  if degree < 1 then invalid_arg "Branching: degree >= 1";
  if infected < 0 || infected > degree then
    invalid_arg "Branching: infected outside [0, degree]";
  match t with
  | Fixed _ | One_plus _ ->
    infection_probability t (Float.of_int infected /. Float.of_int degree)
  | Distinct k ->
    let k = min k degree in
    1.0 -. (choose (degree - infected) k /. choose degree k)

let to_string = function
  | Fixed k -> Printf.sprintf "k=%d" k
  | One_plus rho -> Printf.sprintf "1+rho (rho=%g)" rho
  | Distinct k -> Printf.sprintf "k=%d distinct" k

let of_string s =
  let s = String.trim (String.lowercase_ascii s) in
  let fixed_res k =
    if k >= 1 then Ok (Fixed k) else Error "branching factor k must be >= 1"
  in
  let after prefix =
    let p = String.length prefix in
    String.sub s p (String.length s - p)
  in
  if String.length s > 2 && String.sub s 0 2 = "k=" then
    match int_of_string_opt (after "k=") with
    | Some k -> fixed_res k
    | None -> Error "expected k=<int>"
  else if String.length s > 2 && String.sub s 0 2 = "1+" then
    match float_of_string_opt (after "1+") with
    | Some rho when rho > 0.0 && rho <= 1.0 -> Ok (One_plus rho)
    | Some _ -> Error "rho must lie in (0, 1]"
    | None -> Error "expected 1+<rho>"
  else if String.length s > 9 && String.sub s 0 9 = "distinct=" then
    match int_of_string_opt (after "distinct=") with
    | Some k when k >= 1 -> Ok (Distinct k)
    | _ -> Error "expected distinct=<int >= 1>"
  else
    match int_of_string_opt s with
    | Some k -> fixed_res k
    | None -> Error "branching: use k=<int>, <int>, 1+<rho>, or distinct=<int>"

(* Shortest float literal that round-trips, so to_arg/of_string compose to
   the identity for every representable rho. *)
let float_arg x =
  let s = Printf.sprintf "%g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let to_arg = function
  | Fixed k -> Printf.sprintf "k=%d" k
  | One_plus rho -> "1+" ^ float_arg rho
  | Distinct k -> Printf.sprintf "distinct=%d" k
