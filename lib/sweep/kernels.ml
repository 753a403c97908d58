let all =
  [
    Cobra.Kernel.cobra;
    Cobra.Kernel.bips;
    Cobra.Kernel.rwalk;
    Cobra.Kernel.push;
    Cobra.Kernel.pull;
    Cobra.Kernel.push_pull;
    Cobra.Kernel.coalesce;
    Cobra.Kernel.explore;
    Epidemic.Kernels.sis;
    Epidemic.Kernels.contact;
    Epidemic.Kernels.herd;
    Epidemic.Kernels.seir;
  ]

let find name = List.find_opt (fun k -> k.Cobra.Kernel.name = name) all

let names () = List.map (fun k -> k.Cobra.Kernel.name) all

let find_res name =
  match find name with
  | Some k -> Ok k
  | None ->
    Error
      (Printf.sprintf "unknown kernel %S (available: %s)" name
         (String.concat ", " (names ())))

(* ---------- engines ---------- *)

type engine = [ `Scalar | `Lanes ]

let engine_to_string = function `Scalar -> "scalar" | `Lanes -> "lanes"

let engine_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "scalar" -> Ok `Scalar
  | "lanes" -> Ok `Lanes
  | s -> Error (Printf.sprintf "unknown engine %S (available: scalar, lanes)" s)

(* The sliced-stepper registry: bips/cobra/push from Cobra.Lanes, sis
   from Epidemic.Lanes. Everything else (rwalk, pull, push-pull,
   coalesce, explore, contact, herd, seir) runs scalar under every
   engine. *)
let sliced kernel =
  let name = kernel.Cobra.Kernel.name in
  match Cobra.Lanes.find name with
  | Some s -> Some s
  | None -> Epidemic.Lanes.find name

let lanes_capable kernel params =
  match sliced kernel with
  | None -> false
  | Some s -> s.Cobra.Lanes.supports params

let batch = Dstruct.Lanemat.lanes

(* [trials] scalar kernel runs on the per-trial streams
   [salt0 + 0 .. salt0 + trials - 1]. One domain: a cell already runs on
   a pool lane (batch sweep) or a dispatch lane (daemon), and the shared
   pool takes no nested or concurrent batches. *)
let run_scalar kernel g params ~trials ~master ~salt0 =
  if trials = 0 then [||]
  else
    Simkit.Trial.collect ~domains:1 ~trials ~master ~salt0
      (Cobra.Kernel.run kernel g params)

(* The lane engine: trials advance 64 per batch, lane [j] of batch [b]
   being trial [b * 64 + j] on its own derived stream. A short final
   batch masks its unused lanes out of every reduction. *)
let run_lanes kernel s g params ~trials ~master ~salt0 =
  let cap = Cobra.Kernel.cap kernel g params in
  let out = Array.make trials None in
  let b = ref 0 in
  while !b * batch < trials do
    let base = !b * batch in
    let n_active = min batch (trials - base) in
    let seeds =
      Array.init batch (fun j ->
          Simkit.Seeds.trial_seed ~master ~salt:(salt0 + base + j))
    in
    let gen = Prng.Lanes.create seeds in
    let outcomes = Cobra.Lanes.run_batch s g params gen ~n_active ~cap in
    Array.iteri (fun j o -> out.(base + j) <- Some o) outcomes;
    incr b
  done;
  Array.map Option.get out

let run_trials ?(engine = `Scalar) kernel g params ~trials ~master ~salt0 =
  if trials < 0 then invalid_arg "Kernels.run_trials: negative trials";
  match engine with
  | `Scalar -> run_scalar kernel g params ~trials ~master ~salt0
  | `Lanes -> (
    match sliced kernel with
    | Some s when s.Cobra.Lanes.supports params ->
      run_lanes kernel s g params ~trials ~master ~salt0
    | Some _ | None ->
      (* No sliced stepper for this kernel (or these params): fall back
         to the scalar engine rather than failing the whole sweep. *)
      run_scalar kernel g params ~trials ~master ~salt0)
