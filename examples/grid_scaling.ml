(* Grid scaling: where COBRA is NOT fast.

   Theorem 1 is about expanders. On lattices the active set can only
   advance its boundary O(1) per round, so cover time is polynomial —
   ~ n on the cycle, ~ sqrt(n) on the 2-d torus (Dutta et al.). This
   example measures the contrast against an expander of the same size.

   Run with: dune exec examples/grid_scaling.exe *)

let trials = 10

let mean_cover g rng =
  let s = Stats.Summary.create () in
  for _ = 1 to trials do
    (* Kernel defaults: branching k = 2, start vertex 0. *)
    match Cobra.Kernel.(completion_time cobra g default_params rng) with
    | Some t -> Stats.Summary.add_int s t
    | None -> ()
  done;
  Stats.Summary.mean s

let () =
  let rng = Prng.Rng.create 5 in
  let table =
    Stats.Table.create [ "graph"; "n"; "cover (mean)"; "ln n"; "n^(1/2)"; "n" ]
  in
  let row name gc =
    let g = Graph.View.of_csr gc in
    let n = Graph.View.n_vertices g in
    let c = mean_cover g rng in
    Stats.Table.add_row table
      [
        name;
        string_of_int n;
        Printf.sprintf "%.1f" c;
        Printf.sprintf "%.1f" (log (Float.of_int n));
        Printf.sprintf "%.1f" (sqrt (Float.of_int n));
        string_of_int n;
      ]
  in
  List.iter
    (fun side ->
      row (Printf.sprintf "cycle %d" side) (Graph.Gen.cycle side);
      row (Printf.sprintf "torus %dx%d" side side) (Graph.Gen.torus [| side; side |]);
      let n2 = side * side in
      row
        (Printf.sprintf "3-regular expander n=%d" n2)
        (Graph.Gen.random_regular rng ~n:n2 ~r:3))
    [ 32; 64; 128 ];
  Stats.Table.print table;
  Format.printf
    "@.Cycle cover tracks n, torus cover tracks sqrt(n), and the expander@.\
     of identical size tracks ln n — the paper's dichotomy in one table.@."
