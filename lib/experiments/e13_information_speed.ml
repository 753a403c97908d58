module Scale = Simkit.Scale
module A = Simkit.Artifact

(* Two facts frame Theorem 1's optimality:
   (i)  information travels at most one hop per round, so
        Hit(v) >= dist(start, v) always;
   (ii) the active set at most doubles, so covering needs >= log2 n
        rounds — "the best possible asymptotic bound" (paper, Section 1).
   This experiment profiles first-visit times by BFS distance on an
   expander: the per-distance mean stays within a small additive band
   above the distance itself, and the overall cover time lands within a
   constant factor of log2 n. *)
let run ~emit ~scale ~master =
  let n = Scale.pick scale ~quick:1024 ~standard:8192 ~full:65536 in
  let r = 3 in
  let trials = Scale.pick scale ~quick:10 ~standard:30 ~full:60 in
  let g = Common.expander ~master ~tag:"e13" ~n ~r () in
  let dist = Graph.View.bfs g 0 in
  emit
    (A.context
       [ ("graph", Printf.sprintf "random %d-regular, n=%d" r n);
         ("branching", "k=2"); ("trials", string_of_int trials) ]);
  (* Pool first-visit times per BFS distance over the trials. *)
  let max_dist = Array.fold_left Stdlib.max 0 dist in
  let per_dist = Array.init (max_dist + 1) (fun _ -> Stats.Summary.create ()) in
  let violations = ref 0 in
  let covers = Stats.Summary.create () in
  Simkit.Trial.collect ~trials ~master ~salt0:(Common.salt_of ~tag:"e13")
    (Cobra.Process.first_visit_times g ~branching:Cobra.Branching.cobra_k2 ~start:0)
  |> Array.iter (fun first ->
         let cover = ref 0 in
         Array.iteri
           (fun v t ->
             if t >= 0 then begin
               if t < dist.(v) then incr violations;
               if t > !cover then cover := t;
               Stats.Summary.add_int per_dist.(dist.(v)) t
             end)
           first;
         Stats.Summary.add_int covers !cover);
  let table =
    A.Tab.create
      [ "BFS distance"; "vertices"; "hit time (mean ± ci95)"; "mean - distance" ]
  in
  Array.iteri
    (fun d s ->
      if Stats.Summary.count s > 0 then begin
        let vertices = Stats.Summary.count s / trials in
        A.Tab.add_row table
          [
            A.int d;
            A.int vertices;
            A.summary s;
            A.floatf "%.2f" (Stats.Summary.mean s -. Float.of_int d);
          ]
      end)
    per_dist;
  emit (A.Tab.event table);
  let mean_cover = Stats.Summary.mean covers in
  let log2n = log (Float.of_int n) /. log 2.0 in
  emit
    (A.notef
       "\ncover: %.1f rounds; information-theoretic floor log2 n = %.1f (ratio %.2f)"
       mean_cover log2n (mean_cover /. log2n));
  emit (A.metric ~name:"cover / log2 n" (mean_cover /. log2n));
  (* Acceptance: the distance lower bound is never violated (it is a
     theorem about the dynamics, so any violation is a bug), the
     per-distance excess stays bounded by c log n, and the cover lands
     within a small factor of the doubling floor. *)
  let excess_ok =
    Array.for_all
      (fun s ->
        Stats.Summary.count s = 0
        || Stats.Summary.mean s <= Float.of_int max_dist +. (3.0 *. Common.ln n))
      per_dist
  in
  emit
    (A.verdict
       ~pass:(!violations = 0 && excess_ok && mean_cover < 8.0 *. log2n)
       (Printf.sprintf
          "hit >= distance in all %d observations; cover %.1f within %.1fx of \
           the log2 n floor"
          (trials * n) mean_cover (mean_cover /. log2n)))

let spec =
  {
    Spec.id = "E13";
    slug = "information-speed";
    title = "Hitting times vs the distance and doubling lower bounds";
    claim =
      "Section 1: O(log n) is the best possible asymptotic cover bound \
       since the number of visited vertices at most doubles per round; \
       and information moves one hop per round, so hitting times dominate \
       BFS distances.";
    run;
  }
