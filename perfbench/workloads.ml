(* The three workloads. Each is a list of sweep campaigns (jobs) and the
   path they take through the system: the batch [cobra sweep] CLI, or a
   [cobra serve] daemon fed over its socket. The grids are fixed; the
   benchmark seed chooses the campaigns' master seeds (see [master]), so
   the program receives only the grid and a seed. perfbench/README.md
   records why each workload exists and what it should move. *)

type path = Batch | Daemon

type job = { name : string; inline : string; grid : Sweep.Grid.t }

type t = {
  name : string;
  path : path;
  jobs : job list;
  cached_reps : int;  (** fully cached resubmissions timed per iteration *)
  batch_reference : bool;
      (** the daemon's manifests must equal a batch sweep's, byte for byte *)
}

let job inline =
  match Sweep.Grid.of_inline inline with
  | Ok grid -> { name = grid.Sweep.Grid.name; inline; grid }
  | Error msg -> failwith (Printf.sprintf "bad workload grid %S: %s" inline msg)

(* Grid A: the paper's regime on three topologies, scalar engine, heap.
   The heavy-tailed BA cells (push and cobra cost 10-30x the others) come
   first, so the light cells pack around them instead of one BA cell
   deciding alone when the campaign ends. *)
let grid_a =
  "name=grid-a;graphs=ba:16384x2,random-regular:16384x4,hypercube:14;\
   kernels=cobra,bips,push,pull,sis,seir;trials=4"

(* Grid B: the lane engine (one 64-lane batch per cell) on the off-heap
   backend, over grid A's two expanders. *)
let grid_b =
  "name=grid-b;graphs=random-regular:16384x4,hypercube:14;\
   kernels=cobra,bips,push,sis;trials=64;engine=lanes;backend=bigarray"

let kernels_all =
  "cobra,bips,rwalk,push,pull,push-pull,coalesce,explore,sis,contact,herd,seir"

(* Tiny cells: every kernel and four branchings over small graphs. Graph
   set [s] draws distinct sizes, so no two jobs share a cell address and
   the cold pass misses the cache on every cell; each set runs once per
   engine (the engine is part of the cache key). *)
let tiny_sets = 4
let tiny_sizes = 8

let tiny_grid ~set ~engine =
  let sizes = List.init tiny_sizes (fun i -> (set * tiny_sizes) + i) in
  let family f = List.map f sizes in
  let graphs =
    (if set = 0 then [ "hypercube:4"; "hypercube:5"; "petersen" ] else [])
    @ family (fun u -> Printf.sprintf "cycle:%d" (6 + u))
    @ family (fun u -> Printf.sprintf "complete:%d" (4 + u))
    @ family (fun u -> Printf.sprintf "torus:3x%d" (3 + u))
    @ family (fun u -> Printf.sprintf "ba:%dx2" (12 + (2 * u)))
    @ family (fun u -> Printf.sprintf "random-regular:%dx3" (10 + (2 * u)))
  in
  Printf.sprintf
    "name=tiny-%d-%s;graphs=%s;kernels=%s;branching=k=2,k=3,1+0.5,distinct=2;\
     trials=2;engine=%s"
    set engine (String.concat "," graphs) kernels_all engine

let all =
  [
    { name = "sweep-expander"; path = Batch; jobs = [ job grid_a; job grid_b ];
      cached_reps = 10; batch_reference = false };
    { name = "serve-expander"; path = Daemon; jobs = [ job grid_a; job grid_b ];
      cached_reps = 10; batch_reference = true };
    {
      name = "serve-tiny";
      path = Daemon;
      jobs =
        List.concat_map
          (fun set ->
            [ job (tiny_grid ~set ~engine:"scalar"); job (tiny_grid ~set ~engine:"lanes") ])
          (List.init tiny_sets Fun.id);
      cached_reps = 1;
      batch_reference = false;
    };
  ]

(* The master seed of a run's [k]-th iteration. *)
let master ~seed k = (seed * 1000) + k

let find name = List.find_opt (fun w -> w.name = name) all

let cells job = List.length (Sweep.Grid.cells job.grid)
