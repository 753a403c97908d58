(* The arithmetic behind every number the benchmark reports: medians,
   tail percentiles with a minimum sample count, span self times, and the
   pool-utilisation ratios. Kept apart from the load generator so the
   tests in perfbench/test can pin it on hand-made inputs. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  match xs with
  | [] -> Float.nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Nearest-rank percentile: the value of 1-based rank ceil(p n / 100). *)
let rank ~n p = max 1 (int_of_float (Float.ceil (float_of_int (p * n) /. 100.0)))

(* The highest integer percentile [p <= want] that still has at least
   [min_beyond] samples above its rank, so a tail figure is never read
   off a handful of points. Falls back to the median (p = 50) when even
   that has too few samples beyond it. Returns [(p, value)]. *)
let tail_percentile ?(min_beyond = 10) ~want xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (want, Float.nan)
  else begin
    let p = ref want in
    while !p > 50 && n - rank ~n !p < min_beyond do
      decr p
    done;
    (!p, a.(rank ~n !p - 1))
  end

type span = {
  id : int;
  parent : int;  (** id of the enclosing span; 0 for a root *)
  name : string;
  key : string;  (** shared by the spans of one cell: its address *)
  start : float;
  stop : float;
  words : float;  (** minor-heap words the recording domain allocated inside the span *)
}

let duration s = s.stop -. s.start

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* A span's self time: its duration minus the part of that interval its
   child spans cover (overlapping children are counted once). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          ((s.start, s.stop)
          :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    spans;
  List.map
    (fun s ->
      let kids = Option.value (Hashtbl.find_opt children s.id) ~default:[] in
      (s, duration s -. covered ~lo:s.start ~hi:s.stop kids))
    spans

let total_duration name spans =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. duration s else acc)
    0.0 spans

(* Share of the pool's capacity spent running cells: summed cell run
   time over (wall time x domains). *)
let busy_frac ~busy_s ~wall_s ~domains = busy_s /. (wall_s *. float_of_int domains)

(* Wall time against the ideal of the bare kernel work spread perfectly
   over the pool: 1.0 means the layers above the kernels cost nothing. *)
let overhead_ratio ~wall_s ~bare_s ~domains =
  wall_s /. (bare_s /. float_of_int domains)
