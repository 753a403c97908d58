type 'a censored = { values : 'a array; censored : int }

let run_indexed ?domains ~n f =
  match domains with
  | None -> Pool.run (Pool.default ()) ~n f
  | Some 1 ->
    for i = 0 to n - 1 do
      f i
    done
  | Some d -> Pool.with_pool ~domains:d (fun pool -> Pool.run pool ~n f)

(* Trial [i] draws from [salt0 + i] and writes slot [i], so the array is
   the same whichever lane ran which index. *)
let collect ?domains ~trials ~master ~salt0 f =
  if trials < 1 then invalid_arg "Trial.collect: trials >= 1";
  let out = Array.make trials None in
  run_indexed ?domains ~n:trials (fun i ->
      out.(i) <- Some (f (Seeds.trial_rng ~master ~salt:(salt0 + i))));
  Array.map
    (function Some v -> v | None -> assert false (* Pool.run ran every index *))
    out

let collect_censored ?domains ~trials ~master ~salt0 f =
  let raw = collect ?domains ~trials ~master ~salt0 f in
  let values = Array.of_list (List.filter_map Fun.id (Array.to_list raw)) in
  { values; censored = trials - Array.length values }

let summarize_int ?domains ~trials ~master ~salt0 f =
  let { values; censored } = collect_censored ?domains ~trials ~master ~salt0 f in
  if Array.length values = 0 then failwith "Trial: every trial was censored";
  let s = Stats.Summary.create () in
  Array.iter (fun v -> Stats.Summary.add s (Float.of_int v)) values;
  (s, censored)
