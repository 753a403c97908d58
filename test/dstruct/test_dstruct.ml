(* Unit and property tests for the dstruct library: bitsets, int vectors,
   heaps, lane matrices. *)

module Bitset = Dstruct.Bitset
module Intvec = Dstruct.Intvec

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---------- Bitset unit tests ---------- *)

let test_bitset_empty () =
  let s = Bitset.create 100 in
  check Alcotest.int "capacity" 100 (Bitset.capacity s);
  check Alcotest.int "cardinal" 0 (Bitset.cardinal s);
  check Alcotest.bool "is_empty" true (Bitset.is_empty s);
  check Alcotest.bool "is_full" false (Bitset.is_full s);
  check Alcotest.(option int) "choose" None (Bitset.choose s)

let test_bitset_add_remove () =
  let s = Bitset.create 70 in
  Bitset.add s 0;
  Bitset.add s 31;
  Bitset.add s 32;
  Bitset.add s 69;
  check Alcotest.int "cardinal" 4 (Bitset.cardinal s);
  check Alcotest.bool "mem 31" true (Bitset.mem s 31);
  check Alcotest.bool "mem 32" true (Bitset.mem s 32);
  check Alcotest.bool "mem 33" false (Bitset.mem s 33);
  Bitset.remove s 31;
  check Alcotest.bool "removed" false (Bitset.mem s 31);
  check Alcotest.int "cardinal after remove" 3 (Bitset.cardinal s);
  check Alcotest.(list int) "to_list sorted" [ 0; 32; 69 ] (Bitset.to_list s);
  check Alcotest.(option int) "choose smallest" (Some 0) (Bitset.choose s)

let test_bitset_fill_clear () =
  let s = Bitset.create 65 in
  Bitset.fill s;
  check Alcotest.int "full cardinal" 65 (Bitset.cardinal s);
  check Alcotest.bool "is_full" true (Bitset.is_full s);
  Bitset.clear s;
  check Alcotest.bool "cleared" true (Bitset.is_empty s)

let test_bitset_fill_exact_boundary () =
  (* Capacities at word boundaries must not set phantom bits. *)
  List.iter
    (fun n ->
      let s = Bitset.create n in
      Bitset.fill s;
      check Alcotest.int (Printf.sprintf "fill n=%d" n) n (Bitset.cardinal s))
    [ 1; 31; 32; 33; 63; 64; 65; 96; 128 ]

let test_bitset_zero_capacity () =
  let s = Bitset.create 0 in
  check Alcotest.int "cardinal" 0 (Bitset.cardinal s);
  check Alcotest.bool "is_full on empty universe" true (Bitset.is_full s);
  Bitset.fill s;
  Bitset.clear s

let test_bitset_out_of_range () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "negative" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.add s (-1));
  Alcotest.check_raises "too large" (Invalid_argument "Bitset: index out of range")
    (fun () -> ignore (Bitset.mem s 10))

let test_bitset_set_ops () =
  let a = Bitset.of_list 50 [ 1; 2; 3; 10; 40 ] in
  let b = Bitset.of_list 50 [ 2; 3; 4; 41 ] in
  let u = Bitset.copy a in
  Bitset.union_into ~src:b ~dst:u;
  check Alcotest.(list int) "union" [ 1; 2; 3; 4; 10; 40; 41 ] (Bitset.to_list u);
  let i = Bitset.copy a in
  Bitset.inter_into ~src:b ~dst:i;
  check Alcotest.(list int) "inter" [ 2; 3 ] (Bitset.to_list i);
  let d = Bitset.copy a in
  Bitset.diff_into ~src:b ~dst:d;
  check Alcotest.(list int) "diff" [ 1; 10; 40 ] (Bitset.to_list d);
  check Alcotest.bool "subset inter<=a" true (Bitset.subset i a);
  check Alcotest.bool "not subset" false (Bitset.subset b a);
  check Alcotest.bool "equal self" true (Bitset.equal a (Bitset.copy a));
  check Alcotest.bool "not equal" false (Bitset.equal a b)

let test_bitset_blit_iter_fold () =
  let a = Bitset.of_list 40 [ 5; 17; 39 ] in
  let b = Bitset.create 40 in
  Bitset.blit ~src:a ~dst:b;
  check Alcotest.bool "blit equal" true (Bitset.equal a b);
  let collected = ref [] in
  Bitset.iter (fun i -> collected := i :: !collected) a;
  check Alcotest.(list int) "iter increasing" [ 39; 17; 5 ] !collected;
  check Alcotest.int "fold sum" 61 (Bitset.fold ( + ) a 0)

let test_bitset_capacity_mismatch () =
  let a = Bitset.create 10 and b = Bitset.create 11 in
  Alcotest.check_raises "union mismatch"
    (Invalid_argument "Bitset.union_into: capacity mismatch") (fun () ->
      Bitset.union_into ~src:a ~dst:b)

(* The layout behind [words] and the hot-loop helpers: member [i] is bit
   [i land 31] of [words.(i lsr 5)]. *)
let test_bitset_words_layout () =
  let s = Bitset.create 100 in
  List.iter (Bitset.add s) [ 0; 31; 32; 70; 99 ];
  check
    Alcotest.(array int)
    "words"
    [| 1 lor (1 lsl 31); 1; 1 lsl 6; 1 lsl 3 |]
    s.Bitset.words;
  (* [unsafe_add_new] is true exactly once per member, and [member_at]
     inverts the layout. *)
  let t = Bitset.create 100 in
  let firsts =
    List.map (Bitset.unsafe_add_new t) [ 0; 31; 32; 70; 99; 70; 0; 99; 31; 32 ]
  in
  check Alcotest.(list bool) "add_new once"
    [ true; true; true; true; true; false; false; false; false; false ]
    firsts;
  check Alcotest.bool "add_new adds" true (Bitset.equal s t);
  check Alcotest.(list int) "member_at" [ 0; 31; 32; 70; 99 ]
    [ Bitset.member_at 0 0; Bitset.member_at 0 31; Bitset.member_at 1 0;
      Bitset.member_at 2 6; Bitset.member_at 3 3 ]

(* Property: bitset behaves like a reference implementation over int
   sets. *)
let bitset_model_prop =
  QCheck.Test.make ~name:"bitset agrees with a model set" ~count:300
    QCheck.(pair (int_bound 200) (small_list (pair bool (int_bound 220))))
    (fun (n, ops) ->
      let n = n + 1 in
      let s = Bitset.create n in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (add, i) ->
          let i = i mod n in
          if add then begin
            Bitset.add s i;
            Hashtbl.replace model i ()
          end
          else begin
            Bitset.remove s i;
            Hashtbl.remove model i
          end)
        ops;
      let expected = List.sort compare (Hashtbl.fold (fun k () l -> k :: l) model []) in
      Bitset.to_list s = expected && Bitset.cardinal s = List.length expected)

let bitset_union_commutes_prop =
  QCheck.Test.make ~name:"union commutes" ~count:200
    QCheck.(pair (small_list (int_bound 99)) (small_list (int_bound 99)))
    (fun (xs, ys) ->
      let a = Bitset.of_list 100 xs and b = Bitset.of_list 100 ys in
      let ab = Bitset.copy a in
      Bitset.union_into ~src:b ~dst:ab;
      let ba = Bitset.copy b in
      Bitset.union_into ~src:a ~dst:ba;
      Bitset.equal ab ba)

(* ---------- Word-level traversal API vs a naive bool-array model ------

   The word-scan rewrite of iter/fold/choose and the new
   iter_words/next_member primitives are pinned against the obvious
   O(capacity) reference at every capacity class the packing can get
   wrong: empty universe, single word, word boundary +/- 1, and many
   words. *)

let word_api_caps = [ 0; 1; 63; 64; 65; 1000 ]

(* (capacity, members): members are arbitrary ints reduced mod capacity
   (dropped when the universe is empty). *)
let word_api_arb =
  let gen =
    QCheck.Gen.(
      oneofl word_api_caps >>= fun cap ->
      list_size (int_bound 120) (int_bound 4999) >>= fun raw ->
      return (cap, if cap = 0 then [] else List.map (fun x -> x mod cap) raw))
  in
  QCheck.make
    ~print:(fun (cap, xs) ->
      Printf.sprintf "cap=%d members=[%s]" cap
        (String.concat ";" (List.map string_of_int xs)))
    gen

let model_of cap xs =
  let model = Array.make cap false in
  List.iter (fun i -> model.(i) <- true) xs;
  model

let model_members model =
  let acc = ref [] in
  Array.iteri (fun i b -> if b then acc := i :: !acc) model;
  List.rev !acc

let bitset_word_iter_prop =
  QCheck.Test.make ~name:"iter/fold visit model members in order" ~count:300
    word_api_arb (fun (cap, xs) ->
      let s = Bitset.of_list cap xs in
      let model = model_of cap xs in
      let expected = model_members model in
      let via_iter = ref [] in
      Bitset.iter (fun i -> via_iter := i :: !via_iter) s;
      let via_fold = Bitset.fold (fun i acc -> i :: acc) s [] in
      List.rev !via_iter = expected && List.rev via_fold = expected)

let bitset_choose_next_member_prop =
  QCheck.Test.make ~name:"choose/next_member agree with model" ~count:300
    word_api_arb (fun (cap, xs) ->
      let s = Bitset.of_list cap xs in
      let model = model_of cap xs in
      let smallest_from i =
        let rec go j = if j >= cap then None else if model.(j) then Some j else go (j + 1) in
        go i
      in
      Bitset.choose s = smallest_from 0
      &&
      (* Every query point, including just past the capacity. *)
      let rec all i =
        i > cap + 2
        || (Bitset.next_member s i = smallest_from i && all (i + 1))
      in
      all 0)

let bitset_iter_words_prop =
  QCheck.Test.make ~name:"iter_words decodes to the member set" ~count:300
    word_api_arb (fun (cap, xs) ->
      let s = Bitset.of_list cap xs in
      let model = model_of cap xs in
      let decoded = Array.make cap false in
      let word_indices = ref [] and ok = ref true in
      Bitset.iter_words
        (fun w cell ->
          word_indices := w :: !word_indices;
          for b = 0 to Bitset.word_size - 1 do
            if cell land (1 lsl b) <> 0 then begin
              let i = (w * Bitset.word_size) + b in
              (* No phantom bits beyond the capacity, no duplicates. *)
              if i >= cap || decoded.(i) then ok := false else decoded.(i) <- true
            end
          done)
        s;
      let expected_words = (cap + Bitset.word_size - 1) / Bitset.word_size in
      !ok
      && List.rev !word_indices = List.init expected_words Fun.id
      && decoded = model)

(* The one [popcount]/[ctz] (on 32-bit cells) against a bit loop, on
   random cells and on every single-bit cell. *)
let bitset_popcount_ctz_prop =
  let naive_popcount c =
    let k = ref 0 in
    for b = 0 to 31 do
      if (c lsr b) land 1 = 1 then incr k
    done;
    !k
  in
  let naive_ctz c =
    let b = ref 0 in
    while (c lsr !b) land 1 = 0 do
      incr b
    done;
    !b
  in
  QCheck.Test.make ~name:"popcount and ctz agree with a bit loop" ~count:500
    QCheck.(pair (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (hi, lo) ->
      let agree c =
        Bitset.popcount c = naive_popcount c && (c = 0 || Bitset.ctz c = naive_ctz c)
      in
      agree ((hi lsl 16) lor lo)
      && List.for_all (fun b -> agree (1 lsl b)) (List.init 32 Fun.id))

let bitset_setops_idempotent_prop =
  QCheck.Test.make ~name:"union/inter/diff_into are idempotent" ~count:300
    QCheck.(
      pair (oneofl word_api_caps)
        (pair (small_list (int_bound 4999)) (small_list (int_bound 4999))))
    (fun (cap, (raw_a, raw_b)) ->
      let reduce raw = if cap = 0 then [] else List.map (fun x -> x mod cap) raw in
      let a = Bitset.of_list cap (reduce raw_a) in
      let b = Bitset.of_list cap (reduce raw_b) in
      List.for_all
        (fun op ->
          let once = Bitset.copy b in
          op ~src:a ~dst:once;
          let twice = Bitset.copy once in
          op ~src:a ~dst:twice;
          Bitset.equal once twice)
        [ Bitset.union_into; Bitset.inter_into; Bitset.diff_into ])

(* ---------- Lanemat vs a bool-matrix model ----------

   The n x 64 lane-occupancy matrix behind the bit-sliced engine is
   pinned against the obvious [bool array array] model at the same
   capacity classes as the word API: empty universe, single row, and
   both sides of every packing boundary. *)

module Lanemat = Dstruct.Lanemat

(* (capacity, ops): ops are (add, vertex, lane) with vertex reduced mod
   capacity (dropped when the universe is empty). *)
let lanemat_arb =
  let gen =
    QCheck.Gen.(
      oneofl word_api_caps >>= fun cap ->
      list_size (int_bound 150)
        (triple bool (int_bound 4999) (int_bound (Lanemat.lanes - 1)))
      >>= fun raw ->
      return
        (cap, if cap = 0 then [] else List.map (fun (a, v, l) -> (a, v mod cap, l)) raw))
  in
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "cap=%d ops=[%s]" cap
        (String.concat ";"
           (List.map
              (fun (a, v, l) ->
                Printf.sprintf "%s(%d,%d)" (if a then "+" else "-") v l)
              ops)))
    gen

let lanemat_play cap ops =
  let m = Lanemat.create cap in
  let model = Array.make_matrix cap Lanemat.lanes false in
  List.iter
    (fun (add, v, lane) ->
      if add then begin
        Lanemat.add m v ~lane;
        model.(v).(lane) <- true
      end
      else begin
        Lanemat.remove m v ~lane;
        model.(v).(lane) <- false
      end)
    ops;
  (m, model)

let lanemat_model_prop =
  QCheck.Test.make ~name:"lanemat add/remove/mem agree with a bool matrix"
    ~count:300 lanemat_arb (fun (cap, ops) ->
      let m, model = lanemat_play cap ops in
      Lanemat.capacity m = cap
      && Lanemat.to_rows m = model
      &&
      let ok = ref true in
      Array.iteri
        (fun v row ->
          Array.iteri
            (fun lane b -> if Lanemat.mem m v ~lane <> b then ok := false)
            row)
        model;
      !ok)

let lanemat_roundtrip_prop =
  QCheck.Test.make ~name:"of_rows/to_rows round-trip" ~count:300 lanemat_arb
    (fun (cap, ops) ->
      let _, model = lanemat_play cap ops in
      Lanemat.to_rows (Lanemat.of_rows model) = model)

let lanemat_counts_prop =
  QCheck.Test.make ~name:"per-lane counts agree with the model" ~count:300
    lanemat_arb (fun (cap, ops) ->
      let m, model = lanemat_play cap ops in
      let expected lane =
        Array.fold_left (fun acc row -> if row.(lane) then acc + 1 else acc) 0 model
      in
      let counts = Lanemat.counts m in
      Array.length counts = Lanemat.lanes
      && List.for_all
           (fun lane ->
             counts.(lane) = expected lane
             && Lanemat.count_lane m ~lane = expected lane)
           (List.init Lanemat.lanes Fun.id))

let lanemat_fold_prop =
  QCheck.Test.make ~name:"fold_and/fold_or completion masks agree" ~count:300
    lanemat_arb (fun (cap, ops) ->
      let m, model = lanemat_play cap ops in
      let bit_of lane pred =
        let cell = if lane < 32 then 0 else 1 in
        let b = lane land 31 in
        (cell, if pred then 1 lsl b else 0)
      in
      let expect combine init =
        let lo = ref 0 and hi = ref 0 in
        for lane = 0 to Lanemat.lanes - 1 do
          let v =
            Array.fold_left (fun acc row -> combine acc row.(lane)) init model
          in
          match bit_of lane v with
          | 0, b -> lo := !lo lor b
          | _, b -> hi := !hi lor b
        done;
        (!lo, !hi)
      in
      Lanemat.fold_and m = expect ( && ) true
      && Lanemat.fold_or m = expect ( || ) false)

let test_lanemat_lane_mask () =
  check Alcotest.(pair int int) "k=0" (0, 0) (Lanemat.lane_mask 0);
  check Alcotest.(pair int int) "k=1" (1, 0) (Lanemat.lane_mask 1);
  check Alcotest.(pair int int) "k=31" (0x7FFFFFFF, 0) (Lanemat.lane_mask 31);
  check Alcotest.(pair int int) "k=32" (0xFFFFFFFF, 0) (Lanemat.lane_mask 32);
  check Alcotest.(pair int int) "k=33" (0xFFFFFFFF, 1) (Lanemat.lane_mask 33);
  check Alcotest.(pair int int) "k=63" (0xFFFFFFFF, 0x7FFFFFFF) (Lanemat.lane_mask 63);
  check Alcotest.(pair int int) "k=64" (0xFFFFFFFF, 0xFFFFFFFF) (Lanemat.lane_mask 64);
  Alcotest.check_raises "k=65" (Invalid_argument "Lanemat.lane_mask: k outside [0, 64]")
    (fun () -> ignore (Lanemat.lane_mask 65))

let test_lanemat_cells () =
  let m = Lanemat.create 3 in
  Lanemat.add m 1 ~lane:0;
  Lanemat.add m 1 ~lane:31;
  Lanemat.add m 1 ~lane:32;
  Lanemat.add m 1 ~lane:63;
  check Alcotest.int "lo cell" 0x80000001 (Lanemat.unsafe_lo m 1);
  check Alcotest.int "hi cell" 0x80000001 (Lanemat.unsafe_hi m 1);
  (* Writes keep only the low 32 bits. *)
  Lanemat.unsafe_set_lo m 2 (-1);
  check Alcotest.int "masked write" 0xFFFFFFFF (Lanemat.unsafe_lo m 2);
  Lanemat.clear m;
  check Alcotest.int "cleared" 0 (Lanemat.unsafe_lo m 1);
  check Alcotest.bool "empty and vacuously full" true
    (Lanemat.fold_and m = (0, 0) && Lanemat.fold_and (Lanemat.create 0) = (0xFFFFFFFF, 0xFFFFFFFF))

(* The layout behind the row-cell helpers: row [v]'s lanes 0..31 are
   [cells.(2 * v)], lanes 32..63 [cells.(2 * v + 1)]. *)
let test_lanemat_cells_layout () =
  let m = Lanemat.create 3 in
  Lanemat.add m 1 ~lane:5;
  Lanemat.add m 2 ~lane:40;
  check Alcotest.(array int) "cells" [| 0; 0; 1 lsl 5; 0; 0; 1 lsl 8 |] m.Lanemat.cells;
  (* The row helpers round-trip each block without touching the other. *)
  Lanemat.unsafe_set_lo m 0 0x12345678;
  Lanemat.unsafe_set_hi m 0 0x9ABCDEF0;
  check Alcotest.(pair int int) "row 0 round-trips" (0x12345678, 0x9ABCDEF0)
    (Lanemat.unsafe_lo m 0, Lanemat.unsafe_hi m 0);
  check Alcotest.(pair int int) "rows 1 and 2 read back" (1 lsl 5, 1 lsl 8)
    (Lanemat.unsafe_lo m 1, Lanemat.unsafe_hi m 2);
  check Alcotest.(array int) "cells after"
    [| 0x12345678; 0x9ABCDEF0; 1 lsl 5; 0; 0; 1 lsl 8 |]
    m.Lanemat.cells

let test_lanemat_blit_checks () =
  let a = Lanemat.create 5 and b = Lanemat.create 5 in
  Lanemat.add a 4 ~lane:63;
  Lanemat.blit ~src:a ~dst:b;
  check Alcotest.bool "blit copies" true (Lanemat.mem b 4 ~lane:63);
  Alcotest.check_raises "blit mismatch"
    (Invalid_argument "Lanemat.blit: capacity mismatch") (fun () ->
      Lanemat.blit ~src:a ~dst:(Lanemat.create 6));
  Alcotest.check_raises "vertex range" (Invalid_argument "Lanemat: vertex out of range")
    (fun () -> Lanemat.add a 5 ~lane:0);
  Alcotest.check_raises "lane range" (Invalid_argument "Lanemat: lane out of range")
    (fun () -> Lanemat.add a 0 ~lane:64)

(* ---------- Intvec ---------- *)

let test_intvec_push_pop () =
  let v = Intvec.create () in
  check Alcotest.bool "empty" true (Intvec.is_empty v);
  for i = 0 to 99 do
    Intvec.push v (i * i)
  done;
  check Alcotest.int "length" 100 (Intvec.length v);
  check Alcotest.int "get 7" 49 (Intvec.get v 7);
  check Alcotest.int "pop" (99 * 99) (Intvec.pop v);
  check Alcotest.int "length after pop" 99 (Intvec.length v);
  Intvec.clear v;
  check Alcotest.bool "cleared" true (Intvec.is_empty v)

let test_intvec_bounds () =
  let v = Intvec.of_array [| 1; 2; 3 |] in
  Alcotest.check_raises "get oob" (Invalid_argument "Intvec: index out of range")
    (fun () -> ignore (Intvec.get v 3));
  Alcotest.check_raises "pop empty" (Invalid_argument "Intvec.pop: empty") (fun () ->
      ignore (Intvec.pop (Intvec.create ())))

let test_intvec_conversions () =
  let v = Intvec.of_array [| 3; 1; 2 |] in
  check Alcotest.(list int) "to_list" [ 3; 1; 2 ] (Intvec.to_list v);
  Intvec.sort v;
  check Alcotest.(list int) "sorted" [ 1; 2; 3 ] (Intvec.to_list v);
  Intvec.swap v 0 2;
  check Alcotest.(list int) "swapped" [ 3; 2; 1 ] (Intvec.to_list v);
  check Alcotest.int "fold" 6 (Intvec.fold ( + ) 0 v)

let intvec_model_prop =
  QCheck.Test.make ~name:"intvec behaves like a list accumulator" ~count:300
    QCheck.(small_list small_int)
    (fun xs ->
      let v = Intvec.create ~capacity:1 () in
      List.iter (Intvec.push v) xs;
      Intvec.to_list v = xs && Intvec.length v = List.length xs)

(* ---------- Heap ---------- *)

module Heap = Dstruct.Heap

let test_heap_basic () =
  let h = Heap.create () in
  check Alcotest.bool "empty" true (Heap.is_empty h);
  check Alcotest.bool "min none" true (Heap.min h = None);
  Heap.push h ~priority:3.0 ~payload:30;
  Heap.push h ~priority:1.0 ~payload:10;
  Heap.push h ~priority:2.0 ~payload:20;
  check Alcotest.int "size" 3 (Heap.size h);
  check Alcotest.bool "peek min" true (Heap.min h = Some (1.0, 10));
  check Alcotest.bool "pop order 1" true (Heap.pop h = (1.0, 10));
  check Alcotest.bool "pop order 2" true (Heap.pop h = (2.0, 20));
  check Alcotest.bool "pop order 3" true (Heap.pop h = (3.0, 30));
  Alcotest.check_raises "pop empty" (Invalid_argument "Heap.pop: empty") (fun () ->
      ignore (Heap.pop h))

let test_heap_clear () =
  let h = Heap.create ~capacity:2 () in
  for i = 0 to 99 do
    Heap.push h ~priority:(Float.of_int (100 - i)) ~payload:i
  done;
  check Alcotest.int "size 100" 100 (Heap.size h);
  Heap.clear h;
  check Alcotest.bool "cleared" true (Heap.is_empty h)

let heap_sorts_prop =
  QCheck.Test.make ~name:"heap pops in priority order" ~count:300
    QCheck.(small_list (float_range (-100.0) 100.0))
    (fun ps ->
      let h = Heap.create () in
      List.iteri (fun i p -> Heap.push h ~priority:p ~payload:i) ps;
      let out = ref [] in
      while not (Heap.is_empty h) do
        out := fst (Heap.pop h) :: !out
      done;
      List.rev !out = List.sort compare ps)

let () =
  Alcotest.run "dstruct"
    [
      ( "bitset",
        [
          Alcotest.test_case "empty" `Quick test_bitset_empty;
          Alcotest.test_case "add/remove" `Quick test_bitset_add_remove;
          Alcotest.test_case "fill/clear" `Quick test_bitset_fill_clear;
          Alcotest.test_case "fill word boundaries" `Quick test_bitset_fill_exact_boundary;
          Alcotest.test_case "zero capacity" `Quick test_bitset_zero_capacity;
          Alcotest.test_case "out of range" `Quick test_bitset_out_of_range;
          Alcotest.test_case "set operations" `Quick test_bitset_set_ops;
          Alcotest.test_case "blit/iter/fold" `Quick test_bitset_blit_iter_fold;
          Alcotest.test_case "capacity mismatch" `Quick test_bitset_capacity_mismatch;
          Alcotest.test_case "words layout" `Quick test_bitset_words_layout;
          qtest bitset_model_prop;
          qtest bitset_union_commutes_prop;
        ] );
      ( "bitset-words",
        [
          qtest bitset_word_iter_prop;
          qtest bitset_choose_next_member_prop;
          qtest bitset_iter_words_prop;
          qtest bitset_setops_idempotent_prop;
          qtest bitset_popcount_ctz_prop;
        ] );
      ( "lanemat",
        [
          Alcotest.test_case "lane_mask" `Quick test_lanemat_lane_mask;
          Alcotest.test_case "cells and masking" `Quick test_lanemat_cells;
          Alcotest.test_case "blit and range checks" `Quick test_lanemat_blit_checks;
          Alcotest.test_case "cells layout" `Quick test_lanemat_cells_layout;
          qtest lanemat_model_prop;
          qtest lanemat_roundtrip_prop;
          qtest lanemat_counts_prop;
          qtest lanemat_fold_prop;
        ] );
      ( "intvec",
        [
          Alcotest.test_case "push/pop" `Quick test_intvec_push_pop;
          Alcotest.test_case "bounds" `Quick test_intvec_bounds;
          Alcotest.test_case "conversions" `Quick test_intvec_conversions;
          qtest intvec_model_prop;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic" `Quick test_heap_basic;
          Alcotest.test_case "grow/clear" `Quick test_heap_clear;
          qtest heap_sorts_prop;
        ] );
    ]
