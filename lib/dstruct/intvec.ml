type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 16) () =
  { data = Array.make (max capacity 1) 0; len = 0 }

let[@inline] length v = v.len
let is_empty v = v.len = 0

let check v i =
  if i < 0 || i >= v.len then invalid_arg "Intvec: index out of range"

let get v i = check v i; v.data.(i)
let[@inline] unsafe_get v i = Array.unsafe_get v.data i

let ensure v needed =
  if needed > Array.length v.data then begin
    let cap = ref (Array.length v.data) in
    while !cap < needed do cap := !cap * 2 done;
    let data = Array.make !cap 0 in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end

let push v x =
  ensure v (v.len + 1);
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Intvec.pop: empty";
  v.len <- v.len - 1;
  v.data.(v.len)

let clear v = v.len <- 0

let iter f v =
  for i = 0 to v.len - 1 do f v.data.(i) done

let fold f init v =
  let acc = ref init in
  iter (fun x -> acc := f !acc x) v;
  !acc

let to_array v = Array.sub v.data 0 v.len

let of_array a = { data = (if Array.length a = 0 then Array.make 1 0 else Array.copy a); len = Array.length a }

let to_list v = List.rev (fold (fun acc x -> x :: acc) [] v)

let sort v =
  let a = to_array v in
  Array.sort compare a;
  Array.blit a 0 v.data 0 v.len

let swap v i j =
  check v i; check v j;
  let tmp = v.data.(i) in
  v.data.(i) <- v.data.(j);
  v.data.(j) <- tmp
