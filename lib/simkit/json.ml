type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---------- emission ----------

   Every token is written straight into the one output buffer: strings
   are escaped in place, indentation is cut from one constant, and
   numbers go through the runtime formatter [Printf] itself calls,
   without [Printf]'s format interpretation. *)

let hex_digits = "0123456789abcdef"

let add_escaped buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  (* [plain] starts the run of bytes not yet copied that need no escape. *)
  let plain = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !plain (i - !plain);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf hex_digits.[Char.code c lsr 4];
        Buffer.add_char buf hex_digits.[Char.code c land 15]);
      plain := i + 1
    end
  done;
  Buffer.add_substring buf s !plain (n - !plain);
  Buffer.add_char buf '"'

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  add_escaped buf s;
  Buffer.contents buf

external format_float : string -> float -> string = "caml_format_float"

let float_repr x =
  if Float.is_nan x then "null"
  else if x = Float.infinity then "1e999"
  else if x = Float.neg_infinity then "-1e999"
  else if Float.is_integer x && Float.abs x < 1e15 then format_float "%.1f" x
  else begin
    (* Shortest representation that round-trips. *)
    let s = format_float "%.12g" x in
    if float_of_string s = x then s else format_float "%.17g" x
  end

let rec add_digits buf i =
  if i >= 10 then add_digits buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (i mod 10)))

let add_int buf i =
  if i >= 0 then add_digits buf i
  else if i = min_int then Buffer.add_string buf (string_of_int i)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-i)
  end

let spaces = String.make 64 ' '

let rec add_spaces buf n =
  if n <= String.length spaces then Buffer.add_substring buf spaces 0 n
  else begin
    Buffer.add_string buf spaces;
    add_spaces buf (n - String.length spaces)
  end

(* One emitter for every output: it writes [v]'s tokens into [buf] and
   calls [spill buf] between the elements of every list, which is where
   a campaign document grows with its cell count. [to_string] spills
   nothing; [output] empties the buffer into its channel there once it
   holds [chunk] bytes, so such a document streams through one small
   buffer. *)
let emit ~pretty ~spill buf v =
  (* Pretty output puts every element on its own line, indented two
     spaces per level. *)
  let newline level =
    if pretty then begin
      Buffer.add_char buf '\n';
      add_spaces buf (2 * level)
    end
  in
  let rec value level = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> add_int buf i
    | Float x -> Buffer.add_string buf (float_repr x)
    | String s -> add_escaped buf s
    | List [] -> Buffer.add_string buf "[]"
    | List (first :: rest) ->
      Buffer.add_char buf '[';
      newline (level + 1);
      value (level + 1) first;
      List.iter
        (fun item ->
          spill buf;
          Buffer.add_char buf ',';
          newline (level + 1);
          value (level + 1) item)
        rest;
      newline level;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj (first :: rest) ->
      Buffer.add_char buf '{';
      field level first;
      List.iter
        (fun kv ->
          Buffer.add_char buf ',';
          field level kv)
        rest;
      newline level;
      Buffer.add_char buf '}'
  and field level (k, item) =
    newline (level + 1);
    add_escaped buf k;
    Buffer.add_string buf (if pretty then ": " else ":");
    value (level + 1) item
  in
  value 0 v;
  if pretty then Buffer.add_char buf '\n'

let to_string ?(pretty = false) v =
  let buf = Buffer.create 1024 in
  emit ~pretty ~spill:ignore buf v;
  Buffer.contents buf

let chunk = 4096

let output ?(pretty = false) oc v =
  let buf = Buffer.create chunk in
  let spill buf =
    if Buffer.length buf >= chunk then begin
      Buffer.output_buffer oc buf;
      Buffer.clear buf
    end
  in
  emit ~pretty ~spill buf v;
  Buffer.output_buffer oc buf

(* ---------- parsing ---------- *)

exception Parse_error of string

type parser_state = { src : string; mutable pos : int }


let digest v = Digest.to_hex (Digest.string (to_string v))

(* The next character's code, or [-1] at the end of input: an [int], so
   looking ahead allocates nothing. *)
let peek p =
  if p.pos < String.length p.src then Char.code (String.unsafe_get p.src p.pos) else -1

let is p c = peek p = Char.code c

let advance p = p.pos <- p.pos + 1

let fail_at p msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg p.pos))

let skip_ws p =
  while
    p.pos < String.length p.src
    && (match p.src.[p.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    advance p
  done

let expect p c = if is p c then advance p else fail_at p (Printf.sprintf "expected %c" c)

let parse_literal p lit value =
  if
    p.pos + String.length lit <= String.length p.src
    && String.sub p.src p.pos (String.length lit) = lit
  then begin
    p.pos <- p.pos + String.length lit;
    value
  end
  else fail_at p (Printf.sprintf "expected %s" lit)

let parse_string_body p =
  expect p '"';
  (* Most strings hold no escape: find the closing quote and copy the
     run once, without a buffer. Anything else takes the loop below
     from the same offset, so its verdicts and error offsets stand. *)
  let src = p.src and start = p.pos in
  let i = ref start in
  while
    !i < String.length src
    &&
    let c = String.unsafe_get src !i in
    c <> '"' && c <> '\\'
  do
    incr i
  done;
  if !i < String.length src && String.unsafe_get src !i = '"' then begin
    p.pos <- !i + 1;
    String.sub src start (!i - start)
  end
  else begin
    let buf = Buffer.create 16 in
    let rec loop () =
      let c = peek p in
      if c < 0 then fail_at p "unterminated string";
      match Char.unsafe_chr c with
      | '"' -> advance p
      | '\\' ->
        advance p;
        let e = peek p in
        if e < 0 then fail_at p "bad escape";
        (match Char.unsafe_chr e with
        | '"' -> Buffer.add_char buf '"'; advance p
        | '\\' -> Buffer.add_char buf '\\'; advance p
        | '/' -> Buffer.add_char buf '/'; advance p
        | 'n' -> Buffer.add_char buf '\n'; advance p
        | 't' -> Buffer.add_char buf '\t'; advance p
        | 'r' -> Buffer.add_char buf '\r'; advance p
        | 'b' -> Buffer.add_char buf '\b'; advance p
        | 'f' -> Buffer.add_char buf '\012'; advance p
        | 'u' ->
          advance p;
          if p.pos + 4 > String.length p.src then fail_at p "truncated \\u escape";
          let hex = String.sub p.src p.pos 4 in
          let code =
            try int_of_string ("0x" ^ hex)
            with _ -> fail_at p "bad \\u escape"
          in
          p.pos <- p.pos + 4;
          (* Encode as UTF-8 (surrogate pairs are not recombined; the
             emitter only produces escapes below 0x20, so this is enough
             to round-trip our own documents and accept foreign ones). *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
        | _ -> fail_at p "bad escape");
        loop ()
      | c -> Buffer.add_char buf c; advance p; loop ()
    in
    loop ();
    Buffer.contents buf
  end

let parse_number p =
  let start = p.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    let c = peek p in
    c >= 0 && is_num_char (Char.unsafe_chr c)
  do
    advance p
  done;
  let text = String.sub p.src start (p.pos - start) in
  if text = "" then fail_at p "expected a number";
  let is_integral =
    not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text)
  in
  match if is_integral then int_of_string_opt text else None with
  | Some i -> Int i
  | None -> (
    (* Integral text beyond the int range still parses, as a float. *)
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail_at p "malformed number")

let rec parse_value p =
  skip_ws p;
  let c = peek p in
  if c < 0 then fail_at p "unexpected end of input";
  match Char.unsafe_chr c with
  | '{' ->
    advance p;
    skip_ws p;
    if is p '}' then begin
      advance p;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws p;
        let key = parse_string_body p in
        skip_ws p;
        expect p ':';
        let v = parse_value p in
        fields := (key, v) :: !fields;
        skip_ws p;
        if is p ',' then begin
          advance p;
          members ()
        end
        else if is p '}' then advance p
        else fail_at p "expected ',' or '}'"
      in
      members ();
      Obj (List.rev !fields)
    end
  | '[' ->
    advance p;
    skip_ws p;
    if is p ']' then begin
      advance p;
      List []
    end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = parse_value p in
        items := v :: !items;
        skip_ws p;
        if is p ',' then begin
          advance p;
          elements ()
        end
        else if is p ']' then advance p
        else fail_at p "expected ',' or ']'"
      in
      elements ();
      List (List.rev !items)
    end
  | '"' -> String (parse_string_body p)
  | 't' -> parse_literal p "true" (Bool true)
  | 'f' -> parse_literal p "false" (Bool false)
  | 'n' -> parse_literal p "null" Null
  | _ -> parse_number p

let of_string s =
  let p = { src = s; pos = 0 } in
  try
    let v = parse_value p in
    skip_ws p;
    if p.pos <> String.length s then
      Error (Printf.sprintf "trailing garbage at offset %d" p.pos)
    else Ok v
  with Parse_error msg -> Error msg

let of_file path = Result.bind (Fsutil.read path (fun content _ -> content)) of_string

(* ---------- accessors ---------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function List items -> Some items | _ -> None

let to_number = function
  | Int i -> Some (Float.of_int i)
  | Float f -> Some f
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None

let to_bool_opt = function Bool b -> Some b | _ -> None
