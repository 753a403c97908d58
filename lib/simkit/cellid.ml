type t = { address : string; digest : string }

let digest_len = 32

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')

let meta_digest meta = Json.digest (Json.Obj meta)

let make ~address ~meta =
  if address = "" then invalid_arg "Cellid.make: empty address";
  { address; digest = meta_digest meta }

let of_parts ~address ~digest =
  if address = "" then Error "empty address"
  else if String.length digest <> digest_len then
    Error
      (Printf.sprintf "meta digest must be %d hex characters (got %d)" digest_len
         (String.length digest))
  else if not (String.for_all is_hex digest) then
    Error (Printf.sprintf "meta digest %S is not lowercase hex" digest)
  else Ok { address; digest }

let address id = id.address
let digest id = id.digest
let salt id = Seeds.salt_of_tag ("campaign:" ^ id.address)
let equal a b = a.address = b.address && a.digest = b.digest

let compare a b =
  match String.compare a.address b.address with
  | 0 -> String.compare a.digest b.digest
  | c -> c

let to_string id = id.digest ^ ":" ^ id.address

let pp ppf id = Format.pp_print_string ppf (to_string id)

let of_string s =
  (* The digest is fixed-width, so the first ':' after it is the
     separator no matter what the address contains. *)
  if String.length s < digest_len + 2 then
    Error (Printf.sprintf "cell id %S too short (want <digest>:<address>)" s)
  else if s.[digest_len] <> ':' then
    Error (Printf.sprintf "cell id %S: expected ':' after the %d-char digest" s digest_len)
  else
    of_parts
      ~address:(String.sub s (digest_len + 1) (String.length s - digest_len - 1))
      ~digest:(String.sub s 0 digest_len)

let address_of_parts parts =
  if parts = [] then invalid_arg "Cellid.address_of_parts: no parts";
  String.concat ";"
    (List.map
       (fun (k, v) ->
         if k = "" then invalid_arg "Cellid.address_of_parts: empty key";
         String.iter
           (fun c ->
             if c = '=' || c = ';' || c = '\n' then
               invalid_arg
                 (Printf.sprintf "Cellid.address_of_parts: key %S contains %C" k c))
           k;
         String.iter
           (fun c ->
             if c = ';' || c = '\n' then
               invalid_arg
                 (Printf.sprintf "Cellid.address_of_parts: value %S contains %C" v c))
           v;
         k ^ "=" ^ v)
       parts)

let parts_of_address a =
  let fields = String.split_on_char ';' a in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | f :: rest -> (
      match String.index_opt f '=' with
      | None -> Error (Printf.sprintf "address part %S: expected key=value" f)
      | Some 0 -> Error (Printf.sprintf "address part %S: empty key" f)
      | Some i ->
        go
          ((String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1)) :: acc)
          rest)
  in
  if a = "" then Error "empty address" else go [] fields
