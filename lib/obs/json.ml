type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- printing ----------------------------------------------------------- *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    (* shortest representation that round-trips *)
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
      (* JSON has no NaN/infinity literals *)
      if Float.is_nan f || Float.abs f = infinity then
        Buffer.add_string buf "null"
      else Buffer.add_string buf (float_repr f)
  | Str s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  to_buffer buf j;
  Buffer.contents buf

(* pretty printer: two-space indentation, deterministic *)
let rec pp ?(indent = 0) ppf j =
  let pad n = String.make n ' ' in
  match j with
  | Null | Bool _ | Int _ | Float _ | Str _ ->
      Format.pp_print_string ppf (to_string j)
  | List [] -> Format.pp_print_string ppf "[]"
  | List xs ->
      Format.pp_print_string ppf "[\n";
      List.iteri
        (fun i x ->
          if i > 0 then Format.pp_print_string ppf ",\n";
          Format.pp_print_string ppf (pad (indent + 2));
          pp ~indent:(indent + 2) ppf x)
        xs;
      Format.fprintf ppf "\n%s]" (pad indent)
  | Obj [] -> Format.pp_print_string ppf "{}"
  | Obj fields ->
      Format.pp_print_string ppf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Format.pp_print_string ppf ",\n";
          Format.fprintf ppf "%s\"%s\": " (pad (indent + 2)) k;
          pp ~indent:(indent + 2) ppf v)
        fields;
      Format.fprintf ppf "\n%s}" (pad indent)

let pp ppf j = pp ~indent:0 ppf j

(* --- parsing ------------------------------------------------------------ *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let fail c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))
let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None
let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected '%c'" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c ("expected " ^ word)

let parse_string_body c =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some '"' -> Buffer.add_char buf '"'; advance c; go ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance c; go ()
        | Some '/' -> Buffer.add_char buf '/'; advance c; go ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance c; go ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance c; go ()
        | Some 't' -> Buffer.add_char buf '\t'; advance c; go ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance c; go ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance c; go ()
        | Some 'u' ->
            advance c;
            if c.pos + 4 > String.length c.src then fail c "bad \\u escape";
            let hex = String.sub c.src c.pos 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> fail c "bad \\u escape"
            in
            c.pos <- c.pos + 4;
            (* we only emit \u for control characters; decode BMP as UTF-8 *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end;
            go ()
        | _ -> fail c "bad escape")
    | Some ch ->
        Buffer.add_char buf ch;
        advance c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go () =
    match peek c with
    | Some ch when is_num_char ch ->
        advance c;
        go ()
    | _ -> ()
  in
  go ();
  let s = String.sub c.src start (c.pos - start) in
  match int_of_string_opt s with
  | Some n -> Int n
  | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail c ("bad number " ^ s))

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' ->
      advance c;
      Str (parse_string_body c)
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              items (v :: acc)
          | Some ']' ->
              advance c;
              List.rev (v :: acc)
          | _ -> fail c "expected ',' or ']'"
        in
        List (items [])
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else
        let field () =
          skip_ws c;
          expect c '"';
          let k = parse_string_body c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          (k, v)
        in
        let rec fields acc =
          let f = field () in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              fields (f :: acc)
          | Some '}' ->
              advance c;
              List.rev (f :: acc)
          | _ -> fail c "expected ',' or '}'"
        in
        Obj (fields [])
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c (Printf.sprintf "unexpected character '%c'" ch)

let of_string s =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then Error "trailing garbage after JSON value"
      else Ok v
  | exception Parse_error msg -> Error msg

let of_string_exn s =
  match of_string s with Ok v -> v | Error msg -> invalid_arg ("Json: " ^ msg)

(* --- accessors ---------------------------------------------------------- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let member_exn k j =
  match member k j with
  | Some v -> v
  | None -> invalid_arg ("Json: missing member " ^ k)

let to_int_exn = function
  | Int n -> n
  | _ -> invalid_arg "Json: expected an integer"

let to_float_exn = function
  | Float f -> f
  | Int n -> float_of_int n
  | _ -> invalid_arg "Json: expected a number"

let to_string_exn = function
  | Str s -> s
  | _ -> invalid_arg "Json: expected a string"

let to_list_exn = function
  | List xs -> xs
  | _ -> invalid_arg "Json: expected a list"
