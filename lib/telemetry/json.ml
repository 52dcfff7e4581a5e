(** A minimal JSON value type with a printer and a parser.

    The repository deliberately avoids external JSON dependencies; this
    module is the single implementation shared by the trace writer, the
    machine-readable report emitters and the test-suite readers that
    validate their output.  It covers exactly the JSON the toolchain
    produces: finite numbers, UTF-8 strings, arrays and objects. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* A float rendered as a valid JSON number: shortest round-trip form,
   non-finite values degrade to null (JSON has no inf/nan). *)
let float_token f =
  if Float.is_nan f || Float.abs f = infinity then "null"
  else
    let s = Printf.sprintf "%.17g" f in
    let shorter = Printf.sprintf "%.12g" f in
    if float_of_string shorter = f then shorter else s

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f -> Buffer.add_string b (float_token f)
  | String s -> escape_string b s
  | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          write b x)
        xs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape_string b k;
          Buffer.add_char b ':';
          write b v)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 1024 in
  write b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing: a small recursive-descent reader. *)

exception Parse_error of string * int  (* message, byte offset *)

type cursor = { s : string; mutable i : int }

let peek c = if c.i < String.length c.s then Some c.s.[c.i] else None
let err c msg = raise (Parse_error (msg, c.i))

let advance c = c.i <- c.i + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') -> advance c; skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> err c (Printf.sprintf "expected %C" ch)

let literal c word value =
  let n = String.length word in
  if c.i + n <= String.length c.s && String.sub c.s c.i n = word then begin
    c.i <- c.i + n;
    value
  end
  else err c (Printf.sprintf "expected %s" word)

(* encode a Unicode scalar value as UTF-8 *)
let add_utf8 b u =
  if u < 0x80 then Buffer.add_char b (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char b (Char.chr (0xc0 lor (u lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3f)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xe0 lor (u lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3f)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xf0 lor (u lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 12) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor (u land 0x3f)))
  end

let hex4 c =
  let v = ref 0 in
  for _ = 1 to 4 do
    (match peek c with
    | Some ('0' .. '9' as ch) -> v := (!v * 16) + (Char.code ch - 48)
    | Some ('a' .. 'f' as ch) -> v := (!v * 16) + (Char.code ch - 87)
    | Some ('A' .. 'F' as ch) -> v := (!v * 16) + (Char.code ch - 55)
    | _ -> err c "bad \\u escape");
    advance c
  done;
  !v

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> err c "unterminated string"
    | Some '"' -> advance c; Buffer.contents b
    | Some '\\' -> (
        advance c;
        (match peek c with
        | Some '"' -> Buffer.add_char b '"'; advance c
        | Some '\\' -> Buffer.add_char b '\\'; advance c
        | Some '/' -> Buffer.add_char b '/'; advance c
        | Some 'n' -> Buffer.add_char b '\n'; advance c
        | Some 'r' -> Buffer.add_char b '\r'; advance c
        | Some 't' -> Buffer.add_char b '\t'; advance c
        | Some 'b' -> Buffer.add_char b '\b'; advance c
        | Some 'f' -> Buffer.add_char b '\012'; advance c
        | Some 'u' ->
            advance c;
            let u = hex4 c in
            (* surrogate pair *)
            if u >= 0xd800 && u <= 0xdbff then begin
              expect c '\\';
              expect c 'u';
              let lo = hex4 c in
              if lo < 0xdc00 || lo > 0xdfff then err c "bad surrogate pair";
              add_utf8 b
                (0x10000 + (((u - 0xd800) lsl 10) lor (lo - 0xdc00)))
            end
            else add_utf8 b u
        | _ -> err c "bad escape");
        go ())
    | Some ch -> Buffer.add_char b ch; advance c; go ()
  in
  go ()

let parse_number c =
  let start = c.i in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek c with Some ch -> is_num_char ch | None -> false) do
    advance c
  done;
  let tok = String.sub c.s start (c.i - start) in
  match int_of_string_opt tok with
  | Some n -> Int n
  | None -> (
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> err c (Printf.sprintf "bad number %S" tok))

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> err c "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> String (parse_string c)
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin advance c; List [] end
      else
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' -> advance c; items (v :: acc)
          | Some ']' -> advance c; List (List.rev (v :: acc))
          | _ -> err c "expected ',' or ']'"
        in
        items []
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin advance c; Obj [] end
      else
        let rec members acc =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' -> advance c; members ((k, v) :: acc)
          | Some '}' -> advance c; Obj (List.rev ((k, v) :: acc))
          | _ -> err c "expected ',' or '}'"
        in
        members []
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> err c (Printf.sprintf "unexpected character %C" ch)

let of_string s : (t, string) result =
  let c = { s; i = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.i <> String.length s then err c "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (msg, i) ->
      Error (Printf.sprintf "JSON parse error at byte %d: %s" i msg)

(* ------------------------------------------------------------------ *)
(* Accessors, for the in-repo readers (tests, trace validation). *)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let to_list = function List xs -> Some xs | _ -> None

let to_number = function
  | Int n -> Some (float_of_int n)
  | Float f -> Some f
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
