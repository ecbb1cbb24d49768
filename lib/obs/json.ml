type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------ encode *)

(* Shortest decimal form that round-trips to the same float: try
   successively wider %.Ng formats.  Keeps manifests readable (0.05,
   not 0.05000000000000000278) without losing a bit. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else
    let rec try_prec p =
      if p > 17 then Printf.sprintf "%.17g" f
      else
        let s = Printf.sprintf "%.*g" p f in
        if float_of_string s = f then s else try_prec (p + 1)
    in
    try_prec 9

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

let rec emit b ~indent v =
  let pad n = Buffer.add_string b (String.make n ' ') in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
    if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
      Buffer.add_string b "null"
    else Buffer.add_string b (float_repr f)
  | String s -> escape_string b s
  | List [] -> Buffer.add_string b "[]"
  | List items ->
    Buffer.add_string b "[\n";
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string b ",\n";
        pad (indent + 2);
        emit b ~indent:(indent + 2) item)
      items;
    Buffer.add_char b '\n';
    pad indent;
    Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj fields ->
    Buffer.add_string b "{\n";
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_string b ",\n";
        pad (indent + 2);
        escape_string b k;
        Buffer.add_string b ": ";
        emit b ~indent:(indent + 2) item)
      fields;
    Buffer.add_char b '\n';
    pad indent;
    Buffer.add_char b '}'

let to_buffer ~indent b v = emit b ~indent v

let to_string v =
  let b = Buffer.create 1024 in
  emit b ~indent:0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* Crash-safe write: stage the document in a temp file in the same
   directory (rename across filesystems is not atomic, same-dir is),
   optionally fsync, then [Sys.rename] over the target.  A reader —
   or a validator in CI — therefore sees either the old complete
   document or the new complete document, never a truncated prefix. *)
let write_atomic_with ?(fsync = false) ~file write =
  let tmp, oc =
    Filename.open_temp_file ~temp_dir:(Filename.dirname file)
      (Filename.basename file ^ ".") ".tmp"
  in
  (try
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () ->
         write oc;
         flush oc;
         if fsync then Unix.fsync (Unix.descr_of_out_channel oc))
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  try Sys.rename tmp file
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let write_atomic ?fsync ~file v =
  write_atomic_with ?fsync ~file (fun oc -> output_string oc (to_string v))

let write ~file v = write_atomic ~file v

(* ------------------------------------------------------------- parse *)

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected %S" word)
  in
  let utf8_of_code b code =
    (* BMP code point to UTF-8 bytes *)
    if code < 0x80 then Buffer.add_char b (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        (if !pos >= n then fail "unterminated escape");
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          pos := !pos + 4;
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code -> utf8_of_code b code
          | None -> fail "bad \\u escape")
        | _ -> fail "bad escape");
        loop ()
      end
      else begin
        Buffer.add_char b c;
        loop ()
      end
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" tok)
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "bad number %S" tok))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec fields_loop () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields_loop ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        fields_loop ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec items_loop () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items_loop ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        items_loop ();
        List (List.rev !items)
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* [of_string] already rejects trailing garbage, so a file that was
   appended to after a crash, or truncated mid-token, parses to
   [Error] here rather than silently yielding a prefix document. *)
let read_file file =
  match
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error (Printf.sprintf "%s: %s" file msg)
  | exception End_of_file -> Error (Printf.sprintf "%s: unexpected end of file" file)
  | contents -> (
    match of_string contents with
    | Ok v -> Ok v
    | Error msg -> Error (Printf.sprintf "%s: %s" file msg))

(* --------------------------------------------------------- accessors *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
let to_list_opt = function List l -> Some l | _ -> None
