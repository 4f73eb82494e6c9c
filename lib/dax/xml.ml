type t = Element of string * (string * string) list * t list | Text of string

exception Parse_error of { position : int; message : string }

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type cursor = { src : string; mutable pos : int }

let fail cur message = raise (Parse_error { position = cur.pos; message })
let eof cur = cur.pos >= String.length cur.src

let peek cur = if eof cur then '\000' else cur.src.[cur.pos]

let advance cur = cur.pos <- cur.pos + 1

let expect cur c =
  if peek cur <> c then fail cur (Printf.sprintf "expected %C, found %C" c (peek cur));
  advance cur

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let skip_spaces cur =
  while (not (eof cur)) && is_space (peek cur) do
    advance cur
  done

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = '.' || c = ':'

let read_name cur =
  let start = cur.pos in
  while (not (eof cur)) && is_name_char (peek cur) do
    advance cur
  done;
  if cur.pos = start then fail cur "expected a name";
  String.sub cur.src start (cur.pos - start)

let decode_entities s =
  if not (String.contains s '&') then s
  else begin
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      if s.[!i] = '&' then begin
        let semi = try String.index_from s !i ';' with Not_found -> -1 in
        if semi < 0 then begin
          Buffer.add_char buf '&';
          incr i
        end
        else begin
          let entity = String.sub s (!i + 1) (semi - !i - 1) in
          (match entity with
          | "amp" -> Buffer.add_char buf '&'
          | "lt" -> Buffer.add_char buf '<'
          | "gt" -> Buffer.add_char buf '>'
          | "quot" -> Buffer.add_char buf '"'
          | "apos" -> Buffer.add_char buf '\''
          | other -> Buffer.add_string buf ("&" ^ other ^ ";"));
          i := semi + 1
        end
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  end

let read_quoted cur =
  let quote = peek cur in
  if quote <> '"' && quote <> '\'' then fail cur "expected a quoted value";
  advance cur;
  let start = cur.pos in
  while (not (eof cur)) && peek cur <> quote do
    advance cur
  done;
  if eof cur then fail cur "unterminated attribute value";
  let raw = String.sub cur.src start (cur.pos - start) in
  advance cur;
  decode_entities raw

let read_attributes cur =
  let rec go acc =
    skip_spaces cur;
    match peek cur with
    | '>' | '/' | '?' -> List.rev acc
    | _ ->
        let key = read_name cur in
        skip_spaces cur;
        expect cur '=';
        skip_spaces cur;
        let value = read_quoted cur in
        go ((key, value) :: acc)
  in
  go []

let skip_until cur marker =
  let n = String.length marker in
  let rec go () =
    if cur.pos + n > String.length cur.src then fail cur ("unterminated " ^ marker)
    else if String.sub cur.src cur.pos n = marker then cur.pos <- cur.pos + n
    else begin
      advance cur;
      go ()
    end
  in
  go ()

(* consume <?...?> and <!--...--> before or between elements *)
let rec skip_misc cur =
  skip_spaces cur;
  if (not (eof cur)) && peek cur = '<' && cur.pos + 1 < String.length cur.src then
    match cur.src.[cur.pos + 1] with
    | '?' ->
        skip_until cur "?>";
        skip_misc cur
    | '!' ->
        if
          cur.pos + 3 < String.length cur.src
          && String.sub cur.src cur.pos 4 = "<!--"
        then begin
          skip_until cur "-->";
          skip_misc cur
        end
        else fail cur "unsupported <! construct (CDATA/DOCTYPE)"
    | _ -> ()

let rec parse_element cur =
  expect cur '<';
  let tag = read_name cur in
  let attrs = read_attributes cur in
  skip_spaces cur;
  match peek cur with
  | '/' ->
      advance cur;
      expect cur '>';
      Element (tag, attrs, [])
  | '>' ->
      advance cur;
      let children = parse_content cur tag in
      Element (tag, attrs, children)
  | c -> fail cur (Printf.sprintf "unexpected %C in tag" c)

and parse_content cur tag =
  let items = ref [] in
  let rec go () =
    if eof cur then fail cur (Printf.sprintf "unterminated element <%s>" tag);
    if peek cur = '<' then begin
      if cur.pos + 1 >= String.length cur.src then fail cur "dangling '<'";
      match cur.src.[cur.pos + 1] with
      | '/' ->
          advance cur;
          advance cur;
          let closing = read_name cur in
          if closing <> tag then
            fail cur (Printf.sprintf "mismatched </%s> inside <%s>" closing tag);
          skip_spaces cur;
          expect cur '>'
      | '!' ->
          skip_until cur "-->";
          go ()
      | '?' ->
          skip_until cur "?>";
          go ()
      | _ ->
          items := parse_element cur :: !items;
          go ()
    end
    else begin
      let start = cur.pos in
      while (not (eof cur)) && peek cur <> '<' do
        advance cur
      done;
      let text = decode_entities (String.sub cur.src start (cur.pos - start)) in
      if String.exists (fun c -> not (is_space c)) text then items := Text text :: !items;
      go ()
    end
  in
  go ();
  List.rev !items

let parse src =
  let cur = { src; pos = 0 } in
  skip_misc cur;
  if eof cur then fail cur "empty document";
  let root = parse_element cur in
  skip_misc cur;
  if not (eof cur) then fail cur "trailing content after root element";
  root

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let attr t key =
  match t with
  | Text _ -> None
  | Element (_, attrs, _) -> List.assoc_opt key attrs

let children = function
  | Text _ -> []
  | Element (_, _, kids) -> List.filter (function Element _ -> true | Text _ -> false) kids

let name = function Text _ -> "" | Element (tag, _, _) -> tag

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | '\'' -> Buffer.add_string buf "&apos;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_string t =
  let buf = Buffer.create 1024 in
  let rec go indent t =
    match t with
    | Text s -> Buffer.add_string buf (escape s)
    | Element (tag, attrs, kids) ->
        Buffer.add_string buf indent;
        Buffer.add_char buf '<';
        Buffer.add_string buf tag;
        List.iter
          (fun (k, v) -> Buffer.add_string buf (Printf.sprintf " %s=\"%s\"" k (escape v)))
          attrs;
        if kids = [] then Buffer.add_string buf "/>\n"
        else begin
          Buffer.add_string buf ">\n";
          List.iter (go (indent ^ "  ")) kids;
          Buffer.add_string buf indent;
          Buffer.add_string buf (Printf.sprintf "</%s>\n" tag)
        end
  in
  go "" t;
  Buffer.contents buf
