type t = Atom of string | List of t list

let needs_quoting s =
  s = ""
  || String.exists
       (fun c -> c <= ' ' || c = '(' || c = ')' || c = '"' || c = ';' || c = '\x7f')
       s

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      if c = '"' || c = '\\' then Buffer.add_char buf '\\';
      Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let atom_to_string s = if needs_quoting s then escape s else s

let rec to_string = function
  | Atom s -> atom_to_string s
  | List items -> "(" ^ String.concat " " (List.map to_string items) ^ ")"

let to_string_hum t =
  let buf = Buffer.create 1024 in
  let rec go indent t =
    match t with
    | Atom s -> Buffer.add_string buf (atom_to_string s)
    | List items ->
      let flat = to_string t in
      if String.length flat + indent <= 100 then Buffer.add_string buf flat
      else begin
        Buffer.add_char buf '(';
        List.iteri
          (fun i item ->
            if i > 0 then begin
              Buffer.add_char buf '\n';
              Buffer.add_string buf (String.make (indent + 1) ' ')
            end;
            go (indent + 1) item)
          items;
        Buffer.add_char buf ')'
      end
  in
  go 0 t;
  Buffer.contents buf

exception Parse_error of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\n' | '\t' | '\r' ->
        incr pos;
        skip_ws ()
      | ';' ->
        (* comment to end of line *)
        while !pos < n && s.[!pos] <> '\n' do
          incr pos
        done;
        skip_ws ()
      | _ -> ()
  in
  let parse_quoted () =
    incr pos;
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          if !pos + 1 >= n then fail "dangling escape";
          Buffer.add_char buf s.[!pos + 1];
          pos := !pos + 2;
          go ()
        | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ();
    Atom (Buffer.contents buf)
  in
  let parse_bare () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | ' ' | '\n' | '\t' | '\r' | '(' | ')' | '"' -> false
      | _ -> true
    do
      incr pos
    done;
    Atom (String.sub s start (!pos - start))
  in
  let rec parse_one () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input"
    else
      match s.[!pos] with
      | '(' ->
        incr pos;
        let items = ref [] in
        let rec loop () =
          skip_ws ();
          if !pos >= n then fail "unterminated list"
          else if s.[!pos] = ')' then incr pos
          else begin
            items := parse_one () :: !items;
            loop ()
          end
        in
        loop ();
        List (List.rev !items)
      | ')' -> fail "unexpected )"
      | '"' -> parse_quoted ()
      | _ -> parse_bare ()
  in
  match parse_one () with
  | t ->
    skip_ws ();
    if !pos <> n then failwith (Printf.sprintf "Sexp: trailing input at %d" !pos);
    t
  | exception Parse_error (p, msg) -> failwith (Printf.sprintf "Sexp: %s at %d" msg p)

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string_hum t);
      output_char oc '\n')

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (In_channel.input_all ic))

let atom s = Atom s
let int i = Atom (string_of_int i)

let float x =
  (* %h round-trips doubles exactly and stays compact *)
  Atom (Printf.sprintf "%h" x)

let list items = List items

let as_atom = function
  | Atom s -> s
  | List _ -> failwith "Sexp.as_atom: got a list"

let as_int t =
  match int_of_string_opt (as_atom t) with
  | Some i -> i
  | None -> failwith "Sexp.as_int: atom is not an integer"

let as_float t =
  match float_of_string_opt (as_atom t) with
  | Some x -> x
  | None -> failwith "Sexp.as_float: atom is not a float"

let as_list = function
  | List items -> items
  | Atom _ -> failwith "Sexp.as_list: expected a list, got an atom"

let field t name =
  match t with
  | List items -> (
    match
      List.find_opt
        (function List (Atom tag :: _) -> tag = name | _ -> false)
        items
    with
    | Some f -> f
    | None -> failwith ("Sexp.field: missing " ^ name))
  | Atom _ -> failwith "Sexp.field: not a list"

let field_values t name =
  match field t name with
  | List (_ :: rest) -> rest
  | _ -> failwith ("Sexp.field_values: malformed " ^ name)
