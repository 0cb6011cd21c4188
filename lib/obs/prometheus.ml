type metric =
  | Counter of {
      name : string;
      help : string;
      labels : (string * string) list;
      value : float;
    }
  | Gauge of {
      name : string;
      help : string;
      labels : (string * string) list;
      value : float;
    }
  | Histogram of {
      name : string;
      help : string;
      labels : (string * string) list;
      buckets : (float * int) array;
      sum : float;
      count : int;
    }

let sanitize name =
  let b = Buffer.create (String.length name) in
  String.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> Buffer.add_char b c
      | '0' .. '9' -> if i = 0 then Buffer.add_char b '_'; Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let name_of = function
  | Counter { name; _ } | Gauge { name; _ } | Histogram { name; _ } -> name

let kind_of = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let help_of = function
  | Counter { help; _ } | Gauge { help; _ } | Histogram { help; _ } -> help

(* Prometheus floats: integral values render without a fraction, +Inf as
   the literal the format specifies. *)
let fmt_value v =
  if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_nan v then "NaN"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let escape_label_value s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let render_labels = function
  | [] -> ""
  | labels ->
    let pairs =
      List.map
        (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
        labels
    in
    "{" ^ String.concat "," pairs ^ "}"

let render_sample b name labels value =
  Buffer.add_string b name;
  Buffer.add_string b (render_labels labels);
  Buffer.add_char b ' ';
  Buffer.add_string b (fmt_value value);
  Buffer.add_char b '\n'

let header ~name ~help ~kind =
  (if help = "" then "" else Printf.sprintf "# HELP %s %s\n" name help)
  ^ Printf.sprintf "# TYPE %s %s\n" name kind

let render metrics =
  let b = Buffer.create 1024 in
  let last : (string * string) option ref = ref None in
  List.iter
    (fun m ->
      let name = name_of m and kind = kind_of m in
      (match !last with
      | Some (n, k) when n = name ->
        if k <> kind then
          invalid_arg
            (Printf.sprintf "Prometheus.render: %s declared as %s and %s" name
               k kind)
      | _ ->
        Buffer.add_string b (header ~name ~help:(help_of m) ~kind);
        last := Some (name, kind));
      match m with
      | Counter { labels; value; _ } | Gauge { labels; value; _ } ->
        render_sample b name labels value
      | Histogram { labels; buckets; sum; count; _ } ->
        let has_inf =
          Array.length buckets > 0
          && fst buckets.(Array.length buckets - 1) = Float.infinity
        in
        Array.iter
          (fun (le, cum) ->
            render_sample b (name ^ "_bucket")
              (labels @ [ ("le", fmt_value le) ])
              (float_of_int cum))
          buckets;
        if not has_inf then
          render_sample b (name ^ "_bucket")
            (labels @ [ ("le", "+Inf") ])
            (float_of_int count);
        render_sample b (name ^ "_sum") labels sum;
        render_sample b (name ^ "_count") labels (float_of_int count))
    metrics;
  Buffer.contents b

type sample = {
  sample_name : string;
  sample_labels : (string * string) list;
  sample_value : float;
}

let parse_value s =
  match String.lowercase_ascii s with
  | "+inf" | "inf" -> Float.infinity
  | "-inf" -> Float.neg_infinity
  | "nan" -> Float.nan
  | _ -> (
    match float_of_string_opt s with
    | Some v -> v
    | None -> failwith (Printf.sprintf "Prometheus.parse: bad value %S" s))

(* Parse [k="v",...}] starting after '{'; returns (labels, index past '}'). *)
let parse_labels line i0 =
  let n = String.length line in
  let rec loop acc i =
    if i < n && line.[i] = '}' then (List.rev acc, i + 1)
    else begin
      let eq = String.index_from line i '=' in
      let key = String.trim (String.sub line i (eq - i)) in
      if eq + 1 >= n || line.[eq + 1] <> '"' then
        failwith "Prometheus.parse: unquoted label value";
      let b = Buffer.create 16 in
      let rec value j =
        if j >= n then failwith "Prometheus.parse: unterminated label value"
        else
          match line.[j] with
          | '\\' when j + 1 < n ->
            (match line.[j + 1] with
            | 'n' -> Buffer.add_char b '\n'
            | c -> Buffer.add_char b c);
            value (j + 2)
          | '"' -> j + 1
          | c ->
            Buffer.add_char b c;
            value (j + 1)
      in
      let after = value (eq + 2) in
      let acc = (key, Buffer.contents b) :: acc in
      if after < n && line.[after] = ',' then loop acc (after + 1)
      else if after < n && line.[after] = '}' then (List.rev acc, after + 1)
      else failwith "Prometheus.parse: malformed label set"
    end
  in
  loop [] i0

let parse text =
  let types = ref [] and samples = ref [] in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         let line = String.trim line in
         if line = "" then ()
         else if String.length line > 0 && line.[0] = '#' then begin
           match String.split_on_char ' ' line with
           | "#" :: "TYPE" :: name :: kind :: _ ->
             types := (name, kind) :: !types
           | _ -> ()
         end
         else begin
           let brace = String.index_opt line '{' in
           let name, labels, rest_i =
             match brace with
             | Some i ->
               let labels, after = parse_labels line (i + 1) in
               (String.sub line 0 i, labels, after)
             | None -> (
               match String.index_opt line ' ' with
               | Some i -> (String.sub line 0 i, [], i)
               | None -> failwith "Prometheus.parse: sample without value")
           in
           let rest =
             String.trim
               (String.sub line rest_i (String.length line - rest_i))
           in
           let value =
             match String.split_on_char ' ' rest with
             | v :: _ -> parse_value v
             | [] -> failwith "Prometheus.parse: sample without value"
           in
           samples :=
             { sample_name = name; sample_labels = labels;
               sample_value = value }
             :: !samples
         end);
  (List.rev !types, List.rev !samples)

let find_sample samples ~name ?(labels = []) () =
  List.find_map
    (fun s ->
      if
        s.sample_name = name
        && List.for_all
             (fun (k, v) -> List.assoc_opt k s.sample_labels = Some v)
             labels
      then Some s.sample_value
      else None)
    samples
