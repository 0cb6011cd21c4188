type request =
  | Ping
  | Load of { name : string; path : string }
  | Est of { model : string option; body : string }
  | Estbatch of { model : string option; bodies : string list }
  | Explain of { model : string option; body : string }
  | Explainplan of { model : string option; body : string }
  | Truth of { model : string option; truth : float; body : string }
  | Stats
  | Metrics
  | Health
  | Shards
  | Slowlog of { n : int option }
  | Shutdown

let split_first_word s =
  let s = String.trim s in
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i ->
    (String.sub s 0 i, String.trim (String.sub s (i + 1) (String.length s - i - 1)))

(* Split a batch body on "||" separators (no escaping: neither the query
   syntax nor canonical keys contain a pipe). *)
let split_batch s =
  let n = String.length s in
  let items = ref [] and start = ref 0 and i = ref 0 in
  while !i < n - 1 do
    if s.[!i] = '|' && s.[!i + 1] = '|' then begin
      items := String.sub s !start (!i - !start) :: !items;
      i := !i + 2;
      start := !i
    end
    else incr i
  done;
  items := String.sub s !start (n - !start) :: !items;
  List.rev_map String.trim !items

(* Shared [@model] prefix + body parsing for EST-shaped commands. *)
let parse_model_body ~cmd rest k =
  if rest = "" then Error (cmd ^ " expects a query body")
  else if rest.[0] = '@' then (
    let model, body = split_first_word rest in
    let model = String.sub model 1 (String.length model - 1) in
    if model = "" then Error (cmd ^ ": empty model name after @")
    else if body = "" then Error (cmd ^ " expects a query body after @model")
    else k (Some model) body)
  else k None rest

let parse_request line =
  let cmd, rest = split_first_word line in
  match String.uppercase_ascii cmd with
  | "" -> Error "empty request"
  | "PING" -> Ok Ping
  | "STATS" -> Ok Stats
  | "METRICS" -> Ok Metrics
  | "HEALTH" -> Ok Health
  | "SHARDS" -> Ok Shards
  | "SLOWLOG" ->
    if rest = "" then Ok (Slowlog { n = None })
    else (
      match int_of_string_opt rest with
      | Some n when n > 0 -> Ok (Slowlog { n = Some n })
      | _ -> Error "SLOWLOG expects: SLOWLOG [<count>]")
  | "SHUTDOWN" -> Ok Shutdown
  | "LOAD" -> (
    match String.split_on_char ' ' rest |> List.filter (fun s -> s <> "") with
    | [ name; path ] -> Ok (Load { name; path })
    | _ -> Error "LOAD expects: LOAD <name> <path>")
  | "EST" ->
    parse_model_body ~cmd:"EST" rest (fun model body ->
        Ok (Est { model; body }))
  | "EXPLAIN" ->
    parse_model_body ~cmd:"EXPLAIN" rest (fun model body ->
        Ok (Explain { model; body }))
  | "EXPLAINPLAN" ->
    parse_model_body ~cmd:"EXPLAINPLAN" rest (fun model body ->
        Ok (Explainplan { model; body }))
  | "TRUTH" ->
    parse_model_body ~cmd:"TRUTH" rest (fun model rest ->
        let truth_word, body = split_first_word rest in
        match float_of_string_opt truth_word with
        | None ->
          Error "TRUTH expects: TRUTH [@model] <true-size> <query body>"
        | Some truth ->
          if truth < 0.0 || not (Float.is_finite truth) then
            Error "TRUTH: true size must be a non-negative number"
          else if body = "" then Error "TRUTH expects a query body"
          else Ok (Truth { model; truth; body }))
  | "ESTBATCH" ->
    if rest = "" then Error "ESTBATCH expects one or more query bodies"
    else
      let model, batch =
        if rest.[0] = '@' then (
          let model, batch = split_first_word rest in
          (Some (String.sub model 1 (String.length model - 1)), batch))
        else (None, rest)
      in
      if model = Some "" then Error "ESTBATCH: empty model name after @"
      else if batch = "" then Error "ESTBATCH expects query bodies after @model"
      else
        let bodies = split_batch batch in
        if List.exists (fun b -> b = "") bodies then
          Error "ESTBATCH: empty query body in batch"
        else Ok (Estbatch { model; bodies })
  | other -> Error (Printf.sprintf "unknown command %S" other)

(* Split on commas at brace depth 0, so set predicates survive. *)
let split_top_commas s =
  let items = ref [] and buf = Buffer.create 16 and depth = ref 0 in
  let flush () =
    let item = String.trim (Buffer.contents buf) in
    Buffer.clear buf;
    if item <> "" then items := item :: !items
  in
  String.iter
    (fun c ->
      match c with
      | '{' ->
        incr depth;
        Buffer.add_char buf c
      | '}' ->
        decr depth;
        Buffer.add_char buf c
      | ',' when !depth = 0 -> flush ()
      | c -> Buffer.add_char buf c)
    s;
  flush ();
  List.rev !items

let split_sections body =
  let sections = String.split_on_char ';' body |> List.map split_top_commas in
  let tvars, joins, selects =
    match sections with
    | [ tvars ] -> (tvars, [], [])
    | [ tvars; joins ] -> (tvars, joins, [])
    | [ tvars; joins; selects ] -> (tvars, joins, selects)
    | _ -> failwith "EST: too many ';'-sections (expected tvars ; joins ; selects)"
  in
  if tvars = [] then failwith "EST: empty tuple-variable section";
  (tvars, joins, selects)

let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let ok payload = if payload = "" then "OK" else "OK " ^ one_line payload
let err msg = "ERR " ^ one_line msg

(* 503-style admission rejection: sent by an overloaded server instead
   of a normal response, immediately before it closes the connection.
   Distinct from ERR so clients can tell "retry later" from "your
   request is wrong". *)
let busy msg = if msg = "" then "BUSY" else "BUSY " ^ one_line msg
let pong = "PONG"

(* Multi-line framing (METRICS): a header line "OK lines=<k>" announces
   how many raw payload lines follow, so line-oriented clients know
   exactly how much to read. *)
let ok_multiline payload =
  let payload =
    let n = String.length payload in
    if n > 0 && payload.[n - 1] = '\n' then String.sub payload 0 (n - 1)
    else payload
  in
  if payload = "" then "OK lines=0"
  else
    let k = List.length (String.split_on_char '\n' payload) in
    Printf.sprintf "OK lines=%d\n%s" k payload

let extra_lines header =
  match String.split_on_char ' ' header with
  | [ "OK"; field ] -> (
    match String.index_opt field '=' with
    | Some i when String.sub field 0 i = "lines" -> (
      match
        int_of_string_opt
          (String.sub field (i + 1) (String.length field - i - 1))
      with
      | Some k when k >= 0 -> k
      | _ -> 0)
    | _ -> 0)
  | _ -> 0

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let is_ok s = s = "OK" || has_prefix ~prefix:"OK " s || s = pong
let is_err s = s = "ERR" || has_prefix ~prefix:"ERR " s
let is_busy s = s = "BUSY" || has_prefix ~prefix:"BUSY " s

let payload s =
  match String.index_opt s ' ' with
  | None -> ""
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)

let stats_field response key =
  let body = if is_ok response || is_err response then payload response else response in
  String.split_on_char ' ' body
  |> List.find_map (fun pair ->
         match String.index_opt pair '=' with
         | Some i when String.sub pair 0 i = key ->
           Some (String.sub pair (i + 1) (String.length pair - i - 1))
         | _ -> None)

(* ---- binary wire frames ---------------------------------------------------- *)

module Bin = struct
  let hello = "BIN"
  let hello_ok = "OK bin"
  let max_frame = 1 lsl 24 (* 16 MiB — far above any legitimate batch *)

  type brequest =
    | Best of { model : string option; body : string }
    | Bestbatch of { model : string option; bodies : string list }

  type bresponse =
    | Bvalue of float
    | Bvalues of float list
    | Berr of string

  let op_est = 1
  let op_estbatch = 2
  let op_value = 0
  let op_values = 1
  let op_err = 2

  let model_string = function None -> "" | Some m -> m
  let model_of_string = function "" -> None | m -> Some m

  (* Every encoder emits the complete frame: a u32 big-endian payload
     length followed by the payload. *)
  let frame payload_of =
    let body = Buffer.create 64 in
    payload_of body;
    let len = Buffer.length body in
    if len > max_frame then invalid_arg "Protocol.Bin: frame too large";
    let out = Buffer.create (len + 4) in
    Buffer.add_int32_be out (Int32.of_int len);
    Buffer.add_buffer out body;
    Buffer.contents out

  let add_model buf model =
    let m = model_string model in
    if String.length m > 0xffff then invalid_arg "Protocol.Bin: model name too long";
    Buffer.add_uint16_be buf (String.length m);
    Buffer.add_string buf m

  let encode_request = function
    | Best { model; body } ->
      frame (fun buf ->
          Buffer.add_uint8 buf op_est;
          add_model buf model;
          Buffer.add_string buf body)
    | Bestbatch { model; bodies } ->
      if List.length bodies > 0xffff then
        invalid_arg "Protocol.Bin: too many batch bodies";
      frame (fun buf ->
          Buffer.add_uint8 buf op_estbatch;
          add_model buf model;
          Buffer.add_uint16_be buf (List.length bodies);
          List.iter
            (fun b ->
              Buffer.add_int32_be buf (Int32.of_int (String.length b));
              Buffer.add_string buf b)
            bodies)

  (* The one frame a warm hit writes, built as its 13 bytes. *)
  let value_frame v =
    let b = Bytes.create 13 in
    Bytes.set_int32_be b 0 9l;
    Bytes.set_uint8 b 4 op_value;
    Bytes.set_int64_be b 5 (Int64.bits_of_float v);
    Bytes.unsafe_to_string b

  let encode_response = function
    | Bvalue v -> value_frame v
    | Bvalues vs ->
      if List.length vs > 0xffff then
        invalid_arg "Protocol.Bin: too many batch values";
      frame (fun buf ->
          Buffer.add_uint8 buf op_values;
          Buffer.add_uint16_be buf (List.length vs);
          List.iter (fun v -> Buffer.add_int64_be buf (Int64.bits_of_float v)) vs)
    | Berr msg ->
      frame (fun buf ->
          Buffer.add_uint8 buf op_err;
          Buffer.add_string buf msg)

  (* Decoders are total: every read is bounds-checked, so truncated or
     garbage payloads come back as [Error] — never an exception.  The
     payload is the frame body, length prefix already stripped. *)

  let read_u16 b off =
    if off + 2 <= Bytes.length b then Some (Bytes.get_uint16_be b off) else None

  let read_u32 b off =
    if off + 4 <= Bytes.length b then
      Some (Int32.to_int (Bytes.get_int32_be b off) land 0xffffffff)
    else None

  let decode_request b =
    let n = Bytes.length b in
    if n < 1 then Error "bin: empty request frame"
    else
      let op = Bytes.get_uint8 b 0 in
      match read_u16 b 1 with
      | None -> Error "bin: truncated model length"
      | Some mlen ->
        if 3 + mlen > n then Error "bin: truncated model name"
        else
          let model = model_of_string (Bytes.sub_string b 3 mlen) in
          let off = 3 + mlen in
          if op = op_est then Ok (Best { model; body = Bytes.sub_string b off (n - off) })
          else if op = op_estbatch then (
            match read_u16 b off with
            | None -> Error "bin: truncated body count"
            | Some count ->
              let rec bodies acc off k =
                if k = 0 then
                  if off = n then Ok (List.rev acc)
                  else Error "bin: trailing bytes after batch bodies"
                else
                  match read_u32 b off with
                  | None -> Error "bin: truncated body length"
                  | Some blen ->
                    if blen > n - (off + 4) then Error "bin: truncated body"
                    else
                      bodies
                        (Bytes.sub_string b (off + 4) blen :: acc)
                        (off + 4 + blen) (k - 1)
              in
              match bodies [] (off + 2) count with
              | Ok bodies -> Ok (Bestbatch { model; bodies })
              | Error _ as e -> e)
          else Error (Printf.sprintf "bin: unknown request opcode %d" op)

  let decode_response b =
    let n = Bytes.length b in
    if n < 1 then Error "bin: empty response frame"
    else
      let op = Bytes.get_uint8 b 0 in
      if op = op_value then
        if n <> 9 then Error "bin: bad value frame length"
        else Ok (Bvalue (Int64.float_of_bits (Bytes.get_int64_be b 1)))
      else if op = op_values then (
        match read_u16 b 1 with
        | None -> Error "bin: truncated value count"
        | Some count ->
          if n <> 3 + (8 * count) then Error "bin: bad values frame length"
          else
            let rec values acc k =
              if k < 0 then acc
              else values (Int64.float_of_bits (Bytes.get_int64_be b (3 + (8 * k))) :: acc) (k - 1)
            in
            Ok (Bvalues (values [] (count - 1))))
      else if op = op_err then Ok (Berr (Bytes.sub_string b 1 (n - 1)))
      else Error (Printf.sprintf "bin: unknown response opcode %d" op)

  (* Channel framing.  [read_frame] distinguishes a clean EOF (no more
     frames) from an oversized/negative length announcement, which is
     unrecoverable — the stream can no longer be resynchronized. *)
  let read_frame ic =
    match really_input_string ic 4 with
    | exception End_of_file -> `Eof
    | hdr ->
      let len = Int32.to_int (String.get_int32_be hdr 0) land 0xffffffff in
      if len > max_frame then `Oversized len
      else (
        match really_input_string ic len with
        | exception End_of_file -> `Eof
        | payload -> `Frame (Bytes.of_string payload))

  let write_frame oc encoded =
    output_string oc encoded;
    flush oc
end

(* ---- zero-copy request recognition ---------------------------------------- *)

(* Slice recognizers for the allocation-free front-end.  Each fills a
   reusable scratch record with (offset, length) slices into the
   caller's buffer instead of materializing strings.  They recognize a
   strict subset of what [parse_request] / [Bin.decode_request] accept
   — exact uppercase "EST", well-formed [@model], non-empty body — and
   answer [false] for everything else, so a caller can always fall back
   to the allocating reference parsers and get identical behavior
   (including error messages) on the cold path. *)
module Slice = struct
  type t = {
    mutable model_off : int;
    mutable model_len : int;  (* 0 = default model *)
    mutable body_off : int;
    mutable body_len : int;
  }

  let create () = { model_off = 0; model_len = 0; body_off = 0; body_len = 0 }

  (* The whitespace set [String.trim] strips — the reference parser
     trims the line, the model/body split, and the body with it. *)
  let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'

  let est_line sl buf ~off ~len =
    let stop = off + len in
    let i = ref off in
    while !i < stop && is_ws (Bytes.unsafe_get buf !i) do incr i done;
    let i0 = !i in
    (* The reference splits the command word at ' ' only, so anything
       but "EST " here is some other (or malformed) command. *)
    if
      i0 + 4 > stop
      || Bytes.unsafe_get buf i0 <> 'E'
      || Bytes.unsafe_get buf (i0 + 1) <> 'S'
      || Bytes.unsafe_get buf (i0 + 2) <> 'T'
      || Bytes.unsafe_get buf (i0 + 3) <> ' '
    then false
    else begin
      let j = ref (i0 + 4) in
      while !j < stop && is_ws (Bytes.unsafe_get buf !j) do incr j done;
      let ok_model =
        if !j < stop && Bytes.unsafe_get buf !j = '@' then begin
          (* Model token runs to the first ' ' (reference semantics);
             a bare '@' is an error the slow path reports. *)
          let m0 = !j + 1 in
          let k = ref m0 in
          while !k < stop && Bytes.unsafe_get buf !k <> ' ' do incr k done;
          sl.model_off <- m0;
          sl.model_len <- !k - m0;
          j := !k;
          while !j < stop && is_ws (Bytes.unsafe_get buf !j) do incr j done;
          sl.model_len > 0
        end
        else begin
          sl.model_off <- 0;
          sl.model_len <- 0;
          true
        end
      in
      ok_model
      && !j < stop
      &&
      let e = ref stop in
      while !e > !j && is_ws (Bytes.unsafe_get buf (!e - 1)) do decr e done;
      sl.body_off <- !j;
      sl.body_len <- !e - !j;
      sl.body_len > 0
    end

  let bin_est sl buf ~off ~len =
    len >= 3
    && Bytes.get_uint8 buf off = Bin.op_est
    &&
    let mlen = Bytes.get_uint16_be buf (off + 1) in
    3 + mlen <= len
    &&
    begin
      sl.model_off <- off + 3;
      sl.model_len <- mlen;
      sl.body_off <- off + 3 + mlen;
      sl.body_len <- len - 3 - mlen;
      sl.body_len > 0
    end
end
