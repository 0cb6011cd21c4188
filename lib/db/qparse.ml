let fail fmt = Printf.ksprintf failwith fmt

let split_once ~on s =
  match String.index_opt s on with
  | None -> None
  | Some i ->
    Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let parse_tvar spec =
  match split_once ~on:'=' (String.trim spec) with
  | Some (tv, table) -> (String.trim tv, String.trim table)
  | None ->
    let t = String.trim spec in
    (t, t)

let parse_join spec =
  (* "c.patient=p" *)
  match split_once ~on:'=' (String.trim spec) with
  | Some (lhs, parent) -> (
    match split_once ~on:'.' (String.trim lhs) with
    | Some (child, fk) ->
      Query.join ~child:(String.trim child) ~fk:(String.trim fk)
        ~parent:(String.trim parent)
    | None -> fail "join %S: expected child.fk=parent" spec)
  | None -> fail "join %S: expected child.fk=parent" spec

let value_code domain s =
  let s = String.trim s in
  match Value.code domain s with
  | v -> v
  | exception Not_found -> (
    match int_of_string_opt s with
    | Some v when v >= 0 && v < Value.card domain -> v
    | Some v -> fail "value %d out of domain [0,%d)" v (Value.card domain)
    | None -> fail "unknown value %S" s)

let parse_select_with db tvars spec =
  let spec = String.trim spec in
  match split_once ~on:'=' spec with
  | None -> fail "select %S: expected tv.attr=value" spec
  | Some (lhs, rhs) -> (
    match split_once ~on:'.' (String.trim lhs) with
    | None -> fail "select %S: expected tv.attr=value" spec
    | Some (tv, attr) ->
      let tv = String.trim tv and attr = String.trim attr in
      let table =
        match List.assoc_opt tv tvars with
        | Some t -> t
        | None -> fail "select %S: unknown tuple variable %s" spec tv
      in
      let ts = Table.schema (Database.table db table) in
      let domain =
        match Schema.attr ts attr with
        | a -> a.Schema.domain
        | exception Not_found -> fail "select %S: no attribute %s in %s" spec attr table
      in
      let rhs = String.trim rhs in
      let pred =
        if String.length rhs >= 2 && rhs.[0] = '{' && rhs.[String.length rhs - 1] = '}' then begin
          let inner = String.sub rhs 1 (String.length rhs - 2) in
          let values =
            List.map (value_code domain) (String.split_on_char ',' inner)
          in
          Query.In_set values
        end
        else
          match
            (* "lo..hi" range *)
            let rec find_dots i =
              if i + 1 >= String.length rhs then None
              else if rhs.[i] = '.' && rhs.[i + 1] = '.' then Some i
              else find_dots (i + 1)
            in
            find_dots 0
          with
          | Some i ->
            let lo = String.sub rhs 0 i in
            let hi = String.sub rhs (i + 2) (String.length rhs - i - 2) in
            Query.Range (value_code domain lo, value_code domain hi)
          | None -> Query.Eq (value_code domain rhs)
      in
      { Query.sel_tv = tv; sel_attr = attr; pred })

let parse db ~tvars ?(joins = []) ?(selects = []) () =
  let tvars = List.map parse_tvar tvars in
  let joins = List.map parse_join joins in
  let selects = List.map (parse_select_with db tvars) selects in
  let q = Query.create ~tvars ~joins ~selects () in
  (try Exec.validate db q with Invalid_argument m -> failwith m);
  q

