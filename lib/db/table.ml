type t = {
  schema : Schema.table_schema;
  n : int;
  cols : int array array;
  fk_cols : int array array;
}

let create schema ~cols ~fk_cols =
  let n_attrs = Array.length schema.Schema.attrs in
  let n_fks = Array.length schema.Schema.fks in
  if Array.length cols <> n_attrs then invalid_arg "Table.create: wrong number of attribute columns";
  if Array.length fk_cols <> n_fks then invalid_arg "Table.create: wrong number of fk columns";
  let n =
    if n_attrs > 0 then Array.length cols.(0)
    else if n_fks > 0 then Array.length fk_cols.(0)
    else 0
  in
  Array.iter (fun c -> if Array.length c <> n then invalid_arg "Table.create: ragged columns") cols;
  Array.iter (fun c -> if Array.length c <> n then invalid_arg "Table.create: ragged fk columns") fk_cols;
  Array.iteri
    (fun i c ->
      let card = Value.card schema.Schema.attrs.(i).Schema.domain in
      Array.iter
        (fun v ->
          if v < 0 || v >= card then
            invalid_arg
              (Printf.sprintf "Table.create: %s.%s value %d out of domain [0,%d)"
                 schema.Schema.tname schema.Schema.attrs.(i).Schema.aname v card))
        c)
    cols;
  { schema; n; cols; fk_cols }

let schema t = t.schema
let size t = t.n
let name t = t.schema.Schema.tname
let col t i = t.cols.(i)
let col_by_name t name = t.cols.(Schema.attr_index t.schema name)
let fk_col t i = t.fk_cols.(i)
let fk_col_by_name t name = t.fk_cols.(Schema.fk_index t.schema name)
let get t ~row ~attr = t.cols.(attr).(row)
let attr_card t i = Value.card t.schema.Schema.attrs.(i).Schema.domain
let cards t = Array.map (fun a -> Value.card a.Schema.domain) t.schema.Schema.attrs
let project t idxs = Array.map (fun i -> t.cols.(i)) idxs
