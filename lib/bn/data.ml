open Selest_db
open Selest_prob

type t = {
  names : string array;
  cards : int array;
  ordinal : bool array;
  cols : int array array;
  weights : float array option;
  n : int;
}

let create ~names ~cards ?ordinal ?weights cols =
  let k = Array.length names in
  if Array.length cards <> k || Array.length cols <> k then
    invalid_arg "Data.create: names/cards/cols length mismatch";
  let ordinal = match ordinal with Some o -> o | None -> Array.make k false in
  if Array.length ordinal <> k then invalid_arg "Data.create: ordinal length mismatch";
  let n = if k = 0 then 0 else Array.length cols.(0) in
  Array.iter (fun c -> if Array.length c <> n then invalid_arg "Data.create: ragged columns") cols;
  (match weights with
  | Some w when Array.length w <> n -> invalid_arg "Data.create: weights length mismatch"
  | _ -> ());
  Array.iteri
    (fun i col ->
      Array.iter
        (fun v ->
          if v < 0 || v >= cards.(i) then
            invalid_arg (Printf.sprintf "Data.create: %s value %d out of range" names.(i) v))
        col)
    cols;
  { names; cards; ordinal; cols; weights; n }

let of_table tbl =
  let ts = Table.schema tbl in
  let names = Array.map (fun a -> a.Schema.aname) ts.Schema.attrs in
  let cards = Table.cards tbl in
  let ordinal = Array.map (fun a -> Value.is_ordinal a.Schema.domain) ts.Schema.attrs in
  let cols = Array.init (Array.length names) (fun i -> Table.col tbl i) in
  { names; cards; ordinal; cols; weights = None; n = Table.size tbl }

let n_vars t = Array.length t.names

let total_weight t =
  match t.weights with
  | None -> float_of_int t.n
  | Some w -> Selest_util.Arrayx.sum w

let weight t r = match t.weights with None -> 1.0 | Some w -> w.(r)

let contingency t vars =
  let cards = Array.map (fun v -> t.cards.(v)) vars in
  let cols = Array.map (fun v -> t.cols.(v)) vars in
  match t.weights with
  | None -> Contingency.count ~cards cols
  | Some weights -> Contingency.count_weighted ~cards ~weights cols
