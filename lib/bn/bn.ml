open Selest_util
open Selest_prob

type t = {
  names : string array;
  cards : int array;
  dag : Dag.t;
  cpds : Cpd.t array;
  mutable factor_memo : Factor.t list option;
      (* Converting tree CPDs to dense factors is linear in the factor
         size, so the conversion is done once per network, not per query. *)
}

let fit data ~dag ~kind =
  if Dag.n_nodes dag <> Data.n_vars data then
    invalid_arg "Bn.fit: dag/data variable count mismatch";
  let cpds =
    Array.init (Data.n_vars data) (fun v ->
        Cpd.fit kind data ~child:v ~parents:(Dag.parents dag v) ())
  in
  { names = data.Data.names; cards = data.Data.cards; dag; cpds; factor_memo = None }

let n_vars t = Array.length t.names

let joint_prob t assignment =
  if Array.length assignment <> n_vars t then invalid_arg "Bn.joint_prob: arity";
  let acc = ref 1.0 in
  Array.iteri
    (fun v cpd ->
      let parents = Cpd.parents cpd in
      let pvals = Array.map (fun p -> assignment.(p)) parents in
      acc := !acc *. (Cpd.dist cpd pvals).(assignment.(v)))
    t.cpds;
  !acc

let loglik t data =
  Arrayx.fold_lefti (fun acc v cpd -> acc +. Cpd.loglik cpd data ~child:v) 0.0 t.cpds

let factors t =
  match t.factor_memo with
  | Some fs -> fs
  | None ->
    let fs =
      Array.to_list
        (Array.mapi (fun v cpd -> Cpd.to_factor ~var_of:(fun x -> x) ~child:v cpd) t.cpds)
    in
    t.factor_memo <- Some fs;
    fs

let sample rng t =
  let order = Dag.topological_order t.dag in
  let out = Array.make (n_vars t) (-1) in
  Array.iter
    (fun v ->
      let cpd = t.cpds.(v) in
      let pvals = Array.map (fun p -> out.(p)) (Cpd.parents cpd) in
      out.(v) <- Rng.categorical rng (Cpd.dist cpd pvals))
    order;
  out
