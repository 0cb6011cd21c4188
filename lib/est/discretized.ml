open Selest_util
open Selest_db
open Selest_bn
module Estimate = Selest_plan.Estimate

let build ~table ~bucketize ~budget_bytes ?(kind = Cpd.Trees) ?(seed = 0) db =
  let tbl = Database.table db table in
  let ts = Table.schema tbl in
  let n_attrs = Array.length ts.Schema.attrs in
  (* Per attribute: optional discretization. *)
  let disc =
    Array.init n_attrs (fun ai ->
        let a = ts.Schema.attrs.(ai) in
        match List.assoc_opt a.Schema.aname bucketize with
        | None -> None
        | Some bins ->
          Some
            (Discretize.equi_depth ~column:(Table.col tbl ai)
               ~card:(Value.card a.Schema.domain) ~bins))
  in
  (* The bucket-level attributes the BN is learned over. *)
  let attrs =
    Array.mapi
      (fun ai a ->
        match disc.(ai) with
        | Some d -> { a with Schema.domain = Value.ints d.Discretize.n_bins }
        | None -> a)
      ts.Schema.attrs
  in
  let cards = Array.map (fun a -> Value.card a.Schema.domain) attrs in
  let cols =
    Array.init n_attrs (fun ai ->
        match disc.(ai) with
        | Some d -> Discretize.apply d (Table.col tbl ai)
        | None -> Table.col tbl ai)
  in
  let names = Array.map (fun a -> a.Schema.aname) ts.Schema.attrs in
  let ordinal = Array.map (fun a -> Value.is_ordinal a.Schema.domain) ts.Schema.attrs in
  let data = Data.create ~names ~cards ~ordinal cols in
  let cfg = { (Learn.default_config ~budget_bytes) with Learn.kind; seed } in
  let result = Learn.learn ~config:cfg data in
  let boundary_bytes =
    Array.fold_left
      (fun acc d -> match d with Some d -> acc + Bytesize.values d.Discretize.n_bins | None -> acc)
      0 disc
  in
  let model = Bn_est.model_of_bn ~table (Array.to_list attrs) result.Learn.bn in
  (* Coverage of a predicate on a bucketized attribute: the fraction of
     each bucket's base-level values that satisfy it. *)
  let coverage (d : Discretize.t) pred =
    let cov = Array.make d.Discretize.n_bins 0.0 in
    Array.iteri
      (fun base_value bin ->
        if Query.pred_holds pred base_value then cov.(bin) <- cov.(bin) +. 1.0)
      d.Discretize.bin_of;
    Array.mapi (fun b c -> c /. float_of_int d.Discretize.width.(b)) cov
  in
  let estimate q =
    Exec.validate db q;
    let tv =
      match (q.Query.tvars, q.Query.joins) with
      | [ (tv, t) ], [] when t = table -> tv
      | _ -> raise (Estimator.Unsupported "discretized estimator: single table, no joins")
    in
    (* Plain selects stay evidence; a bucketized attribute's selects
       multiply into one coverage per bucket. *)
    let cov = Array.make n_attrs None in
    let plain =
      List.filter
        (fun s ->
          let ai = Schema.attr_index ts s.Query.sel_attr in
          match disc.(ai) with
          | None -> true
          | Some d ->
            let c = coverage d s.Query.pred in
            cov.(ai) <- Some (match cov.(ai) with None -> c | Some p -> Array.map2 ( *. ) p c);
            false)
        q.Query.selects
    in
    let keys = List.filter (fun ai -> cov.(ai) <> None) (List.init n_attrs Fun.id) in
    (* Σ over bucket cells of the cell's estimate × Π coverage. *)
    Estimate.group_counts model ~sizes:[| Table.size tbl |] (Query.with_selects q plain)
      ~keys:(List.map (fun ai -> (tv, names.(ai))) keys)
    |> List.fold_left
         (fun acc (cell, est) ->
           let w = ref est in
           List.iteri (fun j ai -> w := !w *. (Option.get cov.(ai)).(cell.(j))) keys;
           acc +. !w)
         0.0
  in
  {
    Estimator.name = "PRM(bucketized)";
    bytes = result.Learn.bytes + boundary_bytes;
    prepare = ignore;
    estimate;
  }
