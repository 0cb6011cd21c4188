open Selest_util
open Selest_db
open Selest_bn
module Learn = Selest_prm.Learn
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
  (* The bucket-level columns the BN is learned over; a bucketized
     attribute keeps its ordinal flag, which decides its tree splits. *)
  let columns =
    List.init n_attrs (fun ai ->
        let a = ts.Schema.attrs.(ai) in
        match disc.(ai) with
        | Some d ->
          let ordinal = Value.is_ordinal a.Schema.domain in
          ( { a with
              Schema.domain =
                Value.labeled ~ordinal (Array.init d.Discretize.n_bins string_of_int) },
            Discretize.apply d (Table.col tbl ai) )
        | None -> (a, Table.col tbl ai))
  in
  let result =
    Bn_est.learn ~table columns
      ~config:{ (Learn.bn_config ~budget_bytes) with Learn.kind; seed }
  in
  let boundary_bytes =
    Array.fold_left
      (fun acc d -> match d with Some d -> acc + Bytesize.values d.Discretize.n_bins | None -> acc)
      0 disc
  in
  let prepare, estimate =
    Estimate.prepared_estimator result.Learn.model ~sizes:[| Table.size tbl |]
  in
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
  (* A query as its bucketized attributes (with their coverages) and the
     bucket-level query of one cell: the plain selects stay evidence, and
     each bucketized attribute's selects become one equality on its
     bucket.  Every cell has the same skeleton, so one plan. *)
  let split q =
    Exec.validate db q;
    let tv =
      match (q.Query.tvars, q.Query.joins) with
      | [ (tv, t) ], [] when t = table -> tv
      | _ -> raise (Estimator.Unsupported "discretized estimator: single table, no joins")
    in
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
    let keys =
      List.filter_map (fun ai -> Option.map (fun c -> (ai, c)) cov.(ai)) (List.init n_attrs Fun.id)
    in
    let cell_query cell =
      Query.with_selects q
        (plain @ List.mapi (fun j (ai, _) -> Query.eq tv ts.Schema.attrs.(ai).Schema.aname cell.(j)) keys)
    in
    (keys, cell_query)
  in
  (* Σ over bucket cells of the cell's estimate × Π coverage, cells in
     row-major order of the keys.  A cell with a zero coverage adds
     exactly 0.0 to the sum (estimates are finite), so it is not
     estimated at all. *)
  let estimate q =
    let keys, cell_query = split q in
    let keys = Array.of_list keys in
    let cell = Array.make (Array.length keys) 0 in
    let acc = ref 0.0 in
    let rec go j =
      if j = Array.length keys then begin
        let w = ref (estimate (cell_query cell)) in
        Array.iteri (fun j (_, c) -> w := !w *. c.(cell.(j))) keys;
        acc := !acc +. !w
      end
      else
        Array.iteri
          (fun b c ->
            if c > 0.0 then begin
              cell.(j) <- b;
              go (j + 1)
            end)
          (snd keys.(j))
    in
    go 0;
    !acc
  in
  {
    Estimator.name = "PRM(bucketized)";
    bytes = result.Learn.bytes + boundary_bytes;
    prepare =
      (fun q ->
        match split q with
        | keys, cell_query -> prepare (cell_query (Array.make (List.length keys) 0))
        | exception (Estimator.Unsupported _ | Invalid_argument _) -> ());
    estimate;
  }
