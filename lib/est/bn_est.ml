open Selest_db
open Selest_bn
module Learn = Selest_prm.Learn
module Estimate = Selest_plan.Estimate

let name_for = function Cpd.Trees -> "PRM(tree)" | Cpd.Tables -> "PRM(table)"

let learn ~table columns ~config =
  let ts =
    Schema.table_schema ~name:table
      ~attrs:(List.map (fun (a, _) -> (a.Schema.aname, a.Schema.domain)) columns)
      ()
  in
  let tbl = Table.create ts ~cols:(Array.of_list (List.map snd columns)) ~fk_cols:[||] in
  Learn.learn ~config (Database.create (Schema.create [ ts ]) [ tbl ])

let build ~table ?attrs ~budget_bytes ?(kind = Cpd.Trees) ?(rule = Learn.Ssn) ?(seed = 0) db =
  let tbl = Database.table db table in
  let ts = Table.schema tbl in
  let attr_names =
    match attrs with
    | Some l -> l
    | None -> Array.to_list (Array.map (fun a -> a.Schema.aname) ts.Schema.attrs)
  in
  let result =
    learn ~table
      (List.map (fun n -> (Schema.attr ts n, Table.col_by_name tbl n)) attr_names)
      ~config:{ (Learn.bn_config ~budget_bytes) with Learn.kind; rule; seed }
  in
  let prepare, estimate =
    Estimate.prepared_estimator result.Learn.model ~sizes:[| Table.size tbl |]
  in
  let check q =
    Exec.validate db q;
    (match (q.Query.tvars, q.Query.joins) with
    | [ (_, t) ], [] when t = table -> ()
    | _ ->
      raise (Estimator.Unsupported "single-table BN estimator: single table, no joins"));
    List.iter
      (fun s ->
        if not (List.mem s.Query.sel_attr attr_names) then
          raise
            (Estimator.Unsupported ("BN estimator does not model attribute " ^ s.Query.sel_attr)))
      q.Query.selects
  in
  {
    Estimator.name = name_for kind;
    bytes = result.Learn.bytes;
    (* a query [estimate] rejects is compiled by nothing: it raises there *)
    prepare =
      (fun q ->
        match check q with
        | () -> prepare q
        | exception (Estimator.Unsupported _ | Invalid_argument _) -> ());
    estimate = (fun q -> check q; estimate q);
  }
