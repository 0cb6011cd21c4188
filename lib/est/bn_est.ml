open Selest_db
open Selest_bn
module Model = Selest_prm.Model
module Estimate = Selest_plan.Estimate

let name_for = function Cpd.Trees -> "PRM(tree)" | Cpd.Tables -> "PRM(table)"

let model_of_bn ~table attrs bn =
  let ts =
    Schema.table_schema ~name:table
      ~attrs:(List.map (fun a -> (a.Schema.aname, a.Schema.domain)) attrs)
      ()
  in
  let family cpd =
    { Model.parents = Array.map (fun p -> Model.Own p) (Cpd.parents cpd); cpd }
  in
  Model.create (Schema.create [ ts ])
    [| { Model.attr_families = Array.map family bn.Bn.cpds; join_families = [||] } |]

let build ~table ?attrs ~budget_bytes ?(kind = Cpd.Trees) ?(rule = Learn.Ssn) ?(seed = 0) db =
  let tbl = Database.table db table in
  let ts = Table.schema tbl in
  let attr_names =
    match attrs with
    | Some l -> l
    | None -> Array.to_list (Array.map (fun a -> a.Schema.aname) ts.Schema.attrs)
  in
  let data =
    (* Restrict to the modelled attribute subset. *)
    let all = Data.of_table tbl in
    let pick a = Array.of_list (List.map (fun n -> a.(Schema.attr_index ts n)) attr_names) in
    Data.create ~names:(pick all.Data.names) ~cards:(pick all.Data.cards)
      ~ordinal:(pick all.Data.ordinal) (pick all.Data.cols)
  in
  let cfg = { (Learn.default_config ~budget_bytes) with Learn.kind; rule; seed } in
  let result = Learn.learn ~config:cfg data in
  let model = model_of_bn ~table (List.map (Schema.attr ts) attr_names) result.Learn.bn in
  let prepare, estimate = Estimate.prepared_estimator model ~sizes:[| Table.size tbl |] in
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
