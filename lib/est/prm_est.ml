open Selest_prm
module Estimate = Selest_plan.Estimate

let of_model ~name model ~sizes =
  let prepare, estimate = Estimate.prepared_estimator model ~sizes in
  { Estimator.name; bytes = Model.size_bytes model; prepare; estimate }

let build_with ~name cfg db =
  let result = Learn.learn ~config:cfg db in
  let sizes = Estimate.sizes_of_db db in
  let prepare, estimate = Estimate.prepared_estimator result.Learn.model ~sizes in
  { Estimator.name; bytes = result.Learn.bytes; prepare; estimate }

let build ~budget_bytes ?(kind = Selest_bn.Cpd.Trees) ?(rule = Learn.Ssn)
    ?(seed = 0) db =
  let cfg = { (Learn.default_config ~budget_bytes) with Learn.kind; rule; seed } in
  build_with ~name:"PRM" cfg db

let build_bn_uj ~budget_bytes ?(kind = Selest_bn.Cpd.Trees) ?(rule = Learn.Ssn)
    ?(seed = 0) db =
  let cfg = { (Learn.bn_uj_config ~budget_bytes) with Learn.kind; rule; seed } in
  build_with ~name:"BN+UJ" cfg db
