module Util = Selest_util
module Obs = Selest_obs
module Prob = Selest_prob
module Db = Selest_db
module Synth = Selest_synth
module Bn = Selest_bn

module Prm = struct
  include Selest_prm
  module Estimate = Selest_plan.Estimate
end

module Plan = Selest_plan.Plan
module Est = Selest_est
module Opt = Selest_opt
module Workload = Selest_workload
module Serve = Selest_serve

let learn_bn ?(budget_bytes = 8192) ?(kind = Selest_bn.Cpd.Trees)
    ?(rule = Selest_prm.Learn.Ssn) ?(seed = 0) table =
  let ts = Selest_db.Table.schema table in
  let columns =
    List.mapi (fun i a -> (a, Selest_db.Table.col table i)) (Array.to_list ts.attrs)
  in
  let config = { (Selest_prm.Learn.bn_config ~budget_bytes) with kind; rule; seed } in
  (Selest_est.Bn_est.learn ~table:ts.tname columns ~config).model

let learn_prm ?(budget_bytes = 8192) ?(seed = 0) db =
  Selest_prm.Learn.learn_prm ~budget_bytes ~seed db

let estimate model db q =
  Selest_plan.Estimate.estimate model
    ~sizes:(Selest_plan.Estimate.sizes_of_db db) q

let prm_estimator ~budget_bytes ?(seed = 0) db =
  Selest_est.Prm_est.build ~budget_bytes ~seed db

let true_size db q = Selest_db.Exec.query_size db q
