open Selest_util
open Selest_prob

type outcome = {
  estimator : string;
  bytes : int;
  avg_error : float;
  median_error : float;
  p90_error : float;
  n_queries : int;
  n_unsupported : int;
  qerror : Selest_obs.Qerror.summary;
}

let selected_cells db suite ?max_queries ?(seed = 0) () =
  let total = Suite.n_queries db suite in
  match max_queries with
  | Some m when m < total ->
    let rng = Rng.create (seed lxor 0xCE11) in
    Rng.sample_without_replacement rng m total
  | _ -> Array.init total (fun i -> i)

let decode cards cell =
  let d = Array.length cards in
  let values = Array.make d 0 in
  let rem = ref cell in
  for i = d - 1 downto 0 do
    values.(i) <- !rem mod cards.(i);
    rem := !rem / cards.(i)
  done;
  values

let evaluate db suite est ?max_queries ?seed () =
  let truth_table = Suite.ground_truth db suite in
  let cards = Suite.cards db suite in
  let cells = selected_cells db suite ?max_queries ?seed () in
  (* All of a suite's instantiations share one skeleton: let the
     estimator pay its per-skeleton work (a PRM's plan compile) once,
     outside the per-query loop. *)
  if Array.length cells > 0 then
    est.Selest_est.Estimator.prepare
      (Suite.query_of_cell suite (decode cards cells.(0)));
  let pairs = ref [] in
  let unsupported = ref 0 in
  Array.iter
    (fun cell ->
      let values = decode cards cell in
      let truth = Contingency.get truth_table values in
      let q = Suite.query_of_cell suite values in
      match est.Selest_est.Estimator.estimate q with
      | estimate -> pairs := (truth, estimate) :: !pairs
      | exception Selest_est.Estimator.Unsupported _ -> incr unsupported)
    cells;
  (List.rev !pairs, !unsupported)

let run db suite est ?max_queries ?seed () =
  let pairs, n_unsupported = evaluate db suite est ?max_queries ?seed () in
  let errors =
    Array.of_list
      (List.map
         (fun (truth, estimate) -> Selest_est.Estimator.adjusted_relative_error ~truth ~estimate)
         pairs)
  in
  {
    estimator = est.Selest_est.Estimator.name;
    bytes = est.Selest_est.Estimator.bytes;
    avg_error = Arrayx.mean errors;
    median_error = Arrayx.median errors;
    p90_error = Arrayx.percentile errors 90.0;
    n_queries = Array.length errors;
    n_unsupported;
    qerror = Selest_obs.Qerror.(summarize (of_pairs pairs));
  }

let run_all db suite ests ?max_queries ?seed () =
  List.map (fun est -> run db suite est ?max_queries ?seed ()) ests

let per_query db suite est ?max_queries ?seed () =
  fst (evaluate db suite est ?max_queries ?seed ())
