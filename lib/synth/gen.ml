open Selest_util

let normal_bucket rng ~mean ~sd ~card =
  (* Box–Muller; one draw per call is fine for generator workloads. *)
  let u1 = Float.max 1e-12 (Rng.float rng) in
  let u2 = Rng.float rng in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  let x = mean +. (sd *. z) in
  let v = int_of_float (Float.round x) in
  if v < 0 then 0 else if v >= card then card - 1 else v

let weights pairs ~card =
  let a = Array.make card 0.0 in
  List.iter
    (fun (i, w) ->
      if i < 0 || i >= card then invalid_arg "Gen.weights: index out of range";
      a.(i) <- a.(i) +. w)
    pairs;
  a

let zipf n s = Array.init n (fun k -> 1.0 /. Float.pow (float_of_int (k + 1)) s)

let assign_children rng ~parent_count ~total ~weight =
  let cdf = Rng.cdf (Array.init parent_count weight) in
  Array.init total (fun _ -> Rng.draw rng cdf)
