open Selest_util

type t = float array

let uniform k =
  if k <= 0 then invalid_arg "Dist.uniform: domain must be non-empty";
  Array.make k (1.0 /. float_of_int k)

let of_weights w =
  if Array.length w = 0 then invalid_arg "Dist.of_weights: empty";
  Array.iter (fun x -> if x < 0.0 || Float.is_nan x then invalid_arg "Dist.of_weights: negative weight") w;
  Arrayx.normalize w

let of_counts ?(smoothing = 0.0) c =
  of_weights (Array.map (fun x -> x +. smoothing) c)

let point k v =
  if v < 0 || v >= k then invalid_arg "Dist.point";
  let a = Array.make k 0.0 in
  a.(v) <- 1.0;
  a

let arity = Array.length
let prob t v = t.(v)

let entropy t = -.Array.fold_left (fun acc p -> acc +. Arrayx.xlogx p) 0.0 t

let kl p q =
  if Array.length p <> Array.length q then invalid_arg "Dist.kl: arity mismatch";
  let acc = ref 0.0 in
  Array.iteri
    (fun i pi ->
      if pi > 0.0 then
        if q.(i) > 0.0 then acc := !acc +. (pi *. Arrayx.log2 (pi /. q.(i)))
        else acc := Float.infinity)
    p;
  !acc

let total_variation p q =
  if Array.length p <> Array.length q then invalid_arg "Dist.total_variation";
  let acc = ref 0.0 in
  Array.iteri (fun i pi -> acc := !acc +. abs_float (pi -. q.(i))) p;
  0.5 *. !acc

let sample rng t = Rng.categorical rng t

let equal ?(eps = 1e-9) p q =
  Array.length p = Array.length q
  && Array.for_all2 (fun a b -> Arrayx.float_equal ~eps a b) p q

let pp ppf t =
  Format.fprintf ppf "[%s]"
    (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%.4f") t)))
