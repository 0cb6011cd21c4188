open Selest_prob
open Selest_util

let check_float = Alcotest.(check (float 1e-9))

(* ---- Dist --------------------------------------------------------------- *)

let test_dist_uniform () =
  let d = Dist.uniform 4 in
  check_float "prob" 0.25 (Dist.prob d 2);
  Alcotest.(check int) "arity" 4 (Dist.arity d);
  Alcotest.check_raises "empty" (Invalid_argument "Dist.uniform: domain must be non-empty")
    (fun () -> ignore (Dist.uniform 0))

let test_dist_of_weights () =
  let d = Dist.of_weights [| 1.0; 3.0 |] in
  check_float "normalized" 0.75 (Dist.prob d 1);
  let z = Dist.of_weights [| 0.0; 0.0 |] in
  check_float "zero goes uniform" 0.5 (Dist.prob z 0)

let test_dist_of_counts_smoothing () =
  let d = Dist.of_counts ~smoothing:1.0 [| 0.0; 2.0 |] in
  check_float "laplace" 0.25 (Dist.prob d 0)

let test_dist_point () =
  let d = Dist.point 3 1 in
  check_float "mass" 1.0 (Dist.prob d 1);
  check_float "rest" 0.0 (Dist.prob d 0)

let test_dist_entropy () =
  check_float "uniform 2" 1.0 (Dist.entropy (Dist.uniform 2));
  check_float "point" 0.0 (Dist.entropy (Dist.point 5 2));
  check_float "uniform 8" 3.0 (Dist.entropy (Dist.uniform 8))

let test_dist_kl () =
  let p = Dist.of_weights [| 1.0; 1.0 |] in
  check_float "self" 0.0 (Dist.kl p p);
  let q = Dist.point 2 0 in
  Alcotest.(check bool) "absolute continuity" true (Dist.kl p q = Float.infinity);
  Alcotest.(check bool) "kl nonneg" true (Dist.kl q p >= 0.0)

let test_dist_tv () =
  let p = Dist.point 2 0 and q = Dist.point 2 1 in
  check_float "max distance" 1.0 (Dist.total_variation p q);
  check_float "self" 0.0 (Dist.total_variation p p)

(* ---- Factor ------------------------------------------------------------- *)

let f_ab =
  (* P-like table over vars 1 (card 2) and 3 (card 3), row-major with var 3
     fastest. *)
  Factor.create ~vars:[| 1; 3 |] ~cards:[| 2; 3 |]
    [| 0.1; 0.2; 0.3; 0.05; 0.15; 0.2 |]

let test_factor_create_validation () =
  Alcotest.check_raises "unsorted" (Invalid_argument "Factor: vars must be strictly increasing")
    (fun () -> ignore (Factor.create ~vars:[| 3; 1 |] ~cards:[| 2; 2 |] (Array.make 4 0.0)));
  Alcotest.check_raises "size" (Invalid_argument "Factor.create: data size mismatch")
    (fun () -> ignore (Factor.create ~vars:[| 0 |] ~cards:[| 3 |] (Array.make 4 0.0)))

let test_factor_get () =
  check_float "cell (0,2)" 0.3 (Factor.get f_ab [| 0; 2 |]);
  check_float "cell (1,0)" 0.05 (Factor.get f_ab [| 1; 0 |])

let test_factor_of_fun () =
  let f = Factor.of_fun ~vars:[| 0; 2 |] ~cards:[| 2; 2 |] (fun a -> float_of_int ((10 * a.(0)) + a.(1))) in
  check_float "tabulated" 11.0 (Factor.get f [| 1; 1 |]);
  check_float "tabulated2" 1.0 (Factor.get f [| 0; 1 |])

let test_factor_sum_out () =
  let m = Factor.Reference.sum_out f_ab 3 in
  Alcotest.(check (array int)) "scope" [| 1 |] (Factor.vars m);
  check_float "sum row 0" 0.6 (Factor.get m [| 0 |]);
  check_float "sum row 1" 0.4 (Factor.get m [| 1 |]);
  let noop = Factor.Reference.sum_out f_ab 99 in
  Alcotest.(check bool) "missing var is noop" true (Factor.equal noop f_ab)

let test_factor_restrict () =
  let r = Factor.Reference.restrict f_ab 1 1 in
  Alcotest.(check (array int)) "scope" [| 3 |] (Factor.vars r);
  check_float "slice" 0.15 (Factor.get r [| 1 |])

let test_factor_observe () =
  let o = Factor.Reference.observe f_ab 3 (fun v -> v >= 1) in
  check_float "zeroed" 0.0 (Factor.get o [| 0; 0 |]);
  check_float "kept" 0.2 (Factor.get o [| 0; 1 |]);
  check_float "total" (Factor.total f_ab -. 0.1 -. 0.05) (Factor.total o)

let test_factor_product_known () =
  let a = Factor.create ~vars:[| 0 |] ~cards:[| 2 |] [| 2.0; 3.0 |] in
  let b = Factor.create ~vars:[| 1 |] ~cards:[| 2 |] [| 5.0; 7.0 |] in
  let p = Factor.product a b in
  check_float "outer" 21.0 (Factor.get p [| 1; 1 |]);
  check_float "outer2" 10.0 (Factor.get p [| 0; 0 |]);
  (* overlapping scopes *)
  let c = Factor.create ~vars:[| 0; 1 |] ~cards:[| 2; 2 |] [| 1.0; 2.0; 3.0; 4.0 |] in
  let q = Factor.product c b in
  check_float "pointwise" (4.0 *. 7.0) (Factor.get q [| 1; 1 |]);
  check_float "pointwise2" (2.0 *. 7.0) (Factor.get q [| 0; 1 |])

let test_factor_product_card_mismatch () =
  let a = Factor.create ~vars:[| 0 |] ~cards:[| 2 |] [| 1.0; 1.0 |] in
  let b = Factor.create ~vars:[| 0 |] ~cards:[| 3 |] [| 1.0; 1.0; 1.0 |] in
  Alcotest.check_raises "mismatch" (Invalid_argument "Factor.product: cardinality disagreement")
    (fun () -> ignore (Factor.product a b))

let test_factor_marginal_normalize () =
  let m = Factor.Reference.sum_out f_ab 1 in
  Alcotest.(check (array int)) "kept" [| 3 |] (Factor.vars m);
  check_float "marginal total" (Factor.total f_ab) (Factor.total m)

(* qcheck: random small factors over a universe of 4 variables. *)
let universe_cards = [| 2; 3; 2; 4 |]

let gen_factor =
  let open QCheck2.Gen in
  let* mask = int_range 1 15 in
  let vars = List.filter (fun v -> mask land (1 lsl v) <> 0) [ 0; 1; 2; 3 ] in
  let vars = Array.of_list vars in
  let cards = Array.map (fun v -> universe_cards.(v)) vars in
  let size = Array.fold_left ( * ) 1 cards in
  let* data = array_size (pure size) (float_range 0.0 10.0) in
  pure (Factor.create ~vars ~cards data)

(* Brute-force evaluation over the full universe. *)
let full_eval f assignment =
  let vars = Factor.vars f in
  let local = Array.map (fun v -> assignment.(v)) vars in
  Factor.get f local

let all_assignments () =
  let out = ref [] in
  for a = 0 to universe_cards.(0) - 1 do
    for b = 0 to universe_cards.(1) - 1 do
      for c = 0 to universe_cards.(2) - 1 do
        for d = 0 to universe_cards.(3) - 1 do
          out := [| a; b; c; d |] :: !out
        done
      done
    done
  done;
  !out

(* Each cell of a product is one multiplication of its operands' cells,
   so it reproduces bit for bit. *)
let prop_product_pointwise =
  QCheck2.Test.make ~name:"product is pointwise multiplication" ~count:100
    QCheck2.Gen.(pair gen_factor gen_factor)
    (fun (f, g) ->
      let p = Factor.product f g in
      List.for_all
        (fun asg ->
          Int64.bits_of_float (full_eval p asg)
          = Int64.bits_of_float (full_eval f asg *. full_eval g asg))
        (all_assignments ()))

let prop_product_commutative =
  QCheck2.Test.make ~name:"product commutes" ~count:100
    QCheck2.Gen.(pair gen_factor gen_factor)
    (fun (f, g) -> Factor.equal ~eps:1e-6 (Factor.product f g) (Factor.product g f))

let prop_sum_out_order_independent =
  QCheck2.Test.make ~name:"sum_out order independent" ~count:100 gen_factor (fun f ->
      let vars = Factor.vars f in
      if Array.length vars < 2 then true
      else begin
        let a = vars.(0) and b = vars.(1) in
        let x = Factor.Reference.sum_out (Factor.Reference.sum_out f a) b in
        let y = Factor.Reference.sum_out (Factor.Reference.sum_out f b) a in
        Factor.equal ~eps:1e-6 x y
      end)

let prop_sum_out_preserves_total =
  QCheck2.Test.make ~name:"sum_out preserves total" ~count:100 gen_factor (fun f ->
      let vars = Factor.vars f in
      Array.for_all
        (fun v -> Arrayx.float_equal ~eps:1e-6 (Factor.total f) (Factor.total (Factor.Reference.sum_out f v)))
        vars)

let prop_restrict_sums_to_sum_out =
  QCheck2.Test.make ~name:"restricting over all values = sum_out" ~count:100 gen_factor
    (fun f ->
      let vars = Factor.vars f in
      if Array.length vars = 0 then true
      else begin
        let v = vars.(0) in
        let card = (Factor.cards f).(0) in
        let slices = List.init card (fun x -> Factor.Reference.restrict f v x) in
        let summed =
          List.fold_left
            (fun acc s ->
              match acc with
              | None -> Some s
              | Some t ->
                Some
                  (Factor.create ~vars:(Factor.vars t) ~cards:(Factor.cards t)
                     (Array.map2 ( +. ) (Factor.data t) (Factor.data s))))
            None slices
        in
        Factor.equal ~eps:1e-6 (Option.get summed) (Factor.Reference.sum_out f v)
      end)

(* ---- Contingency -------------------------------------------------------- *)

let test_contingency_count () =
  let cols = [| [| 0; 1; 0; 1; 1 |]; [| 2; 0; 2; 1; 0 |] |] in
  let c = Contingency.count ~cards:[| 2; 3 |] cols in
  check_float "total" 5.0 (Contingency.total c);
  check_float "cell (0,2)" 2.0 (Contingency.get c [| 0; 2 |]);
  check_float "cell (1,0)" 2.0 (Contingency.get c [| 1; 0 |]);
  check_float "empty cell" 0.0 (Contingency.get c [| 0; 0 |]);
  Alcotest.(check int) "nonzero cells" 3 (Contingency.n_nonzero c)

let test_contingency_masked () =
  let cols = [| [| 0; 1; 1 |] |] in
  let m = Contingency.count_masked ~cards:[| 2 |] ~mask:[| true; false; true |] cols in
  check_float "masked" 1.0 (Contingency.get m [| 1 |])

let test_contingency_marginal () =
  let cols = [| [| 0; 1; 0 |]; [| 1; 1; 0 |] |] in
  let c = Contingency.count ~cards:[| 2; 2 |] cols in
  let m = Contingency.marginal c [| 0 |] in
  check_float "marginal" 2.0 (Contingency.get m [| 0 |]);
  check_float "marginal total" 3.0 (Contingency.total m)

let test_contingency_to_factor () =
  let cols = [| [| 0; 1; 1 |]; [| 2; 2; 0 |] |] in
  let c = Contingency.count ~cards:[| 2; 3 |] cols in
  let f = Contingency.to_factor ~vars:[| 4; 7 |] c in
  check_float "factor cell" 1.0 (Factor.get f [| 1; 0 |]);
  check_float "factor cell2" 1.0 (Factor.get f [| 0; 2 |]);
  check_float "factor total" 3.0 (Factor.total f)

let test_contingency_iter () =
  let cols = [| [| 0; 0; 1 |] |] in
  let c = Contingency.count ~cards:[| 2 |] cols in
  let acc = ref 0.0 in
  Contingency.iter c (fun _ w -> acc := !acc +. w);
  check_float "iter covers all" 3.0 !acc

let test_contingency_sparse () =
  (* Joint domain too large for the dense representation. *)
  let card = 1 lsl 12 in
  let cols = [| [| 0; 1; 0 |]; [| 5; 6; 5 |]; [| 7; 8; 7 |] |] in
  let c = Contingency.count ~cards:[| card; card; card |] cols in
  check_float "sparse cell" 2.0 (Contingency.get c [| 0; 5; 7 |]);
  Alcotest.(check int) "sparse nonzero" 2 (Contingency.n_nonzero c)

(* ---- Info --------------------------------------------------------------- *)

let test_entropy_of_counts () =
  check_float "uniform" 1.0 (Info.entropy_of_counts [| 5.0; 5.0 |]);
  check_float "degenerate" 0.0 (Info.entropy_of_counts [| 10.0; 0.0 |])

let test_mi_independent () =
  (* X and Y independent by construction: all four combinations equal. *)
  let cols = [| [| 0; 0; 1; 1 |]; [| 0; 1; 0; 1 |] |] in
  let c = Contingency.count ~cards:[| 2; 2 |] cols in
  check_float "zero MI" 0.0 (Info.mutual_information c [| 0 |] [| 1 |])

let test_mi_determined () =
  (* Y = X: MI equals the entropy of X (1 bit). *)
  let cols = [| [| 0; 1; 0; 1 |]; [| 0; 1; 0; 1 |] |] in
  let c = Contingency.count ~cards:[| 2; 2 |] cols in
  check_float "full MI" 1.0 (Info.mutual_information c [| 0 |] [| 1 |])

let test_mi_symmetry () =
  let cols = [| [| 0; 1; 0; 1; 1 |]; [| 0; 1; 1; 1; 0 |] |] in
  let c = Contingency.count ~cards:[| 2; 2 |] cols in
  check_float "symmetric"
    (Info.mutual_information c [| 0 |] [| 1 |])
    (Info.mutual_information c [| 1 |] [| 0 |])

let test_conditional_entropy_and_loglik () =
  (* Child fully determined by parent: H(child | parent) = 0. *)
  let cols = [| [| 0; 0; 1; 1 |]; [| 1; 1; 0; 0 |] |] in
  let c = Contingency.count ~cards:[| 2; 2 |] cols in
  check_float "determined" 0.0 (Info.conditional_entropy c ~parent_dims:[| 0 |] ~child_dim:1);
  check_float "loglik" 0.0 (Info.loglik_of_counts c ~parent_dims:[| 0 |] ~child_dim:1);
  (* No parents: loglik = -N * H(child). *)
  check_float "marginal family" (-4.0)
    (Info.loglik_of_counts c ~parent_dims:[||] ~child_dim:1)

let prop_mi_nonnegative =
  QCheck2.Test.make ~name:"MI >= 0" ~count:200
    QCheck2.Gen.(array_size (pure 40) (pair (int_range 0 2) (int_range 0 3)))
    (fun rows ->
      let cols = [| Array.map fst rows; Array.map snd rows |] in
      let c = Contingency.count ~cards:[| 3; 4 |] cols in
      Info.mutual_information c [| 0 |] [| 1 |] >= -1e-9)

let prop_entropy_chain =
  QCheck2.Test.make ~name:"H(X,Y) = H(X) + H(Y|X)" ~count:200
    QCheck2.Gen.(array_size (pure 60) (pair (int_range 0 2) (int_range 0 3)))
    (fun rows ->
      let cols = [| Array.map fst rows; Array.map snd rows |] in
      let c = Contingency.count ~cards:[| 3; 4 |] cols in
      let n = Contingency.total c in
      (* H(X,Y) from the dedicated pieces *)
      let hx =
        Info.entropy_of_counts
          (Array.init 3 (fun v -> Contingency.get (Contingency.marginal c [| 0 |]) [| v |]))
      in
      let hyx = Info.conditional_entropy c ~parent_dims:[| 0 |] ~child_dim:1 in
      let joint_ll = Info.loglik_of_counts c ~parent_dims:[||] ~child_dim:0 in
      (* -joint_ll/n = H(X); use it as a cross-check of consistency *)
      Arrayx.float_equal ~eps:1e-6 hx (-.joint_ll /. n) && hyx >= -1e-9)


(* Dense and sparse contingency representations must agree. *)
let prop_contingency_repr_agreement =
  QCheck2.Test.make ~name:"dense and sparse contingencies agree" ~count:100
    QCheck2.Gen.(array_size (pure 50) (pair (int_range 0 3) (int_range 0 4)))
    (fun rows ->
      let cols = [| Array.map fst rows; Array.map snd rows |] in
      (* force sparse by inflating one cardinality beyond the dense limit *)
      let dense = Contingency.count ~cards:[| 4; 5 |] cols in
      let sparse = Contingency.count ~cards:[| 4; 1 lsl 22 |] cols in
      let ok = ref true in
      for a = 0 to 3 do
        for b = 0 to 4 do
          if Contingency.get dense [| a; b |] <> Contingency.get sparse [| a; b |] then
            ok := false
        done
      done;
      !ok && Contingency.total dense = Contingency.total sparse)

let prop_observe_conjunction =
  QCheck2.Test.make ~name:"observe twice = observe intersection" ~count:100 gen_factor
    (fun f ->
      let vars = Factor.vars f in
      if Array.length vars = 0 then true
      else begin
        let v = vars.(0) in
        let p1 x = x mod 2 = 0 and p2 x = x < 2 in
        let a = Factor.Reference.observe (Factor.Reference.observe f v p1) v p2 in
        let b = Factor.Reference.observe f v (fun x -> p1 x && p2 x) in
        Factor.equal ~eps:1e-12 a b
      end)

let test_mem_sorted () =
  let a = [| 1; 4; 9 |] in
  Alcotest.(check bool) "present" true (Factor.mem_sorted a 4);
  Alcotest.(check bool) "absent" false (Factor.mem_sorted a 5);
  Alcotest.(check bool) "empty" false (Factor.mem_sorted [||] 0)

let () =
  Alcotest.run "prob"
    [
      ( "dist",
        [
          Alcotest.test_case "uniform" `Quick test_dist_uniform;
          Alcotest.test_case "of_weights" `Quick test_dist_of_weights;
          Alcotest.test_case "smoothing" `Quick test_dist_of_counts_smoothing;
          Alcotest.test_case "point" `Quick test_dist_point;
          Alcotest.test_case "entropy" `Quick test_dist_entropy;
          Alcotest.test_case "kl" `Quick test_dist_kl;
          Alcotest.test_case "total variation" `Quick test_dist_tv;
        ] );
      ( "factor",
        [
          Alcotest.test_case "create validation" `Quick test_factor_create_validation;
          Alcotest.test_case "get" `Quick test_factor_get;
          Alcotest.test_case "of_fun" `Quick test_factor_of_fun;
          Alcotest.test_case "sum_out" `Quick test_factor_sum_out;
          Alcotest.test_case "restrict" `Quick test_factor_restrict;
          Alcotest.test_case "observe" `Quick test_factor_observe;
          Alcotest.test_case "product known" `Quick test_factor_product_known;
          Alcotest.test_case "product card mismatch" `Quick test_factor_product_card_mismatch;
          Alcotest.test_case "marginal and normalize" `Quick test_factor_marginal_normalize;
        ] );
      ( "factor-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_product_pointwise;
            prop_product_commutative;
            prop_sum_out_order_independent;
            prop_sum_out_preserves_total;
            prop_restrict_sums_to_sum_out;
          ] );
      ( "contingency",
        [
          Alcotest.test_case "count" `Quick test_contingency_count;
          Alcotest.test_case "masked" `Quick test_contingency_masked;
          Alcotest.test_case "marginal" `Quick test_contingency_marginal;
          Alcotest.test_case "to_factor" `Quick test_contingency_to_factor;
          Alcotest.test_case "iter" `Quick test_contingency_iter;
          Alcotest.test_case "sparse representation" `Quick test_contingency_sparse;
        ] );
      ( "more-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_contingency_repr_agreement;
            prop_observe_conjunction;
          ] );
      ( "stride-kernels",
        [
          Alcotest.test_case "mem_sorted" `Quick test_mem_sorted;
        ] );
      ( "info",
        [
          Alcotest.test_case "entropy of counts" `Quick test_entropy_of_counts;
          Alcotest.test_case "MI independent" `Quick test_mi_independent;
          Alcotest.test_case "MI determined" `Quick test_mi_determined;
          Alcotest.test_case "MI symmetric" `Quick test_mi_symmetry;
          Alcotest.test_case "conditional entropy and loglik" `Quick
            test_conditional_entropy_and_loglik;
        ] );
      ( "info-properties",
        List.map QCheck_alcotest.to_alcotest [ prop_mi_nonnegative; prop_entropy_chain ] );
    ]
