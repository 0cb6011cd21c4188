open Selest_db
open Selest_est

let check_float = Alcotest.(check (float 1e-6))

let census = lazy (Selest_synth.Census.generate ~rows:10_000 ~seed:21 ())
let tb = lazy (Selest_synth.Tb.generate ~patients:500 ~contacts:3_000 ~strains:400 ~seed:21 ())

let person_q selects =
  Query.create ~tvars:[ ("t", "person") ] ~selects ()

(* ---- error metric ---------------------------------------------------------- *)

let test_adjusted_relative_error () =
  check_float "exact" 0.0 (Estimator.adjusted_relative_error ~truth:50.0 ~estimate:50.0);
  check_float "double" 100.0 (Estimator.adjusted_relative_error ~truth:50.0 ~estimate:100.0);
  (* the max(1, truth) guard for empty results *)
  check_float "zero truth" 700.0 (Estimator.adjusted_relative_error ~truth:0.0 ~estimate:7.0)

(* ---- AVI -------------------------------------------------------------------- *)

let test_avi_exact_on_single_attribute () =
  let db = Lazy.force census in
  let avi = Avi.build db in
  (* One-attribute selects are exact for AVI (it stores the marginal). *)
  let q = person_q [ Query.eq "t" "Sex" 0 ] in
  check_float "single attr exact" (Exec.query_size db q) (avi.Estimator.estimate q)

let test_avi_range_pred () =
  let db = Lazy.force census in
  let avi = Avi.build db in
  let q = person_q [ Query.range "t" "Age" 0 17 ] in
  check_float "full range = table size" 10_000.0 (avi.Estimator.estimate q)

let test_avi_independence_error () =
  (* AVI multiplies marginals, so on correlated attributes it errs. *)
  let db = Lazy.force census in
  let avi = Avi.build db in
  let q = person_q [ Query.eq "t" "Age" 0; Query.eq "t" "MaritalStatus" 1 ] in
  (* Age bucket 0 (children) married: truth is ~0, AVI predicts plenty. *)
  let truth = Exec.query_size db q in
  let est = avi.Estimator.estimate q in
  Alcotest.(check bool) "overestimates impossible combo" true (est > truth +. 10.0)

let test_avi_join_uniformity () =
  let db = Lazy.force tb in
  let avi = Avi.build db in
  let q =
    Query.create
      ~tvars:[ ("c", "contact"); ("p", "patient") ]
      ~joins:[ Query.join ~child:"c" ~fk:"patient" ~parent:"p" ]
      ()
  in
  (* |contact| * |patient| / |patient| = |contact| *)
  check_float "uniform join" 3_000.0 (avi.Estimator.estimate q)

let test_avi_unsupported () =
  let db = Lazy.force census in
  let avi = Avi.build ~attrs:[ ("person", "Age") ] db in
  Alcotest.(check bool) "uncovered attr raises" true
    (try
       ignore (avi.Estimator.estimate (person_q [ Query.eq "t" "Sex" 0 ]));
       false
     with Estimator.Unsupported _ -> true)

(* ---- SAMPLE ------------------------------------------------------------------ *)

let test_sample_full_is_exact () =
  let db = Lazy.force census in
  let s = Sample.build ~rows:10_000 ~seed:0 db in
  let q = person_q [ Query.eq "t" "Income" 3; Query.eq "t" "Age" 5 ] in
  check_float "full sample exact" (Exec.query_size db q) (s.Estimator.estimate q)

let test_sample_accuracy_grows () =
  let db = Lazy.force census in
  let q = person_q [ Query.eq "t" "Sex" 0 ] in
  let truth = Exec.query_size db q in
  let err rows =
    let s = Sample.build ~rows ~seed:5 db in
    abs_float (s.Estimator.estimate q -. truth) /. truth
  in
  Alcotest.(check bool) "big sample decent" true (err 5_000 < 0.05)

let test_sample_join () =
  let db = Lazy.force tb in
  let s = Sample.build ~rows:3_000 ~seed:1 db in
  (* full join sample: exact on a fully-joined query *)
  let q =
    Query.create
      ~tvars:[ ("c", "contact"); ("p", "patient"); ("st", "strain") ]
      ~joins:
        [
          Query.join ~child:"c" ~fk:"patient" ~parent:"p";
          Query.join ~child:"p" ~fk:"strain" ~parent:"st";
        ]
      ~selects:[ Query.eq "p" "USBorn" 1; Query.eq "c" "Infected" 1 ]
      ()
  in
  check_float "full join sample exact" (Exec.query_size db q) (s.Estimator.estimate q)

let test_sample_unsupported_base () =
  let db = Lazy.force tb in
  let s = Sample.build ~rows:500 ~seed:1 db in
  (* patient-only query cannot be debiased from a contact-join sample *)
  let q = Query.create ~tvars:[ ("p", "patient") ] ~selects:[ Query.eq "p" "HIV" 1 ] () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (s.Estimator.estimate q);
       false
     with Estimator.Unsupported _ -> true)

let test_sample_bytes () =
  Alcotest.(check int) "storage charge" (100 * 12 * 4) (Sample.bytes_for ~rows:100 ~n_attrs:12)

(* ---- MHIST -------------------------------------------------------------------- *)

let test_mhist_exact_with_enough_buckets () =
  let db = Lazy.force census in
  (* 2 small attributes; budget large enough for one bucket per cell. *)
  let attrs = [ "Sex"; "Earner" ] in
  let m = Mhist.build ~table:"person" ~attrs ~budget_bytes:100_000 db in
  for sex = 0 to 1 do
    for e = 0 to 2 do
      let q = person_q [ Query.eq "t" "Sex" sex; Query.eq "t" "Earner" e ] in
      check_float "cell exact" (Exec.query_size db q) (m.Estimator.estimate q)
    done
  done

let test_mhist_single_bucket_is_uniform () =
  let db = Lazy.force census in
  let m = Mhist.build ~table:"person" ~attrs:[ "Age"; "Income" ] ~budget_bytes:20 db in
  (* one bucket: every cell estimated at N / cells *)
  let q = person_q [ Query.eq "t" "Age" 0; Query.eq "t" "Income" 41 ] in
  check_float "uniform spread" (10_000.0 /. float_of_int (18 * 42)) (m.Estimator.estimate q)

let test_mhist_range_query () =
  let db = Lazy.force census in
  let m = Mhist.build ~table:"person" ~attrs:[ "Age"; "Income" ] ~budget_bytes:4_000 db in
  (* a full-range query returns the table size regardless of buckets *)
  let q = person_q [ Query.range "t" "Age" 0 17 ] in
  check_float "full range" 10_000.0 (m.Estimator.estimate q);
  (* sum over all Age values = table size *)
  let total = ref 0.0 in
  for a = 0 to 17 do
    total := !total +. m.Estimator.estimate (person_q [ Query.eq "t" "Age" a ])
  done;
  check_float "partition" 10_000.0 !total

let test_mhist_beats_single_bucket () =
  let db = Lazy.force census in
  let attrs = [ "Age"; "Income" ] in
  let suite_err m =
    let acc = ref 0.0 in
    for a = 0 to 17 do
      for i = 0 to 41 do
        let q = person_q [ Query.eq "t" "Age" a; Query.eq "t" "Income" i ] in
        let truth = Exec.query_size db q in
        acc := !acc +. Estimator.adjusted_relative_error ~truth ~estimate:(m.Estimator.estimate q)
      done
    done;
    !acc /. float_of_int (18 * 42)
  in
  let coarse = Mhist.build ~table:"person" ~attrs ~budget_bytes:40 db in
  let fine = Mhist.build ~table:"person" ~attrs ~budget_bytes:2_000 db in
  Alcotest.(check bool) "more buckets help" true (suite_err fine < suite_err coarse)

let test_mhist_unsupported () =
  let db = Lazy.force census in
  let m = Mhist.build ~table:"person" ~attrs:[ "Age" ] ~budget_bytes:400 db in
  Alcotest.(check bool) "uncovered attr" true
    (try
       ignore (m.Estimator.estimate (person_q [ Query.eq "t" "Sex" 0 ]));
       false
     with Estimator.Unsupported _ -> true)

let test_mhist_bucket_arithmetic () =
  Alcotest.(check int) "buckets for budget" 10
    (Mhist.n_buckets_for ~budget_bytes:200 ~dims:2)


(* ---- WAVELET ------------------------------------------------------------------- *)

let test_haar_roundtrip () =
  let dims = [| 4; 8 |] in
  let rng = Selest_util.Rng.create 3 in
  let data = Array.init 32 (fun _ -> Selest_util.Rng.float rng *. 10.0) in
  let back = Wavelet.Haar.inverse ~dims (Wavelet.Haar.forward ~dims data) in
  Array.iteri
    (fun i x -> Alcotest.(check (float 1e-9)) "roundtrip" x back.(i))
    data

let test_haar_energy_preservation () =
  (* Orthonormal transform preserves the L2 norm (Parseval). *)
  let dims = [| 8 |] in
  let rng = Selest_util.Rng.create 5 in
  let data = Array.init 8 (fun _ -> Selest_util.Rng.float rng) in
  let coeffs = Wavelet.Haar.forward ~dims data in
  let energy a = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 a in
  Alcotest.(check (float 1e-9)) "parseval" (energy data) (energy coeffs)

let test_haar_top_k () =
  let picked = Wavelet.Haar.top_k [| 0.0; 5.0; -9.0; 1.0 |] 2 in
  (* largest magnitudes are -9 and 5, but index 0 (scaling coeff) is forced in *)
  Alcotest.(check int) "k" 2 (Array.length picked);
  Alcotest.(check bool) "keeps scaling coefficient" true
    (Array.exists (fun (i, _) -> i = 0) picked);
  Alcotest.(check bool) "keeps biggest detail" true
    (Array.exists (fun (i, c) -> i = 2 && c = -9.0) picked)

let test_wavelet_exact_with_all_coefficients () =
  let db = Lazy.force census in
  let attrs = [ "Sex"; "Earner" ] in
  (* 2 * 4 = 8 padded cells -> 8 coefficients = 64 bytes *)
  let w = Wavelet.build ~table:"person" ~attrs ~budget_bytes:1_000 db in
  for sex = 0 to 1 do
    for e = 0 to 2 do
      let q = person_q [ Query.eq "t" "Sex" sex; Query.eq "t" "Earner" e ] in
      check_float "cell exact" (Exec.query_size db q) (w.Estimator.estimate q)
    done
  done

let test_wavelet_total_mass () =
  (* Whatever the budget, the scaling coefficient is kept, so the full-range
     query returns the table size. *)
  let db = Lazy.force census in
  let w = Wavelet.build ~table:"person" ~attrs:[ "Age"; "Income" ] ~budget_bytes:32 db in
  let q = person_q [ Query.range "t" "Age" 0 17 ] in
  check_float "total mass preserved" 10_000.0 (w.Estimator.estimate q)

let test_wavelet_more_coefficients_help () =
  let db = Lazy.force census in
  let attrs = [ "Age"; "Income" ] in
  let suite_err w =
    let acc = ref 0.0 in
    for a = 0 to 17 do
      for i = 0 to 41 do
        let q = person_q [ Query.eq "t" "Age" a; Query.eq "t" "Income" i ] in
        let truth = Exec.query_size db q in
        acc := !acc +. Estimator.adjusted_relative_error ~truth ~estimate:(w.Estimator.estimate q)
      done
    done;
    !acc /. float_of_int (18 * 42)
  in
  let coarse = Wavelet.build ~table:"person" ~attrs ~budget_bytes:100 db in
  let fine = Wavelet.build ~table:"person" ~attrs ~budget_bytes:4_000 db in
  Alcotest.(check bool) "finer beats coarser" true (suite_err fine < suite_err coarse)

let test_wavelet_unsupported () =
  let db = Lazy.force census in
  let w = Wavelet.build ~table:"person" ~attrs:[ "Age" ] ~budget_bytes:200 db in
  Alcotest.(check bool) "uncovered attr" true
    (try
       ignore (w.Estimator.estimate (person_q [ Query.eq "t" "Sex" 0 ]));
       false
     with Estimator.Unsupported _ -> true)

(* ---- BN estimator --------------------------------------------------------------- *)

let test_bn_est_accuracy () =
  let db = Lazy.force census in
  let attrs = [ "Age"; "Education"; "Income" ] in
  let bn = Bn_est.build ~table:"person" ~attrs ~budget_bytes:2_000 db in
  (* aggregate over the suite: should be far better than AVI *)
  let avi = Avi.build ~attrs:(List.map (fun a -> ("person", a)) attrs) db in
  let total_err m =
    let acc = ref 0.0 and n = ref 0 in
    for a = 0 to 17 do
      for e = 0 to 16 do
        for i = 0 to 41 do
          if (a + e + i) mod 7 = 0 then begin
            (* subsample for speed *)
            let q =
              person_q
                [ Query.eq "t" "Age" a; Query.eq "t" "Education" e; Query.eq "t" "Income" i ]
            in
            let truth = Exec.query_size db q in
            acc :=
              !acc +. Estimator.adjusted_relative_error ~truth ~estimate:(m.Estimator.estimate q);
            incr n
          end
        done
      done
    done;
    !acc /. float_of_int !n
  in
  Alcotest.(check bool) "bn beats avi" true (total_err bn < total_err avi)

let test_bn_est_names () =
  Alcotest.(check string) "tree" "PRM(tree)" (Bn_est.name_for Selest_bn.Cpd.Trees);
  Alcotest.(check string) "table" "PRM(table)" (Bn_est.name_for Selest_bn.Cpd.Tables)

let test_bn_est_range_and_inset () =
  let db = Lazy.force census in
  let bn = Bn_est.build ~table:"person" ~attrs:[ "Age"; "Income" ] ~budget_bytes:1_500 db in
  let q = person_q [ Query.range "t" "Age" 0 17 ] in
  Alcotest.(check bool) "full range near N" true
    (abs_float (bn.Estimator.estimate q -. 10_000.0) < 1.0);
  (* In_set over the whole domain also returns N *)
  let q2 = person_q [ Query.in_set "t" "Age" (List.init 18 (fun i -> i)) ] in
  Alcotest.(check bool) "full set near N" true
    (abs_float (bn.Estimator.estimate q2 -. 10_000.0) < 1.0)




(* ---- SVD ------------------------------------------------------------------------- *)

let test_lowrank_exact_on_rank1 () =
  (* A = u v^T exactly: one triplet recovers it. *)
  let rows = 3 and cols = 4 in
  let u = [| 1.0; 2.0; 3.0 |] and v = [| 4.0; 3.0; 2.0; 1.0 |] in
  let a = Array.init (rows * cols) (fun idx -> u.(idx / cols) *. v.(idx mod cols)) in
  let triplets = Svd.Lowrank.truncate ~rows ~cols a ~k:1 in
  Alcotest.(check int) "one triplet" 1 (Array.length triplets);
  let approx = Svd.Lowrank.reconstruct ~rows ~cols triplets in
  Array.iteri
    (fun i x -> Alcotest.(check (float 1e-6)) "rank-1 exact" x approx.(i))
    a

let test_lowrank_full_rank_exact () =
  let rows = 4 and cols = 4 in
  let rng = Selest_util.Rng.create 9 in
  let a = Array.init 16 (fun _ -> Selest_util.Rng.float rng *. 10.0) in
  let triplets = Svd.Lowrank.truncate ~rows ~cols a ~k:4 in
  let approx = Svd.Lowrank.reconstruct ~rows ~cols triplets in
  Array.iteri
    (fun i x -> Alcotest.(check (float 1e-4)) "full rank reconstructs" x approx.(i))
    a

let test_lowrank_singular_values_ordered () =
  let rows = 5 and cols = 6 in
  let rng = Selest_util.Rng.create 10 in
  let a = Array.init 30 (fun _ -> Selest_util.Rng.float rng) in
  let triplets = Svd.Lowrank.truncate ~rows ~cols a ~k:3 in
  for i = 1 to Array.length triplets - 1 do
    let s_prev, _, _ = triplets.(i - 1) and s, _, _ = triplets.(i) in
    Alcotest.(check bool) "non-increasing" true (s <= s_prev +. 1e-9)
  done

let test_svd_estimator () =
  let db = Lazy.force census in
  let svd = Svd.build ~table:"person" ~x:"Age" ~y:"Income" ~budget_bytes:2_000 db in
  (* full-rank-ish budget reproduces marginals well *)
  let q = person_q [ Query.eq "t" "Age" 5 ] in
  let truth = Exec.query_size db q in
  Alcotest.(check bool) "marginal decent" true
    (abs_float (svd.Estimator.estimate q -. truth) /. truth < 0.2);
  (* improves with rank *)
  let suite_err m =
    let acc = ref 0.0 in
    for a = 0 to 17 do
      for i = 0 to 41 do
        let q = person_q [ Query.eq "t" "Age" a; Query.eq "t" "Income" i ] in
        let truth = Exec.query_size db q in
        acc := !acc +. Estimator.adjusted_relative_error ~truth ~estimate:(m.Estimator.estimate q)
      done
    done;
    !acc /. float_of_int (18 * 42)
  in
  let coarse = Svd.build ~table:"person" ~x:"Age" ~y:"Income" ~budget_bytes:300 db in
  Alcotest.(check bool) "rank helps" true (suite_err svd < suite_err coarse)

let test_svd_unsupported () =
  let db = Lazy.force census in
  let svd = Svd.build ~table:"person" ~x:"Age" ~y:"Income" ~budget_bytes:1_000 db in
  Alcotest.(check bool) "third attribute refused" true
    (try
       ignore (svd.Estimator.estimate (person_q [ Query.eq "t" "Sex" 0 ]));
       false
     with Estimator.Unsupported _ -> true)


let prop_haar_roundtrip_random_dims =
  QCheck2.Test.make ~name:"haar roundtrip on random power-of-2 shapes" ~count:60
    QCheck2.Gen.(triple (int_range 0 3) (int_range 0 3) (int_range 0 10_000))
    (fun (la, lb, seed) ->
      let rows = 1 lsl la and cols = 1 lsl lb in
      let dims = [| rows; cols |] in
      let rng = Selest_util.Rng.create seed in
      let data = Array.init (rows * cols) (fun _ -> Selest_util.Rng.float rng *. 100.0) in
      let back = Wavelet.Haar.inverse ~dims (Wavelet.Haar.forward ~dims data) in
      Array.for_all2 (fun a b -> abs_float (a -. b) < 1e-6) data back)

let prop_svd_rank_min_dim_exact =
  QCheck2.Test.make ~name:"rank >= min-dim reconstruction is exact" ~count:30
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let rng = Selest_util.Rng.create seed in
      let rows = 2 + Selest_util.Rng.int rng 4 and cols = 2 + Selest_util.Rng.int rng 4 in
      let a = Array.init (rows * cols) (fun _ -> Selest_util.Rng.float rng *. 10.0) in
      let triplets = Svd.Lowrank.truncate ~rows ~cols a ~k:(min rows cols) in
      let approx = Svd.Lowrank.reconstruct ~rows ~cols triplets in
      Array.for_all2 (fun x y -> abs_float (x -. y) < 1e-3 *. Float.max 1.0 (abs_float x)) a approx)

(* ---- Join synopses ----------------------------------------------------------------- *)

let test_join_synopses_covers_all_roots () =
  let db = Lazy.force tb in
  let js = Join_synopses.build ~budget_bytes:60_000 ~seed:2 db in
  (* patient-rooted query: plain SAMPLE refuses this (its one sample is
     rooted at contact), the synopses answer it *)
  let q =
    Query.create
      ~tvars:[ ("p", "patient"); ("s", "strain") ]
      ~joins:[ Query.join ~child:"p" ~fk:"strain" ~parent:"s" ]
      ~selects:[ Query.eq "p" "USBorn" 1; Query.eq "s" "Unique" 0 ]
      ()
  in
  let truth = Exec.query_size db q in
  let est = js.Estimator.estimate q in
  Alcotest.(check bool)
    (Printf.sprintf "patient-rooted est %.0f vs truth %.0f" est truth)
    true
    (abs_float (est -. truth) /. Float.max 1.0 truth < 0.25);
  (* strain-only query also answered (its own synopsis) *)
  let q2 = Query.create ~tvars:[ ("s", "strain") ] ~selects:[ Query.eq "s" "Unique" 1 ] () in
  let t2 = Exec.query_size db q2 in
  Alcotest.(check bool) "single-table root" true
    (abs_float (js.Estimator.estimate q2 -. t2) /. Float.max 1.0 t2 < 0.25);
  (* contact-rooted 3-table query still works *)
  let q3 =
    Query.create
      ~tvars:[ ("c", "contact"); ("p", "patient") ]
      ~joins:[ Query.join ~child:"c" ~fk:"patient" ~parent:"p" ]
      ~selects:[ Query.eq "c" "Infected" 1 ]
      ()
  in
  let t3 = Exec.query_size db q3 in
  Alcotest.(check bool) "contact-rooted" true
    (abs_float (js.Estimator.estimate q3 -. t3) /. Float.max 1.0 t3 < 0.25)

let test_join_synopses_unsupported_branching () =
  let db = Lazy.force tb in
  let js = Join_synopses.build ~budget_bytes:10_000 ~seed:2 db in
  (* two contacts of one patient: branching join, no single base *)
  let q =
    Query.create
      ~tvars:[ ("c1", "contact"); ("c2", "contact"); ("p", "patient") ]
      ~joins:
        [
          Query.join ~child:"c1" ~fk:"patient" ~parent:"p";
          Query.join ~child:"c2" ~fk:"patient" ~parent:"p";
        ]
      ()
  in
  Alcotest.(check bool) "branching unsupported" true
    (try
       ignore (js.Estimator.estimate q);
       false
     with Estimator.Unsupported _ -> true)

let test_join_synopses_budget_split () =
  let db = Lazy.force tb in
  let js = Join_synopses.build ~budget_bytes:12_000 ~seed:2 db in
  Alcotest.(check bool) "within budget-ish" true (js.Estimator.bytes <= 12_000 + 256)

let test_bn_est_unsupported () =
  let db = Lazy.force census in
  let bn = Bn_est.build ~table:"person" ~attrs:[ "Age"; "Income" ] ~budget_bytes:1_500 db in
  let unmodelled = person_q [ Query.eq "t" "Sex" 0 ] in
  let two_tvars = Query.create ~tvars:[ ("t", "person"); ("u", "person") ] () in
  List.iter
    (fun q ->
      (* a runner prepares before it estimates, outside its handler *)
      bn.Estimator.prepare q;
      Alcotest.(check bool) "estimate raises Unsupported" true
        (try
           ignore (bn.Estimator.estimate q);
           false
         with Estimator.Unsupported _ -> true))
    [ unmodelled; two_tvars ]

(* ---- the BN estimator on the compiled plan ------------------------------------------ *)

let small_census = lazy (Selest_synth.Census.generate ~rows:2_000 ~seed:21 ())

(* The model [Bn_est.build] learns for [attrs]: the same columns and
   config, so the same network. *)
let learn_like_bn_est tbl attrs ~budget_bytes ~kind ~seed =
  let module Learn = Selest_prm.Learn in
  let ts = Table.schema tbl in
  (Bn_est.learn ~table:"person"
     (List.map (fun a -> (Schema.attr ts a, Table.col_by_name tbl a)) attrs)
     ~config:{ (Learn.bn_config ~budget_bytes) with Learn.kind; seed })
    .Learn.model

(* From [seed]: a CPD kind, a budget, 3-4 modelled attributes, and
   instantiations of one skeleton over 2-3 of them, each select a point,
   range or set predicate, some attribute selected twice, in a shuffled
   order. *)
let bn_twin_case seed =
  let rng = Selest_util.Rng.create (seed * 7919) in
  let kind = if seed mod 2 = 0 then Selest_bn.Cpd.Tables else Selest_bn.Cpd.Trees in
  let budget_bytes = 600 + Selest_util.Rng.int rng 3_000 in
  let names = Selest_synth.Census.attr_names in
  let person = Schema.find_table Selest_synth.Census.schema "person" in
  let cards = Array.map (fun a -> Value.card a.Schema.domain) person.Schema.attrs in
  let order = Array.init (Array.length names) Fun.id in
  Selest_util.Rng.shuffle rng order;
  let n_attrs = 3 + Selest_util.Rng.int rng 2 in
  let modelled = Array.sub order 0 n_attrs in
  let selected = Array.sub modelled 0 (2 + Selest_util.Rng.int rng 2) in
  let pred a =
    let card = cards.(a) and name = names.(a) in
    match Selest_util.Rng.int rng 4 with
    | 0 ->
      let lo = Selest_util.Rng.int rng card in
      Query.range "t" name lo (lo + Selest_util.Rng.int rng (card - lo))
    | 1 -> Query.in_set "t" name (List.init 2 (fun _ -> Selest_util.Rng.int rng card))
    | _ -> Query.eq "t" name (Selest_util.Rng.int rng card)
  in
  let queries =
    List.init 8 (fun _ ->
        let sels = Array.to_list (Array.map pred selected) in
        let sels =
          if Selest_util.Rng.int rng 3 = 0 then pred selected.(0) :: sels else sels
        in
        let sels = Array.of_list sels in
        Selest_util.Rng.shuffle rng sels;
        person_q (Array.to_list sels))
  in
  (kind, budget_bytes, Array.to_list (Array.map (fun a -> names.(a)) modelled), queries)

let prop_bn_est_is_one_shot_plan =
  QCheck2.Test.make
    ~name:"BN estimator = one-shot plan, bit for bit, = N x Bn.prob_of" ~count:10
    ~long_factor:20 ~print:QCheck2.Print.int
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let db = Lazy.force small_census in
      let tbl = Database.table db "person" in
      let kind, budget_bytes, attrs, queries = bn_twin_case seed in
      let est = Bn_est.build ~table:"person" ~attrs ~budget_bytes ~kind ~seed db in
      let model = learn_like_bn_est tbl attrs ~budget_bytes ~kind ~seed in
      (* the BN's factors, one CPD per modelled attribute over their ids:
         Bn.prob_of's one-shot VE on them *)
      let factors = List.init (List.length attrs) (Selest_prm.Model.attr_table model 0) in
      let n = Table.size tbl in
      let var a = Option.get (List.find_index (String.equal a) attrs) in
      List.for_all
        (fun q ->
          let cached = est.Estimator.estimate q in
          let one_shot =
            Selest_plan.Plan.estimate (Selest_plan.Plan.compile model q) ~sizes:[| n |] q
          in
          let oracle =
            float_of_int n
            *. Selest_bn.Ve.prob_of_evidence factors
                 (List.map (fun s -> (var s.Query.sel_attr, s.Query.pred)) q.Query.selects)
          in
          Int64.bits_of_float cached = Int64.bits_of_float one_shot
          && Float.abs (cached -. oracle) <= 1e-12 *. Float.abs oracle)
        queries)

(* ---- Discretized estimator (Sec. 2.3) -------------------------------------------- *)

let test_discretized_bucket_level_queries () =
  let db = Lazy.force census in
  (* bucketize Income 42 -> 7; bucket-level queries (full-range predicates
     aligned on bucket boundaries are approximated well) *)
  let e =
    Discretized.build ~table:"person" ~bucketize:[ ("Income", 7) ] ~budget_bytes:2_000 db
  in
  Alcotest.(check string) "name" "PRM(bucketized)" e.Estimator.name;
  (* a query on a non-bucketized attribute is answered as usual *)
  let q = person_q [ Query.eq "t" "Sex" 0 ] in
  let truth = Exec.query_size db q in
  Alcotest.(check bool) "non-bucketized exact-ish" true
    (abs_float (e.Estimator.estimate q -. truth) /. truth < 0.05)

let test_discretized_base_level_point () =
  let db = Lazy.force census in
  let e =
    Discretized.build ~table:"person" ~bucketize:[ ("Income", 7) ] ~budget_bytes:2_000 db
  in
  (* Base-level point queries pay the uniformity-within-bucket assumption
     (Sec. 2.3); with 7 equi-depth buckets over a heavy-tailed 42-value
     domain the tail values are badly overestimated, so the aggregate error
     is substantial -- but it must still beat assuming uniformity over the
     whole domain, which is what the discretization refines. *)
  let avg_err estimate =
    let acc = ref 0.0 in
    for v = 0 to 41 do
      let q = person_q [ Query.eq "t" "Income" v ] in
      let truth = Exec.query_size db q in
      acc := !acc +. Estimator.adjusted_relative_error ~truth ~estimate:(estimate q)
    done;
    !acc /. 42.0
  in
  let disc_err = avg_err e.Estimator.estimate in
  let uniform_err = avg_err (fun _ -> 10_000.0 /. 42.0) in
  Alcotest.(check bool)
    (Printf.sprintf "bucketized %.1f%% beats whole-domain uniformity %.1f%%" disc_err
       uniform_err)
    true
    (disc_err < uniform_err)

let test_discretized_range_consistency () =
  let db = Lazy.force census in
  let e =
    Discretized.build ~table:"person" ~bucketize:[ ("Income", 7) ] ~budget_bytes:2_000 db
  in
  (* the full range returns N exactly (coverage 1 everywhere) *)
  let q = person_q [ Query.range "t" "Income" 0 41 ] in
  Alcotest.(check bool) "full range = N" true
    (abs_float (e.Estimator.estimate q -. 10_000.0) < 1.0);
  (* base-level point estimates sum to the full-range answer *)
  let total = ref 0.0 in
  for v = 0 to 41 do
    total := !total +. e.Estimator.estimate (person_q [ Query.eq "t" "Income" v ])
  done;
  Alcotest.(check bool) "partition of unity" true (abs_float (!total -. 10_000.0) < 1.0)

let test_discretized_smaller_model () =
  let db = Lazy.force census in
  let coarse =
    Discretized.build ~table:"person" ~bucketize:[ ("Income", 7); ("Age", 6) ]
      ~budget_bytes:50_000 db
  in
  let full = Bn_est.build ~table:"person" ~budget_bytes:50_000 db in
  (* with a generous budget, the bucketized model ends up smaller *)
  Alcotest.(check bool) "compression" true (coarse.Estimator.bytes < full.Estimator.bytes)

(* With nothing bucketized, the discretized estimator learns the same
   network as the BN estimator and answers on the same plan. *)
let test_discretized_unbucketized_is_bn_est () =
  let db = Lazy.force small_census in
  List.iter
    (fun seed ->
      let kind, budget_bytes, _, queries = bn_twin_case seed in
      let disc = Discretized.build ~table:"person" ~bucketize:[] ~budget_bytes ~kind ~seed db in
      let bn = Bn_est.build ~table:"person" ~budget_bytes ~kind ~seed db in
      List.iter
        (fun q ->
          Alcotest.(check int64)
            "bit for bit"
            (Int64.bits_of_float (bn.Estimator.estimate q))
            (Int64.bits_of_float (disc.Estimator.estimate q)))
        queries)
    [ 1; 2; 3; 4 ]

(* ---- PRM estimator (integration) -------------------------------------------------- *)

let test_prm_est_on_tb () =
  let db = Lazy.force tb in
  let prm = Prm_est.build ~budget_bytes:4_000 db in
  let uj = Prm_est.build_bn_uj ~budget_bytes:4_000 db in
  Alcotest.(check string) "names" "PRM" prm.Estimator.name;
  Alcotest.(check string) "names uj" "BN+UJ" uj.Estimator.name;
  let q =
    Query.create
      ~tvars:[ ("c", "contact"); ("p", "patient") ]
      ~joins:[ Query.join ~child:"c" ~fk:"patient" ~parent:"p" ]
      ~selects:[ Query.eq "p" "Age" 2; Query.eq "c" "Contype" 2 ]
      ()
  in
  let truth = Exec.query_size db q in
  let e_prm =
    Estimator.adjusted_relative_error ~truth ~estimate:(prm.Estimator.estimate q)
  in
  let e_uj = Estimator.adjusted_relative_error ~truth ~estimate:(uj.Estimator.estimate q) in
  Alcotest.(check bool)
    (Printf.sprintf "prm %.1f%% vs uj %.1f%%" e_prm e_uj)
    true (e_prm < 50.0 && e_prm <= e_uj +. 10.0)

let test_of_model_wrapper () =
  let db = Lazy.force tb in
  let model = Selest_prm.Learn.learn_prm ~budget_bytes:2_000 db in
  let est = Prm_est.of_model ~name:"wrapped" model ~sizes:(Selest_plan.Estimate.sizes_of_db db) in
  Alcotest.(check string) "name" "wrapped" est.Estimator.name;
  Alcotest.(check bool) "bytes positive" true (est.Estimator.bytes > 0)

let () =
  Alcotest.run "est"
    [
      ("metric", [ Alcotest.test_case "adjusted relative error" `Quick test_adjusted_relative_error ]);
      ( "avi",
        [
          Alcotest.test_case "single attribute exact" `Quick test_avi_exact_on_single_attribute;
          Alcotest.test_case "range predicate" `Quick test_avi_range_pred;
          Alcotest.test_case "independence error" `Quick test_avi_independence_error;
          Alcotest.test_case "join uniformity" `Quick test_avi_join_uniformity;
          Alcotest.test_case "unsupported" `Quick test_avi_unsupported;
        ] );
      ( "sample",
        [
          Alcotest.test_case "full sample exact" `Quick test_sample_full_is_exact;
          Alcotest.test_case "accuracy grows" `Quick test_sample_accuracy_grows;
          Alcotest.test_case "join sample" `Quick test_sample_join;
          Alcotest.test_case "unsupported base" `Quick test_sample_unsupported_base;
          Alcotest.test_case "bytes" `Quick test_sample_bytes;
        ] );
      ( "mhist",
        [
          Alcotest.test_case "exact with enough buckets" `Quick test_mhist_exact_with_enough_buckets;
          Alcotest.test_case "single bucket uniform" `Quick test_mhist_single_bucket_is_uniform;
          Alcotest.test_case "range query" `Quick test_mhist_range_query;
          Alcotest.test_case "more buckets help" `Quick test_mhist_beats_single_bucket;
          Alcotest.test_case "unsupported" `Quick test_mhist_unsupported;
          Alcotest.test_case "bucket arithmetic" `Quick test_mhist_bucket_arithmetic;
        ] );
      ( "wavelet",
        [
          Alcotest.test_case "haar roundtrip" `Quick test_haar_roundtrip;
          Alcotest.test_case "parseval" `Quick test_haar_energy_preservation;
          Alcotest.test_case "top-k" `Quick test_haar_top_k;
          Alcotest.test_case "exact with all coefficients" `Quick test_wavelet_exact_with_all_coefficients;
          Alcotest.test_case "total mass" `Quick test_wavelet_total_mass;
          Alcotest.test_case "more coefficients help" `Quick test_wavelet_more_coefficients_help;
          Alcotest.test_case "unsupported" `Quick test_wavelet_unsupported;
        ] );
      ( "bn-est",
        [
          Alcotest.test_case "beats AVI" `Quick test_bn_est_accuracy;
          Alcotest.test_case "names" `Quick test_bn_est_names;
          Alcotest.test_case "range and set predicates" `Quick test_bn_est_range_and_inset;
          Alcotest.test_case "unsupported" `Quick test_bn_est_unsupported;
        ] );
      ( "one-engine", List.map QCheck_alcotest.to_alcotest [ prop_bn_est_is_one_shot_plan ] );
      ( "synopsis-properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_haar_roundtrip_random_dims; prop_svd_rank_min_dim_exact ] );
      ( "svd",
        [
          Alcotest.test_case "rank-1 exact" `Quick test_lowrank_exact_on_rank1;
          Alcotest.test_case "full-rank exact" `Quick test_lowrank_full_rank_exact;
          Alcotest.test_case "singular values ordered" `Quick test_lowrank_singular_values_ordered;
          Alcotest.test_case "estimator" `Quick test_svd_estimator;
          Alcotest.test_case "unsupported" `Quick test_svd_unsupported;
        ] );
      ( "join-synopses",
        [
          Alcotest.test_case "covers all roots" `Quick test_join_synopses_covers_all_roots;
          Alcotest.test_case "unsupported branching" `Quick test_join_synopses_unsupported_branching;
          Alcotest.test_case "budget split" `Quick test_join_synopses_budget_split;
        ] );
      ( "discretized",
        [
          Alcotest.test_case "bucket-level queries" `Quick test_discretized_bucket_level_queries;
          Alcotest.test_case "base-level point queries" `Quick test_discretized_base_level_point;
          Alcotest.test_case "range consistency" `Quick test_discretized_range_consistency;
          Alcotest.test_case "compression" `Quick test_discretized_smaller_model;
          Alcotest.test_case "nothing bucketized = BN estimator" `Quick
            test_discretized_unbucketized_is_bn_est;
        ] );
      ( "prm-est",
        [
          Alcotest.test_case "tb join" `Quick test_prm_est_on_tb;
          Alcotest.test_case "of_model" `Quick test_of_model_wrapper;
        ] );
    ]
