open Selest_db
open Selest_bn

(* Validate that the generators deliver the phenomena the experiments rely
   on: correct shapes, determinism, planted correlations, and join skew. *)

let census_small = lazy (Selest_synth.Census.generate ~rows:8_000 ~seed:5 ())
let tb_small =
  lazy (Selest_synth.Tb.generate ~patients:600 ~contacts:4_000 ~strains:500 ~seed:5 ())
let fin_small =
  lazy
    (Selest_synth.Financial.generate ~districts:40 ~accounts:900 ~transactions:9_000
       ~seed:5 ())

let mi db table x y =
  let data = Data.of_table (Database.table db table) in
  let idx n =
    let rec go i = if data.Data.names.(i) = n then i else go (i + 1) in
    go 0
  in
  Score.mutual_information data [| idx x |] [| idx y |]

(* ---- shapes -------------------------------------------------------------- *)

let test_census_shape () =
  let db = Lazy.force census_small in
  let tbl = Database.table db "person" in
  Alcotest.(check int) "rows" 8_000 (Table.size tbl);
  Alcotest.(check int) "attrs" 12 (Array.length (Table.schema tbl).Schema.attrs);
  Alcotest.(check (array int)) "paper domain sizes"
    [| 18; 9; 17; 7; 24; 5; 2; 3; 3; 3; 42; 4 |]
    (Table.cards tbl)

let test_tb_shape () =
  let db = Lazy.force tb_small in
  Alcotest.(check int) "patients" 600 (Database.n_rows db "patient");
  Alcotest.(check int) "contacts" 4_000 (Database.n_rows db "contact");
  Alcotest.(check int) "strains" 500 (Database.n_rows db "strain");
  Alcotest.(check bool) "integrity" true (Integrity.is_clean (Integrity.audit db))

let test_fin_shape () =
  let db = Lazy.force fin_small in
  Alcotest.(check int) "districts" 40 (Database.n_rows db "district");
  Alcotest.(check int) "accounts" 900 (Database.n_rows db "account");
  Alcotest.(check int) "transactions" 9_000 (Database.n_rows db "transaction");
  Alcotest.(check bool) "integrity" true (Integrity.is_clean (Integrity.audit db))

let test_default_sizes_match_paper () =
  Alcotest.(check int) "census" 150_000 Selest_synth.Census.default_rows;
  Alcotest.(check int) "patients" 2_500 Selest_synth.Tb.default_patients;
  Alcotest.(check int) "contacts" 19_000 Selest_synth.Tb.default_contacts;
  Alcotest.(check int) "strains" 2_000 Selest_synth.Tb.default_strains;
  Alcotest.(check int) "districts" 77 Selest_synth.Financial.default_districts;
  Alcotest.(check int) "accounts" 4_500 Selest_synth.Financial.default_accounts;
  Alcotest.(check int) "transactions" 106_000 Selest_synth.Financial.default_transactions

(* ---- determinism --------------------------------------------------------- *)

let test_determinism () =
  let a = Selest_synth.Census.generate ~rows:500 ~seed:9 () in
  let b = Selest_synth.Census.generate ~rows:500 ~seed:9 () in
  let ta = Database.table a "person" and tb = Database.table b "person" in
  for i = 0 to 11 do
    Alcotest.(check (array int)) "same data" (Table.col ta i) (Table.col tb i)
  done;
  let c = Selest_synth.Census.generate ~rows:500 ~seed:10 () in
  let tc = Database.table c "person" in
  Alcotest.(check bool) "different seed differs" false (Table.col ta 0 = Table.col tc 0)

(* ---- planted structure: census ------------------------------------------- *)

let test_census_correlations () =
  let db = Lazy.force census_small in
  let strong = mi db "person" "Income" "Education" in
  let weak = mi db "person" "Income" "Race" in
  Alcotest.(check bool) "income-education strong vs income-race weak" true
    (strong > 4.0 *. weak);
  Alcotest.(check bool) "age-marital correlated" true (mi db "person" "Age" "MaritalStatus" > 0.2)

let test_census_conditional_independence () =
  (* ChildSupport depends on Children/Marital, only weakly directly on
     Age given those — a proxy: MI(ChildSupport; Marital) should dominate
     MI(ChildSupport; Sex). *)
  let db = Lazy.force census_small in
  Alcotest.(check bool) "mediated structure" true
    (mi db "person" "ChildSupport" "MaritalStatus" > 10.0 *. mi db "person" "ChildSupport" "Sex")

(* ---- planted structure: TB ------------------------------------------------ *)

let test_tb_join_skew () =
  let db = Lazy.force tb_small in
  (* Join skew: P(non-unique strain | US-born) >> P(non-unique | foreign). *)
  let patient = Database.table db "patient" in
  let strain = Database.table db "strain" in
  let usborn = Table.col_by_name patient "USBorn" in
  let unique = Table.col_by_name strain "Unique" in
  let fk = Table.fk_col_by_name patient "strain" in
  let us_nonunique = ref 0 and us = ref 0 and fb_nonunique = ref 0 and fb = ref 0 in
  Array.iteri
    (fun p u ->
      if u = 1 then begin
        incr us;
        if unique.(fk.(p)) = 0 then incr us_nonunique
      end
      else begin
        incr fb;
        if unique.(fk.(p)) = 0 then incr fb_nonunique
      end)
    usborn;
  let r_us = float_of_int !us_nonunique /. float_of_int !us in
  let r_fb = float_of_int !fb_nonunique /. float_of_int !fb in
  Alcotest.(check bool) "US-born cluster more" true (r_us > 1.8 *. r_fb)

let test_tb_fanout_skew () =
  let db = Lazy.force tb_small in
  let contact = Database.table db "contact" in
  let patient = Database.table db "patient" in
  let idx =
    Index.build ~fk_col:(Table.fk_col_by_name contact "patient")
      ~target_size:(Table.size patient)
  in
  let age = Table.col_by_name patient "Age" in
  let sum_mid = ref 0 and n_mid = ref 0 and sum_old = ref 0 and n_old = ref 0 in
  for p = 0 to Table.size patient - 1 do
    if age.(p) = 2 then begin
      sum_mid := !sum_mid + Index.fanout idx p;
      incr n_mid
    end
    else if age.(p) >= 4 then begin
      sum_old := !sum_old + Index.fanout idx p;
      incr n_old
    end
  done;
  let mid = float_of_int !sum_mid /. float_of_int (max 1 !n_mid) in
  let old = float_of_int !sum_old /. float_of_int (max 1 !n_old) in
  Alcotest.(check bool) "middle-aged have more contacts" true (mid > 1.5 *. old)

let test_tb_cross_correlation () =
  let db = Lazy.force tb_small in
  (* Contype vs the patient's age, through the join. *)
  let q =
    Query.create
      ~tvars:[ ("c", "contact"); ("p", "patient") ]
      ~joins:[ Query.join ~child:"c" ~fk:"patient" ~parent:"p" ]
      ()
  in
  let joint = Exec.joint_counts db q ~keys:[ ("c", "Contype"); ("p", "Age") ] in
  let mi = Selest_prob.Info.mutual_information joint [| 0 |] [| 1 |] in
  Alcotest.(check bool) "contype depends on patient age" true (mi > 0.05)

(* ---- planted structure: FIN ----------------------------------------------- *)

let test_fin_cross_correlation () =
  let db = Lazy.force fin_small in
  let q =
    Query.create
      ~tvars:[ ("t", "transaction"); ("a", "account") ]
      ~joins:[ Query.join ~child:"t" ~fk:"account" ~parent:"a" ]
      ()
  in
  let joint = Exec.joint_counts db q ~keys:[ ("t", "Amount"); ("a", "Balance") ] in
  let mi = Selest_prob.Info.mutual_information joint [| 0 |] [| 1 |] in
  Alcotest.(check bool) "amount tracks balance" true (mi > 0.3)

let test_fin_join_skew () =
  let db = Lazy.force fin_small in
  let account = Database.table db "account" in
  let transaction = Database.table db "transaction" in
  let idx =
    Index.build ~fk_col:(Table.fk_col_by_name transaction "account")
      ~target_size:(Table.size account)
  in
  let balance = Table.col_by_name account "Balance" in
  let hi = ref 0.0 and n_hi = ref 0 and lo = ref 0.0 and n_lo = ref 0 in
  for a = 0 to Table.size account - 1 do
    if balance.(a) >= 4 then begin
      hi := !hi +. float_of_int (Index.fanout idx a);
      incr n_hi
    end
    else if balance.(a) <= 1 then begin
      lo := !lo +. float_of_int (Index.fanout idx a);
      incr n_lo
    end
  done;
  Alcotest.(check bool) "rich accounts transact more" true
    (!hi /. float_of_int (max 1 !n_hi) > 2.0 *. (!lo /. float_of_int (max 1 !n_lo)))

(* ---- Gen combinators ------------------------------------------------------ *)

let test_gen_normal_bucket () =
  let rng = Selest_util.Rng.create 3 in
  for _ = 1 to 500 do
    let v = Selest_synth.Gen.normal_bucket rng ~mean:5.0 ~sd:2.0 ~card:10 in
    Alcotest.(check bool) "clamped" true (v >= 0 && v < 10)
  done;
  (* concentrates around the mean *)
  let near = ref 0 in
  for _ = 1 to 1000 do
    let v = Selest_synth.Gen.normal_bucket rng ~mean:5.0 ~sd:1.0 ~card:10 in
    if abs (v - 5) <= 2 then incr near
  done;
  Alcotest.(check bool) "concentrated" true (!near > 900)

let test_gen_weights_zipf () =
  let w = Selest_synth.Gen.weights [ (0, 2.0); (3, 1.0); (0, 1.0) ] ~card:4 in
  Alcotest.(check (array (float 1e-9))) "sparse literal" [| 3.0; 0.0; 0.0; 1.0 |] w;
  let z = Selest_synth.Gen.zipf 3 1.0 in
  Alcotest.(check (float 1e-9)) "zipf decays" (1.0 /. 3.0) z.(2)

(* ---- same bytes as before ------------------------------------------------ *)

(* MD5 of every column and foreign-key column of every table, in schema
   order.  The constants below pin the generators' and the sampler's
   output: a change that moves one draw changes them. *)
let db_digest db =
  let b = Buffer.create 65536 in
  let add col =
    Array.iter (fun v -> Buffer.add_string b (string_of_int v); Buffer.add_char b ',') col;
    Buffer.add_char b ';'
  in
  Array.iter
    (fun t ->
      let s = Table.schema t in
      Buffer.add_string b (Table.name t);
      Array.iteri (fun i _ -> add (Table.col t i)) s.Schema.attrs;
      Array.iteri (fun i _ -> add (Table.fk_col t i)) s.Schema.fks)
    (Database.tables db);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_bytes_tb () =
  Alcotest.(check string) "tb seed 1" "a2ba1c4bd4dfb80bd7263890751c17f3"
    (db_digest (Selest_synth.Tb.generate ~seed:1 ()))

let test_bytes_fin () =
  Alcotest.(check string) "fin seed 1" "9ed308b425b72f6d3f95e1f6032b96cd"
    (db_digest (Selest_synth.Financial.generate ~seed:1 ()))

let test_bytes_census () =
  Alcotest.(check string) "census 2000 rows seed 1" "742bb922f2d197452775f4fe9db4d464"
    (db_digest (Selest_synth.Census.generate ~rows:2_000 ~seed:1 ()))

let test_bytes_prm_sample () =
  (* The TB model [learn -d tb] saves, sampled as [sample -d tb] does. *)
  let db = Selest_synth.Tb.generate ~seed:1 () in
  let model =
    (Selest_prm.Learn.learn ~config:(Selest_prm.Learn.default_config ~budget_bytes:4096) db)
      .Selest_prm.Learn.model
  in
  let sampled =
    Selest_prm.Sample.database (Selest_util.Rng.create (1 lxor 0x5A)) model
      ~sizes:(Selest_plan.Estimate.sizes_of_db db)
  in
  Alcotest.(check string) "prm sample of tb" "0e5dac445d6d2164fa70b6ed95ec2316" (db_digest sampled)

let test_gen_assign_children () =
  let rng = Selest_util.Rng.create 8 in
  let fk =
    Selest_synth.Gen.assign_children rng ~parent_count:3 ~total:3_000
      ~weight:(fun p -> if p = 0 then 8.0 else 1.0)
  in
  let counts = Array.make 3 0 in
  Array.iter (fun p -> counts.(p) <- counts.(p) + 1) fk;
  Alcotest.(check int) "total" 3_000 (Array.fold_left ( + ) 0 counts);
  Alcotest.(check bool) "skew realized" true
    (counts.(0) > 4 * counts.(1) && counts.(0) > 4 * counts.(2))

let () =
  Alcotest.run "synth"
    [
      ( "shapes",
        [
          Alcotest.test_case "census" `Quick test_census_shape;
          Alcotest.test_case "tb" `Quick test_tb_shape;
          Alcotest.test_case "fin" `Quick test_fin_shape;
          Alcotest.test_case "paper defaults" `Quick test_default_sizes_match_paper;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "census-structure",
        [
          Alcotest.test_case "correlations" `Quick test_census_correlations;
          Alcotest.test_case "mediated dependence" `Quick test_census_conditional_independence;
        ] );
      ( "tb-structure",
        [
          Alcotest.test_case "join skew" `Quick test_tb_join_skew;
          Alcotest.test_case "fanout skew" `Quick test_tb_fanout_skew;
          Alcotest.test_case "cross-fk correlation" `Quick test_tb_cross_correlation;
        ] );
      ( "fin-structure",
        [
          Alcotest.test_case "cross-fk correlation" `Quick test_fin_cross_correlation;
          Alcotest.test_case "join skew" `Quick test_fin_join_skew;
        ] );
      ( "combinators",
        [
          Alcotest.test_case "normal bucket" `Quick test_gen_normal_bucket;
          Alcotest.test_case "weights and zipf" `Quick test_gen_weights_zipf;
          Alcotest.test_case "assign children" `Quick test_gen_assign_children;
        ] );
      ( "same-bytes",
        [
          Alcotest.test_case "tb" `Quick test_bytes_tb;
          Alcotest.test_case "fin" `Quick test_bytes_fin;
          Alcotest.test_case "census" `Quick test_bytes_census;
          Alcotest.test_case "prm sample of tb" `Quick test_bytes_prm_sample;
        ] );
    ]
