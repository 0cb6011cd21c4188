open Selest_util

let check_float = Alcotest.(check (float 1e-9))

(* ---- Rng ---------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let eq = ref true in
  for _ = 1 to 10 do
    if Rng.int64 a <> Rng.int64 b then eq := false
  done;
  Alcotest.(check bool) "different seeds differ" false !eq

let test_rng_split_independence () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  Alcotest.(check bool) "split differs" true (Rng.int64 a <> Rng.int64 b)

let test_rng_copy () =
  let a = Rng.create 19 in
  let b = Rng.copy a in
  Alcotest.(check int64) "copies share the future" (Rng.int64 a) (Rng.int64 b)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_categorical_frequencies () =
  let rng = Rng.create 11 in
  let weights = [| 1.0; 3.0; 6.0 |] in
  let counts = Array.make 3 0 in
  let n = 30_000 in
  for _ = 1 to n do
    let v = Rng.categorical rng weights in
    counts.(v) <- counts.(v) + 1
  done;
  Alcotest.(check bool) "ordered" true (counts.(2) > counts.(1) && counts.(1) > counts.(0));
  (* within 3 sigma of the expected 10% *)
  let p0 = float_of_int counts.(0) /. float_of_int n in
  Alcotest.(check bool) "calibrated" true (abs_float (p0 -. 0.1) < 0.01)

let test_rng_categorical_errors () =
  let rng = Rng.create 1 in
  let bad = "weights must be finite and non-negative" in
  List.iter
    (fun (case, w, msg) ->
      Alcotest.check_raises ("categorical " ^ case) (Invalid_argument ("Rng.categorical: " ^ msg))
        (fun () -> ignore (Rng.categorical rng w));
      Alcotest.check_raises ("cdf " ^ case) (Invalid_argument ("Rng.cdf: " ^ msg))
        (fun () -> ignore (Rng.cdf w)))
    [ ("empty", [||], "empty weights");
      ("zero mass", [| 0.0; 0.0; 0.0 |], "weights sum to zero");
      ("negative", [| -1.0; 2.0 |], bad);
      ("nan", [| 1.0; Float.nan |], bad);
      ("infinite", [| Float.infinity; 1.0 |], bad);
      ("negative infinite", [| 1.0; Float.neg_infinity |], bad);
      ("overflowing sum", [| Float.max_float; Float.max_float |], "weights sum to infinity") ]

(* Weight vectors of 1 to 5,000 entries mixing zeros, ties (a repeat of the
   previous entry) and magnitudes from 1e-300 to 1e300: within one vector the
   exponents span a window of 0 to 600 decades. *)
let gen_weights =
  let open QCheck2.Gen in
  let* n = int_range 1 5_000 in
  let* lo = int_range (-300) 300 in
  let* span = oneof [ int_range 0 3; int_range 0 30; pure 600 ] in
  let hi = min 300 (lo + span) in
  let fresh =
    let* m = float_range 1.0 10.0 and* e = int_range lo hi in
    pure (Float.min 1e300 (m *. Float.pow 10.0 (float_of_int e)))
  in
  let* entries = array_repeat n (frequency [ (1, pure `Zero); (1, pure `Tie); (3, map (fun x -> `W x) fresh) ]) in
  let w = Array.make n 0.0 in
  Array.iteri
    (fun i -> function
      | `Zero -> ()
      | `Tie -> if i > 0 then w.(i) <- w.(i - 1)
      | `W x -> w.(i) <- x)
    entries;
  pure w

let prop_draw_is_categorical =
  QCheck2.Test.make ~name:"draw from cdf = categorical" ~count:100 ~long_factor:20
    ~print:(fun (seed, w) -> Printf.sprintf "seed %d, %d weights" seed (Array.length w))
    QCheck2.Gen.(pair int gen_weights)
    (fun (seed, w) ->
      let r1 = Rng.create seed in
      let r2 = Rng.copy r1 in
      match Rng.cdf w with
      | exception Invalid_argument _ ->
        (try ignore (Rng.categorical r2 w); false with Invalid_argument _ -> true)
      | cdf ->
        let same = ref true in
        for _ = 1 to 20 do
          if Rng.draw r1 cdf <> Rng.categorical r2 w then same := false
        done;
        !same && Rng.int64 r1 = Rng.int64 r2)

let test_sample_without_replacement () =
  let rng = Rng.create 9 in
  let s = Rng.sample_without_replacement rng 10 100 in
  Alcotest.(check int) "size" 10 (Array.length s);
  for i = 1 to 9 do
    Alcotest.(check bool) "strictly increasing" true (s.(i - 1) < s.(i))
  done;
  Array.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 100)) s;
  let all = Rng.sample_without_replacement rng 5 5 in
  Alcotest.(check (array int)) "k = n gives everything" [| 0; 1; 2; 3; 4 |] all

let test_shuffle_permutation () =
  let rng = Rng.create 13 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

(* ---- Arrayx ------------------------------------------------------------- *)

let test_sum_kahan () =
  check_float "simple" 6.0 (Arrayx.sum [| 1.0; 2.0; 3.0 |]);
  check_float "empty" 0.0 (Arrayx.sum [||]);
  let a = Array.make 10_001 1e-10 in
  a.(0) <- 1e10;
  Alcotest.(check bool) "compensated" true (Arrayx.sum a > 1e10)

let test_normalize () =
  let d = Arrayx.normalize [| 2.0; 6.0 |] in
  check_float "first" 0.25 d.(0);
  check_float "second" 0.75 d.(1);
  let u = Arrayx.normalize [| 0.0; 0.0; 0.0 |] in
  check_float "zero input goes uniform" (1.0 /. 3.0) u.(1);
  let inplace = [| 1.0; 1.0 |] in
  Arrayx.normalize_in_place inplace;
  check_float "in place" 0.5 inplace.(0)

let test_max_index () =
  Alcotest.(check int) "max" 2 (Arrayx.max_index [| 1.0; 5.0; 7.0; 7.0 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Arrayx.max_index: empty") (fun () ->
      ignore (Arrayx.max_index [||]))

let test_stats () =
  check_float "mean" 2.0 (Arrayx.mean [| 1.0; 2.0; 3.0 |]);
  check_float "variance" (2.0 /. 3.0) (Arrayx.variance [| 1.0; 2.0; 3.0 |]);
  check_float "median odd" 2.0 (Arrayx.median [| 3.0; 1.0; 2.0 |]);
  check_float "median even" 2.5 (Arrayx.median [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "p100" 9.0 (Arrayx.percentile [| 9.0; 1.0; 5.0 |] 100.0);
  check_float "p0 clamps to first" 1.0 (Arrayx.percentile [| 9.0; 1.0; 5.0 |] 0.0)

let test_xlogx () =
  check_float "zero convention" 0.0 (Arrayx.xlogx 0.0);
  check_float "at 2" 2.0 (Arrayx.xlogx 2.0)

let test_float_equal () =
  Alcotest.(check bool) "close" true (Arrayx.float_equal 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "far" false (Arrayx.float_equal 1.0 1.1);
  Alcotest.(check bool) "relative" true (Arrayx.float_equal ~eps:1e-6 1e12 (1e12 +. 1.0))

let test_fold_lefti () =
  let total = Arrayx.fold_lefti (fun acc i x -> acc + (i * x)) 0 [| 5; 6; 7 |] in
  Alcotest.(check int) "indexed fold" 20 total

let test_init_matrix () =
  let m = Arrayx.init_matrix 2 3 (fun i j -> (i * 10) + j) in
  Alcotest.(check int) "cell" 12 m.(1).(2)

(* ---- Tablefmt / Bytesize ------------------------------------------------ *)

let test_tablefmt_render () =
  let s =
    Tablefmt.render ~header:[| "name"; "value" |]
      [| [| "alpha"; "1.0" |]; [| "b"; "20.5" |] |]
  in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' s) in
  Alcotest.(check int) "line count" 4 (List.length lines);
  let widths = List.map String.length lines in
  List.iter (fun w -> Alcotest.(check int) "aligned" (List.hd widths) w) widths

let test_tablefmt_ragged () =
  let s = Tablefmt.render ~header:[| "a"; "b"; "c" |] [| [| "1" |] |] in
  Alcotest.(check bool) "pads ragged rows" true (String.length s > 0)

let test_float_cell () =
  Alcotest.(check string) "fixed" "3.14" (Tablefmt.float_cell 3.14159);
  Alcotest.(check string) "nan" "nan" (Tablefmt.float_cell Float.nan);
  Alcotest.(check string) "inf" "inf" (Tablefmt.float_cell Float.infinity)

let test_bytesize () =
  Alcotest.(check int) "params" 40 (Bytesize.params 10);
  Alcotest.(check int) "values" 12 (Bytesize.values 3);
  Alcotest.(check string) "pp bytes" "512B" (Format.asprintf "%a" Bytesize.pp 512);
  Alcotest.(check string) "pp kb" "2.0KB" (Format.asprintf "%a" Bytesize.pp 2048)

(* ---- qcheck properties -------------------------------------------------- *)

let prop_normalize_sums_to_one =
  QCheck2.Test.make ~name:"normalize sums to 1" ~count:200
    QCheck2.Gen.(array_size (int_range 1 40) (float_range 0.0 100.0))
    (fun a ->
      let d = Arrayx.normalize a in
      abs_float (Arrayx.sum d -. 1.0) < 1e-9)

let prop_sample_wor_distinct =
  QCheck2.Test.make ~name:"sample without replacement is distinct" ~count:200
    QCheck2.Gen.(pair (int_range 0 50) (int_range 50 200))
    (fun (k, n) ->
      let rng = Rng.create (k + (n * 1000)) in
      let s = Rng.sample_without_replacement rng k n in
      let tbl = Hashtbl.create (max 1 k) in
      Array.iter (fun v -> Hashtbl.replace tbl v ()) s;
      Hashtbl.length tbl = k)

let prop_median_between_bounds =
  QCheck2.Test.make ~name:"median within min/max" ~count:200
    QCheck2.Gen.(array_size (int_range 1 30) (float_range (-50.0) 50.0))
    (fun a ->
      let m = Arrayx.median a in
      let lo = Array.fold_left min a.(0) a and hi = Array.fold_left max a.(0) a in
      m >= lo && m <= hi)


(* ---- Sexp ---------------------------------------------------------------- *)

let test_sexp_roundtrip_simple () =
  let t = Sexp.(list [ atom "a"; list [ atom "b"; int 42 ]; float 3.5 ]) in
  let s = Sexp.to_string t in
  Alcotest.(check bool) "reparses" true (Sexp.of_string s = t)

let test_sexp_quoting () =
  let t = Sexp.(list [ atom "has space"; atom "par(en"; atom ""; atom "quo\"te" ]) in
  Alcotest.(check bool) "quoted atoms roundtrip" true (Sexp.of_string (Sexp.to_string t) = t)

let test_sexp_hum_roundtrip () =
  let t =
    Sexp.(
      list
        [ atom "outer";
          list (atom "inner" :: List.init 40 (fun i -> int i));
          list [ atom "pair"; float 1e-30 ] ])
  in
  Alcotest.(check bool) "indented form reparses" true
    (Sexp.of_string (Sexp.to_string_hum t) = t)

let test_sexp_errors () =
  let fails s = try ignore (Sexp.of_string s); false with Failure _ -> true in
  Alcotest.(check bool) "unterminated list" true (fails "(a b");
  Alcotest.(check bool) "stray paren" true (fails ")");
  Alcotest.(check bool) "trailing garbage" true (fails "(a) b");
  Alcotest.(check bool) "unterminated string" true (fails "\"abc")

let test_sexp_comments_and_file () =
  let t = Sexp.of_string "; a comment\n(a ; mid comment\n b)" in
  Alcotest.(check bool) "comments skipped" true (t = Sexp.(list [ atom "a"; atom "b" ]));
  let path = Filename.temp_file "sexp" ".scm" in
  Sexp.save path t;
  Alcotest.(check bool) "file roundtrip" true (Sexp.load path = t);
  Sys.remove path

let test_sexp_accessors () =
  let t = Sexp.of_string "(rec (name foo) (vals 1 2 3))" in
  Alcotest.(check string) "field atom" "foo" (Sexp.as_atom (List.hd (Sexp.field_values t "name")));
  Alcotest.(check int) "int list" 3 (List.length (Sexp.field_values t "vals"));
  Alcotest.(check bool) "missing field" true
    (try ignore (Sexp.field t "nope"); false with Failure _ -> true)

let gen_sexp =
  let open QCheck2.Gen in
  let atom_gen =
    oneof [ string_size (int_range 0 8); map string_of_int int ]
    |> map (fun s -> Sexp.Atom s)
  in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 1 then atom_gen
          else
            oneof
              [ atom_gen;
                map (fun l -> Sexp.List l) (list_size (int_range 0 4) (self (n / 2))) ])
        n)

let prop_sexp_roundtrip =
  QCheck2.Test.make ~name:"sexp print/parse roundtrip" ~count:300 gen_sexp (fun t ->
      Sexp.of_string (Sexp.to_string t) = t && Sexp.of_string (Sexp.to_string_hum t) = t)

let prop_float_atoms_roundtrip =
  QCheck2.Test.make ~name:"float atoms roundtrip exactly" ~count:300
    QCheck2.Gen.(float_range (-1e9) 1e9)
    (fun x -> Sexp.as_float (Sexp.of_string (Sexp.to_string (Sexp.float x))) = x)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "categorical frequencies" `Quick test_rng_categorical_frequencies;
          Alcotest.test_case "categorical errors" `Quick test_rng_categorical_errors;
          Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
        ] );
      ("rng-cdf", [ QCheck_alcotest.to_alcotest prop_draw_is_categorical ]);
      ( "arrayx",
        [
          Alcotest.test_case "kahan sum" `Quick test_sum_kahan;
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "max index" `Quick test_max_index;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "xlogx" `Quick test_xlogx;
          Alcotest.test_case "float equal" `Quick test_float_equal;
          Alcotest.test_case "fold_lefti" `Quick test_fold_lefti;
          Alcotest.test_case "init_matrix" `Quick test_init_matrix;
        ] );
      ( "fmt",
        [
          Alcotest.test_case "table render" `Quick test_tablefmt_render;
          Alcotest.test_case "ragged rows" `Quick test_tablefmt_ragged;
          Alcotest.test_case "float cell" `Quick test_float_cell;
          Alcotest.test_case "bytesize" `Quick test_bytesize;
        ] );
      ( "sexp",
        [
          Alcotest.test_case "roundtrip simple" `Quick test_sexp_roundtrip_simple;
          Alcotest.test_case "quoting" `Quick test_sexp_quoting;
          Alcotest.test_case "hum roundtrip" `Quick test_sexp_hum_roundtrip;
          Alcotest.test_case "errors" `Quick test_sexp_errors;
          Alcotest.test_case "comments and files" `Quick test_sexp_comments_and_file;
          Alcotest.test_case "accessors" `Quick test_sexp_accessors;
        ] );
      ( "sexp-properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sexp_roundtrip; prop_float_atoms_roundtrip ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_normalize_sums_to_one; prop_sample_wor_distinct; prop_median_between_bounds ]
      );
    ]
