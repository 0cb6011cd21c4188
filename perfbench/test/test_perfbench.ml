(* Self-tests of the served-estimate benchmark: its generators, its
   metric catalog and its result line. *)

open Perfbench
module W = Workloads
module Squery = Selest.Db.Squery
module Canon = Selest.Serve.Canon

let db = Selest.Synth.Tb.generate ~patients:60 ~contacts:200 ~strains:40 ~seed:1 ()
let symtab = Squery.Symtab.of_schema (Selest.Db.Database.schema db)

(* The canonical query the server would build from a body. *)
let to_query body =
  let sq = Squery.create symtab in
  Squery.parse sq (Bytes.of_string body) ~off:0 ~len:(String.length body);
  Squery.canon sq;
  let q = Squery.to_query sq in
  Selest.Db.Exec.validate db q;
  q

let distinct l = List.length (List.sort_uniq compare l)

let test_deterministic () =
  List.iter
    (fun spec ->
      let a = W.stream spec ~seed:7 ~n:3000 and b = W.stream spec ~seed:7 ~n:3000 in
      Alcotest.(check bool) (spec.W.name ^ " same seed, same stream") true (a = b);
      let c = W.stream spec ~seed:8 ~n:3000 in
      Alcotest.(check bool) (spec.W.name ^ " other seed, other stream") false (a = c);
      Alcotest.(check bool) (spec.W.name ^ " fixed q-error set") true (W.eval_bodies spec = W.eval_bodies spec))
    W.all

let test_hot () =
  let bodies, idx = W.stream W.tb_hot ~seed:3 ~n:2000 in
  Alcotest.(check int) "bodies" 256 (Array.length bodies);
  let qs = Array.to_list (Array.map to_query bodies) in
  Alcotest.(check int) "distinct canonical queries" 256 (distinct (List.map Canon.key qs));
  Alcotest.(check int) "skeletons" 4 (distinct (List.map Canon.skeleton_key qs));
  Alcotest.(check int) "any 256 consecutive estimates cover every query" 256
    (distinct (Array.to_list (Array.sub idx 1000 256)))

let test_miss () =
  let bodies, idx = W.stream W.tb_miss ~seed:3 ~n:6000 in
  Alcotest.(check bool) "one body per estimate, in order" true (idx = Array.init 6000 Fun.id);
  let qs = Array.to_list (Array.map to_query bodies) in
  Alcotest.(check int) "pairwise distinct after canonicalization" 6000 (distinct (List.map Canon.key qs));
  Alcotest.(check int) "skeletons" 4 (distinct (List.map Canon.skeleton_key qs));
  List.iter
    (fun q ->
      Alcotest.(check bool) "selects >= 10 attributes" true
        (List.length q.Selest.Db.Query.selects >= 10))
    qs

let test_reload () =
  let bodies, idx = W.stream W.tb_reload ~seed:3 ~n:2000 in
  Alcotest.(check int) "bodies" 64 (Array.length bodies);
  let qs = Array.to_list (Array.map to_query bodies) in
  Alcotest.(check int) "distinct skeletons" 64 (distinct (List.map Canon.skeleton_key qs));
  Alcotest.(check int) "any 64 consecutive estimates cover every skeleton" 64
    (distinct (Array.to_list (Array.sub idx 1000 64)))

let test_eval_sets () =
  Alcotest.(check (list int)) "q-error set sizes" [ 256; 256; 64 ]
    (List.map (fun s -> Array.length (W.eval_bodies s)) W.all);
  List.iter (fun s -> Array.iter (fun b -> ignore (to_query b)) (W.eval_bodies s)) W.all;
  let narrow = Array.to_list (Array.map to_query (W.eval_bodies W.tb_miss)) in
  Alcotest.(check int) "tb_miss q-error queries distinct" 256 (distinct (List.map Canon.key narrow));
  List.iter
    (fun q ->
      let k = List.length q.Selest.Db.Query.selects in
      Alcotest.(check bool) "tb_miss q-error queries select 2-4 attributes" true (k >= 2 && k <= 4))
    narrow

let test_names () =
  List.iter
    (fun m ->
      Alcotest.(check bool) ("name " ^ m.Catalog.name) true (Catalog.valid_name m.Catalog.name);
      Alcotest.(check bool) ("unit " ^ m.Catalog.unit) true (Catalog.valid_unit m.Catalog.unit))
    (Catalog.end_to_end @ Catalog.per_layer);
  let names = List.map (fun m -> m.Catalog.name) (Catalog.end_to_end @ Catalog.per_layer) in
  Alcotest.(check int) "names used once" (List.length names) (distinct names)

(* BENCHMARK.json lists exactly the catalog's metrics and workloads. *)
let test_benchmark_json () =
  let j = Json.of_string (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) in
  let listed key =
    match Json.member key j with
    | Some (Json.Arr l) ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m, Json.member "better" m) with
          | Some (Json.Str n), Some (Json.Str u), Some (Json.Str b) -> (n, u, b)
          | _ -> Alcotest.fail ("malformed entry in " ^ key))
        l
    | _ -> Alcotest.fail ("no " ^ key)
  in
  let ours l =
    List.map
      (fun m -> (m.Catalog.name, m.Catalog.unit, match m.Catalog.better with `Lower -> "lower" | `Higher -> "higher"))
      l
  in
  Alcotest.(check (list (triple string string string))) "end_to_end" (ours Catalog.end_to_end) (listed "end_to_end");
  Alcotest.(check (list (triple string string string))) "per_layer" (ours Catalog.per_layer) (listed "per_layer");
  let workloads =
    match Json.member "workloads" j with
    | Some (Json.Arr l) -> List.map (fun w -> match Json.member "name" w with Some (Json.Str n) -> n | _ -> "") l
    | _ -> []
  in
  Alcotest.(check (list string)) "workloads" (List.map (fun s -> s.W.name) W.all) workloads

let test_result_json () =
  let metrics = List.mapi (fun i m -> (m, 1.0 +. (float_of_int i /. 3.0))) Catalog.end_to_end in
  let line = Catalog.result_json ~correct:true ~attempted:1234 ~failed:0 metrics in
  Alcotest.(check bool) "one line" false (String.contains line '\n');
  let j = Json.of_string line in
  Alcotest.(check bool) "correct" true (Json.member "correct" j = Some (Json.Bool true));
  Alcotest.(check bool) "attempted" true (Json.member "attempted" j = Some (Json.Num 1234.0));
  Alcotest.(check bool) "failed" true (Json.member "failed" j = Some (Json.Num 0.0));
  match Json.member "metrics" j with
  | Some (Json.Obj ms) ->
    List.iter2
      (fun (m, v) (name, o) ->
        Alcotest.(check string) "name" m.Catalog.name name;
        Alcotest.(check bool) (name ^ " value, all digits") true (Json.member "value" o = Some (Json.Num v));
        Alcotest.(check bool) (name ^ " unit") true (Json.member "unit" o = Some (Json.Str m.Catalog.unit)))
      metrics ms
  | _ -> Alcotest.fail "no metrics object"

let () =
  Alcotest.run "perfbench"
    [
      ( "generators",
        [
          Alcotest.test_case "deterministic per seed" `Quick test_deterministic;
          Alcotest.test_case "tb_hot has 256 queries" `Quick test_hot;
          Alcotest.test_case "tb_miss never repeats" `Quick test_miss;
          Alcotest.test_case "tb_reload has 64 skeletons" `Quick test_reload;
          Alcotest.test_case "q-error sets" `Quick test_eval_sets;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "BENCHMARK.json agrees" `Quick test_benchmark_json;
          Alcotest.test_case "result line parses" `Quick test_result_json;
        ] );
    ]
