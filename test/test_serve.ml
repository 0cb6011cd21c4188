open Selest_db
open Selest_serve

let check_float = Alcotest.(check (float 1e-6))

(* Small TB database + learned PRM shared by the registry/server tests. *)
let db = lazy (Selest_synth.Tb.generate ~patients:300 ~contacts:2_000 ~strains:250 ~seed:33 ())
let model = lazy (Selest_prm.Learn.learn_prm ~budget_bytes:2_048 ~seed:7 (Lazy.force db))

(* ---- Canon ---------------------------------------------------------------- *)

let tb_query ?(joins = [ "c.patient=p" ]) selects =
  Qparse.parse (Lazy.force db) ~tvars:[ "c=contact"; "p=patient" ] ~joins ~selects ()

let test_canon_pred_normalization () =
  let q sels = Canon.key (tb_query sels) in
  Alcotest.(check string) "set sorted+deduped"
    (q [ "c.Contype={household,roommate}" ])
    (q [ "c.Contype={roommate,household,roommate}" ]);
  Alcotest.(check string) "singleton set = Eq" (q [ "p.USBorn=1" ]) (q [ "p.USBorn={1}" ]);
  Alcotest.(check string) "one-point range = Eq" (q [ "p.Age=2" ]) (q [ "p.Age=2..2" ]);
  Alcotest.(check bool) "distinct predicates stay distinct" false
    (q [ "p.Age=1..3" ] = q [ "p.Age=1..4" ])

let test_canon_clause_order () =
  Alcotest.(check string) "select order irrelevant"
    (Canon.key (tb_query [ "p.USBorn=1"; "c.Contype=2" ]))
    (Canon.key (tb_query [ "c.Contype=2"; "p.USBorn=1" ]));
  let forward =
    Qparse.parse (Lazy.force db) ~tvars:[ "c=contact"; "p=patient" ]
      ~joins:[ "c.patient=p" ] ~selects:[ "p.USBorn=1" ] ()
  in
  let reversed =
    Qparse.parse (Lazy.force db) ~tvars:[ "p=patient"; "c=contact" ]
      ~joins:[ "c.patient=p" ] ~selects:[ "p.USBorn=1" ] ()
  in
  Alcotest.(check string) "tvar order irrelevant" (Canon.key forward) (Canon.key reversed)

let test_canon_normalize_preserves_semantics () =
  let q = tb_query [ "p.Age={3,1,1}"; "c.Age=2..2" ] in
  let n = Canon.normalize q in
  Alcotest.(check int) "same select count"
    (List.length q.Query.selects) (List.length n.Query.selects);
  List.iter
    (fun s' ->
      let s =
        List.find
          (fun s -> s.Query.sel_tv = s'.Query.sel_tv && s.Query.sel_attr = s'.Query.sel_attr)
          q.Query.selects
      in
      for v = 0 to 10 do
        Alcotest.(check bool)
          (Printf.sprintf "pred_holds %d" v)
          (Query.pred_holds s.Query.pred v)
          (Query.pred_holds s'.Query.pred v)
      done)
    n.Query.selects

(* Property: the cache key is invariant under shuffling tuple variables,
   joins, selects and the values inside a set predicate. *)
let prop_canon_order_insensitive =
  let open QCheck2.Gen in
  let gen_pred =
    oneof
      [
        (int_range 0 5 >|= fun v -> Query.Eq v);
        (list_size (int_range 1 4) (int_range 0 5) >|= fun vs -> Query.In_set vs);
        (pair (int_range 0 5) (int_range 0 5) >|= fun (a, b) -> Query.Range (a, b));
      ]
  in
  let gen_select =
    let* tv = oneofl [ "c"; "p" ] in
    let* attr = oneofl [ "x"; "y"; "z" ] in
    let* pred = gen_pred in
    return { Query.sel_tv = tv; sel_attr = attr; pred }
  in
  let shuffle_pred = function
    | Query.In_set vs -> shuffle_l vs >|= fun vs -> Query.In_set vs
    | p -> return p
  in
  let gen_case =
    let* selects = list_size (int_range 0 6) gen_select in
    let* shuffled = shuffle_l selects in
    let* shuffled =
      flatten_l
        (List.map
           (fun s -> shuffle_pred s.Query.pred >|= fun pred -> { s with Query.pred })
           shuffled)
    in
    let* tvars = shuffle_l [ ("c", "contact"); ("p", "patient") ] in
    return (selects, shuffled, tvars)
  in
  QCheck2.Test.make ~name:"canonical key is order-insensitive" ~count:500 gen_case
    (fun (selects, shuffled, tvars) ->
      let joins = [ Query.join ~child:"c" ~fk:"patient" ~parent:"p" ] in
      let q1 =
        Query.create ~tvars:[ ("c", "contact"); ("p", "patient") ] ~joins ~selects ()
      in
      let q2 = Query.create ~tvars ~joins ~selects:shuffled () in
      Canon.key q1 = Canon.key q2)

(* ---- Lru ------------------------------------------------------------------- *)

(* A minimal entry: empty vec snapshot, 3-byte text response, no binary
   frame or model name — each costs 3 + Bytesize.per_param = 7 bytes. *)
let ent ?(text = "abc") v =
  { Lru.est = v; text; bin = ""; vec = Squery.Vec.empty; model = ""; version = 1 }

let test_lru_hit_miss_counters () =
  let c = Lru.create ~capacity_bytes:1_000 in
  Alcotest.(check bool) "empty" true
    (match Lru.find c 0 with _ -> false | exception Not_found -> true);
  Lru.add c 0 (ent 42.0);
  check_float "hit" 42.0 (Lru.find c 0).Lru.est;
  Alcotest.(check int) "hits" 1 (Lru.hits c);
  Alcotest.(check int) "misses" 1 (Lru.misses c);
  Alcotest.(check int) "no evictions" 0 (Lru.evictions c)

let test_lru_eviction_order () =
  (* capacity for exactly three 7-byte entries *)
  let c = Lru.create ~capacity_bytes:21 in
  Lru.add c 1 (ent 1.0);
  Lru.add c 2 (ent 2.0);
  Lru.add c 3 (ent 3.0);
  (* touch 1 so 2 is now the coldest *)
  ignore (Lru.find c 1);
  Lru.add c 4 (ent 4.0);
  Alcotest.(check bool) "2 evicted" false (Lru.mem c 2);
  Alcotest.(check bool) "1 kept (recently used)" true (Lru.mem c 1);
  Alcotest.(check bool) "3 kept" true (Lru.mem c 3);
  Alcotest.(check int) "one eviction" 1 (Lru.evictions c);
  Alcotest.(check (list int)) "recency order" [ 4; 1; 3 ] (Lru.hashes_hot_first c)

let test_lru_byte_budget () =
  let c = Lru.create ~capacity_bytes:21 in
  for i = 0 to 9 do
    Lru.add c i (ent (float_of_int i))
  done;
  Alcotest.(check bool) "within budget" true (Lru.bytes c <= Lru.capacity_bytes c);
  Alcotest.(check int) "three entries fit" 3 (Lru.length c);
  Alcotest.(check int) "bytes accounted" 21 (Lru.bytes c);
  Alcotest.(check int) "seven evictions" 7 (Lru.evictions c);
  (* refreshing an existing hash must not change accounting *)
  Lru.add c 9 (ent 99.0);
  Alcotest.(check int) "refresh is byte-neutral" 21 (Lru.bytes c);
  check_float "refresh updates value" 99.0 (Lru.find c 9).Lru.est

let test_lru_oversized_entry () =
  let c = Lru.create ~capacity_bytes:8 in
  Lru.add c 7 (ent ~text:"a-response-larger-than-the-whole-budget" 1.0);
  Alcotest.(check int) "immediately evicted" 0 (Lru.length c);
  Alcotest.(check int) "bytes zero" 0 (Lru.bytes c)

let test_lru_collision_recount () =
  let c = Lru.create ~capacity_bytes:1_000 in
  Lru.add c 5 (ent 1.0);
  ignore (Lru.find c 5);
  (* the server found the hash but full-key verification failed *)
  Lru.collision c;
  Alcotest.(check int) "hit recounted away" 0 (Lru.hits c);
  Alcotest.(check int) "counted as miss" 1 (Lru.misses c);
  Alcotest.(check int) "collision recorded" 1 (Lru.collisions c);
  (* the colliding query overwrites the resident entry *)
  Lru.add c 5 (ent 2.0);
  check_float "newest wins" 2.0 (Lru.find c 5).Lru.est;
  Alcotest.(check int) "still one entry" 1 (Lru.length c)

(* ---- Metrics ---------------------------------------------------------------- *)

let test_metrics_counters () =
  let m = Metrics.create () in
  Metrics.incr m "requests";
  Metrics.incr m "requests";
  Metrics.incr ~by:3 m "loads";
  Alcotest.(check int) "requests" 2 (Metrics.get m "requests");
  Alcotest.(check int) "loads" 3 (Metrics.get m "loads");
  Alcotest.(check int) "absent" 0 (Metrics.get m "nope");
  Alcotest.(check (list (pair string int))) "sorted"
    [ ("loads", 3); ("requests", 2) ]
    (Metrics.counters m)

let test_metrics_concurrent_incr () =
  (* ESTBATCH workers bump counters from several domains at once; the
     mutex must not lose increments or observations. *)
  let m = Metrics.create () in
  let n_domains = 4 and per_domain = 25_000 in
  let worker () =
    for _ = 1 to per_domain do
      Metrics.incr m "shared";
      Metrics.observe m 10e-6
    done
  in
  let domains = List.init n_domains (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  Alcotest.(check int) "no lost increments" (n_domains * per_domain)
    (Metrics.get m "shared");
  Alcotest.(check int) "no lost observations" (n_domains * per_domain)
    (Metrics.observations m)

let test_metrics_report () =
  let m = Metrics.create () in
  Metrics.incr m "requests";
  Metrics.observe m 100e-6;
  let report = Metrics.report m in
  let f k = List.assoc_opt k report in
  Alcotest.(check (option string)) "counter listed" (Some "1") (f "requests");
  Alcotest.(check (option string)) "lat_count" (Some "1") (f "lat_count");
  Alcotest.(check bool) "quantization asymmetry documented" true
    (f "lat_quantization" <> None)

let test_metrics_percentiles () =
  let m = Metrics.create () in
  Alcotest.(check (float 0.0)) "empty p50" 0.0 (Metrics.percentile_us m 0.5);
  (* 50 fast requests at ~10us, 50 slow at ~1000us *)
  for _ = 1 to 50 do
    Metrics.observe m 10e-6
  done;
  for _ = 1 to 50 do
    Metrics.observe m 1000e-6
  done;
  Alcotest.(check int) "count" 100 (Metrics.observations m);
  let p50 = Metrics.percentile_us m 0.50 in
  let p99 = Metrics.percentile_us m 0.99 in
  Alcotest.(check bool) "p50 in fast band" true (p50 >= 10.0 && p50 < 20.0);
  Alcotest.(check bool) "p99 in slow band" true (p99 >= 1000.0 && p99 < 2000.0);
  Alcotest.(check bool) "mean between bands" true
    (Metrics.mean_latency_us m > 100.0 && Metrics.mean_latency_us m < 1000.0);
  Alcotest.(check bool) "monotone" true (p50 <= Metrics.percentile_us m 0.95)

(* ---- Protocol ---------------------------------------------------------------- *)

let test_protocol_parse () =
  let p = Protocol.parse_request in
  Alcotest.(check bool) "ping" true (p "ping" = Ok Protocol.Ping);
  Alcotest.(check bool) "stats" true (p "  STATS  " = Ok Protocol.Stats);
  Alcotest.(check bool) "shutdown" true (p "Shutdown" = Ok Protocol.Shutdown);
  Alcotest.(check bool) "load" true
    (p "LOAD census /tmp/m.prm" = Ok (Protocol.Load { name = "census"; path = "/tmp/m.prm" }));
  Alcotest.(check bool) "load arity" true (Result.is_error (p "LOAD census"));
  Alcotest.(check bool) "est default model" true
    (p "EST p=patient" = Ok (Protocol.Est { model = None; body = "p=patient" }));
  Alcotest.(check bool) "est named model" true
    (p "EST @census p=patient ; ; p.Age=1"
    = Ok (Protocol.Est { model = Some "census"; body = "p=patient ; ; p.Age=1" }));
  Alcotest.(check bool) "est empty" true (Result.is_error (p "EST"));
  Alcotest.(check bool) "unknown" true (Result.is_error (p "FROBNICATE 3"));
  Alcotest.(check bool) "empty" true (Result.is_error (p "   "))

let test_protocol_sections () =
  let tvars, joins, selects =
    Protocol.split_sections
      "c=contact, p=patient ; c.patient=p ; c.Contype={household,roommate}, p.Age=1..3"
  in
  Alcotest.(check (list string)) "tvars" [ "c=contact"; "p=patient" ] tvars;
  Alcotest.(check (list string)) "joins" [ "c.patient=p" ] joins;
  Alcotest.(check (list string)) "braced comma survives"
    [ "c.Contype={household,roommate}"; "p.Age=1..3" ]
    selects;
  let tvars, joins, selects = Protocol.split_sections "p=patient ;; p.Age=2" in
  Alcotest.(check int) "empty join section" 0 (List.length joins);
  Alcotest.(check int) "tvars" 1 (List.length tvars);
  Alcotest.(check int) "selects" 1 (List.length selects);
  Alcotest.(check bool) "too many sections" true
    (try
       ignore (Protocol.split_sections "a;b;c;d");
       false
     with Failure _ -> true)

let test_protocol_responses () =
  Alcotest.(check string) "ok payload" "OK 12.5" (Protocol.ok "12.5");
  Alcotest.(check string) "bare ok" "OK" (Protocol.ok "");
  Alcotest.(check string) "err one line" "ERR a b" (Protocol.err "a\nb");
  Alcotest.(check bool) "pong is ok" true (Protocol.is_ok Protocol.pong);
  Alcotest.(check bool) "err detected" true (Protocol.is_err (Protocol.err "x"));
  Alcotest.(check string) "payload" "12.5" (Protocol.payload "OK 12.5");
  Alcotest.(check (option string)) "stats field" (Some "7")
    (Protocol.stats_field "OK cache_hits=7 cache_misses=3" "cache_hits");
  Alcotest.(check (option string)) "stats field absent" None
    (Protocol.stats_field "OK cache_hits=7" "nope")

let test_protocol_estbatch_parse () =
  let p = Protocol.parse_request in
  Alcotest.(check bool) "single body" true
    (p "ESTBATCH p=patient ; ; p.Age=1"
    = Ok (Protocol.Estbatch { model = None; bodies = [ "p=patient ; ; p.Age=1" ] }));
  Alcotest.(check bool) "split on ||" true
    (p "ESTBATCH a ;; x || b ;; y || c ;; z"
    = Ok (Protocol.Estbatch { model = None; bodies = [ "a ;; x"; "b ;; y"; "c ;; z" ] }));
  Alcotest.(check bool) "named model" true
    (p "ESTBATCH @census p=patient ;; p.Age=1 || p=patient ;; p.Age=2"
    = Ok
        (Protocol.Estbatch
           {
             model = Some "census";
             bodies = [ "p=patient ;; p.Age=1"; "p=patient ;; p.Age=2" ];
           }));
  Alcotest.(check bool) "braced commas survive" true
    (p "ESTBATCH p=patient ;; p.Age={1,2} || p=patient ;; p.Age=3"
    = Ok
        (Protocol.Estbatch
           { model = None; bodies = [ "p=patient ;; p.Age={1,2}"; "p=patient ;; p.Age=3" ] }));
  Alcotest.(check bool) "no bodies" true (Result.is_error (p "ESTBATCH"));
  Alcotest.(check bool) "bare @model" true (Result.is_error (p "ESTBATCH @census"));
  Alcotest.(check bool) "empty model name" true (Result.is_error (p "ESTBATCH @ x"));
  Alcotest.(check bool) "empty body in batch" true (Result.is_error (p "ESTBATCH a || "))

let test_protocol_obs_verbs () =
  let p = Protocol.parse_request in
  Alcotest.(check bool) "explain" true
    (p "EXPLAIN p=patient ; ; p.Age=1"
    = Ok (Protocol.Explain { model = None; body = "p=patient ; ; p.Age=1" }));
  Alcotest.(check bool) "explain named model" true
    (p "explain @tb p=patient" = Ok (Protocol.Explain { model = Some "tb"; body = "p=patient" }));
  Alcotest.(check bool) "explain empty" true (Result.is_error (p "EXPLAIN"));
  Alcotest.(check bool) "truth" true
    (p "TRUTH 120 p=patient ; ; p.Age=1"
    = Ok (Protocol.Truth { model = None; truth = 120.0; body = "p=patient ; ; p.Age=1" }));
  Alcotest.(check bool) "truth named model" true
    (p "TRUTH @tb 3.5 p=patient"
    = Ok (Protocol.Truth { model = Some "tb"; truth = 3.5; body = "p=patient" }));
  Alcotest.(check bool) "truth bad number" true (Result.is_error (p "TRUTH abc p=patient"));
  Alcotest.(check bool) "truth negative" true (Result.is_error (p "TRUTH -1 p=patient"));
  Alcotest.(check bool) "truth missing body" true (Result.is_error (p "TRUTH 12"));
  Alcotest.(check bool) "metrics" true (p "METRICS" = Ok Protocol.Metrics);
  Alcotest.(check bool) "health" true (p "HEALTH" = Ok Protocol.Health);
  Alcotest.(check bool) "health case" true (p "health" = Ok Protocol.Health);
  Alcotest.(check bool) "slowlog bare" true
    (p "SLOWLOG" = Ok (Protocol.Slowlog { n = None }));
  Alcotest.(check bool) "slowlog count" true
    (p "slowlog 7" = Ok (Protocol.Slowlog { n = Some 7 }));
  Alcotest.(check bool) "slowlog bad count" true (Result.is_error (p "SLOWLOG x"));
  Alcotest.(check bool) "slowlog zero" true (Result.is_error (p "SLOWLOG 0"));
  (* multi-line framing *)
  Alcotest.(check string) "multiline header" "OK lines=2\na\nb"
    (Protocol.ok_multiline "a\nb\n");
  Alcotest.(check string) "empty multiline" "OK lines=0" (Protocol.ok_multiline "");
  Alcotest.(check int) "extra lines" 2 (Protocol.extra_lines "OK lines=2");
  Alcotest.(check int) "single-line response" 0 (Protocol.extra_lines "OK 42");
  Alcotest.(check int) "err response" 0 (Protocol.extra_lines "ERR nope")

(* ---- Registry ----------------------------------------------------------------- *)

let test_registry_versions () =
  let db0 = Lazy.force db in
  let m = Lazy.force model in
  let r = Registry.create ~schema:(Database.schema db0) in
  Alcotest.(check bool) "empty default" true (Registry.default r = None);
  let e1 = Registry.register r ~name:"tb" m in
  Alcotest.(check int) "first version" 1 e1.Registry.version;
  let e2 = Registry.register r ~name:"tb" m in
  Alcotest.(check int) "hot reload bumps version" 2 e2.Registry.version;
  let path = Filename.temp_file "selest" ".prm" in
  Selest_prm.Serialize.save path m;
  let e3 = Registry.load r ~name:"tb" ~path in
  Sys.remove path;
  Alcotest.(check int) "load bumps again" 3 e3.Registry.version;
  Alcotest.(check string) "source recorded" path e3.Registry.source;
  Alcotest.(check string) "fingerprint matches registry"
    (Registry.schema_fingerprint r) e3.Registry.fingerprint;
  (match Registry.default r with
  | Some ("tb", e) -> Alcotest.(check int) "default is latest" 3 e.Registry.version
  | _ -> Alcotest.fail "default missing");
  Alcotest.(check int) "one name" 1 (Registry.size r)

let test_registry_rejects_bad_files () =
  let db0 = Lazy.force db in
  let r = Registry.create ~schema:(Database.schema db0) in
  let rejects path =
    try
      ignore (Registry.load r ~name:"bad" ~path);
      false
    with Selest_prm.Serialize.Error _ -> true
  in
  Alcotest.(check bool) "missing file" true (rejects "/nonexistent/model.prm");
  let garbage = Filename.temp_file "selest" ".prm" in
  let oc = open_out garbage in
  output_string oc "(not-a-model 42)";
  close_out oc;
  Alcotest.(check bool) "garbage file" true (rejects garbage);
  Sys.remove garbage;
  Alcotest.(check int) "registry unchanged" 0 (Registry.size r);
  (* a model for a different schema must be rejected on register too *)
  let census = Selest_synth.Census.generate ~rows:500 ~seed:1 () in
  let census_reg = Registry.create ~schema:(Database.schema census) in
  Alcotest.(check bool) "schema mismatch on register" true
    (try
       ignore (Registry.register census_reg ~name:"tb" (Lazy.force model));
       false
     with Invalid_argument _ -> true)

(* ---- Server (transport-free) ---------------------------------------------------- *)

let fresh_server () =
  let db0 = Lazy.force db in
  let server = Server.create ~db:db0 ~socket:"(test: unused)" () in
  ignore (Registry.register (Server.registry server) ~name:"default" (Lazy.force model));
  server

let test_server_handle_line () =
  let server = fresh_server () in
  let ask line = fst (Server.handle_line server line) in
  Alcotest.(check string) "ping" "PONG" (ask "PING");
  let est = ask "EST c=contact, p=patient ; c.patient=p ; p.USBorn=1" in
  Alcotest.(check bool) "est ok" true (Protocol.is_ok est);
  let direct =
    Selest_plan.Estimate.estimate (Lazy.force model)
      ~sizes:(Selest_plan.Estimate.sizes_of_db (Lazy.force db))
      (tb_query [ "p.USBorn=1" ])
  in
  check_float "matches direct API" direct (float_of_string (Protocol.payload est));
  Alcotest.(check bool) "unknown model" true (Protocol.is_err (ask "EST @nope p=patient"));
  Alcotest.(check bool) "bad query" true (Protocol.is_err (ask "EST z=zebra"));
  Alcotest.(check bool) "bad value" true
    (Protocol.is_err (ask "EST p=patient ; ; p.USBorn=999"));
  Alcotest.(check bool) "still serving" true (ask "PING" = "PONG");
  let stats = ask "STATS" in
  Alcotest.(check (option string)) "errors counted" (Some "3")
    (Protocol.stats_field stats "est_errors")

let test_server_explainplan () =
  let server = fresh_server () in
  let ask line = fst (Server.handle_line server line) in
  let resp =
    ask "EXPLAINPLAN c=contact, p=patient ; c.patient=p ; p.USBorn=1, c.Contype=2"
  in
  Alcotest.(check bool) "ok multi-line" true (Protocol.is_ok resp);
  Alcotest.(check bool) "announces extra lines" true
    (Protocol.extra_lines (List.hd (String.split_on_char '\n' resp)) > 0);
  let has sub =
    let n = String.length resp and m = String.length sub in
    let rec go i = i + m <= n && (String.sub resp i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "renders the join" true (has "hash_join c.patient=p");
  Alcotest.(check bool) "renders estimates" true (has "est=");
  Alcotest.(check bool) "renders actuals" true (has "actual=");
  Alcotest.(check bool) "renders the C_out summary" true (has "C_out:");
  (* actual cardinality of the final join = the exact result size *)
  let truth =
    Selest_db.Exec.query_size (Lazy.force db)
      (tb_query [ "p.USBorn=1"; "c.Contype=2" ])
  in
  Alcotest.(check bool) "actual rows are exact" true
    (has (Printf.sprintf "(actual=%.0f rows" truth));
  (* single tuple variable: a plain scan plan, no optimization needed *)
  let single = ask "EXPLAINPLAN p=patient ; ; p.USBorn=1" in
  Alcotest.(check bool) "single-tv ok" true (Protocol.is_ok single);
  (* errors stay single-line ERR, the server keeps serving *)
  Alcotest.(check bool) "bad query is ERR" true
    (Protocol.is_err (ask "EXPLAINPLAN z=zebra"));
  Alcotest.(check string) "still serving" "PONG" (ask "PING")

let test_server_estbatch () =
  (* Two servers over the same db/model: one answers each query through
     sequential EST, the other with one ESTBATCH on a cold cache.
     Payloads must match character for character — %.17g round-trips
     doubles exactly, so string equality is bit-identity. *)
  let bodies =
    [
      "c=contact, p=patient ; c.patient=p ; p.USBorn=1";
      "c=contact, p=patient ; c.patient=p ; c.Contype=2, p.USBorn=0";
      "p=patient ; ; p.USBorn=1";
      (* same canonical key as the previous body: exercises miss dedup *)
      "p=patient ; ; p.USBorn={1}";
    ]
  in
  let seq_server = fresh_server () in
  let seq =
    List.map
      (fun b -> Protocol.payload (fst (Server.handle_line seq_server ("EST " ^ b))))
      bodies
  in
  let batch_server = fresh_server () in
  let line = "ESTBATCH " ^ String.concat " || " bodies in
  let reply = fst (Server.handle_line batch_server line) in
  Alcotest.(check bool) "batch ok" true (Protocol.is_ok reply);
  Alcotest.(check (list string)) "bit-identical to sequential EST" seq
    (String.split_on_char ' ' (Protocol.payload reply));
  (* the last two bodies share one canonical key: only three inferences ran *)
  Alcotest.(check int) "misses deduped" 3
    (Metrics.get (Server.metrics batch_server) "infer.default");
  (* a second identical batch is answered entirely from the cache *)
  Alcotest.(check string) "cache-served batch identical" reply
    (fst (Server.handle_line batch_server line));
  Alcotest.(check int) "no new inferences" 3
    (Metrics.get (Server.metrics batch_server) "infer.default");
  (* all-or-nothing: one bad body fails the whole batch with its index *)
  let err = fst (Server.handle_line batch_server "ESTBATCH p=patient ; ; p.USBorn=1 || z=zebra") in
  Alcotest.(check bool) "all-or-nothing" true (Protocol.is_err err);
  Alcotest.(check bool) "error names the query" true
    (String.length err >= 12 && String.sub err 0 12 = "ERR query 2:");
  Alcotest.(check bool) "unknown model" true
    (Protocol.is_err (fst (Server.handle_line batch_server "ESTBATCH @nope p=patient ;; p.USBorn=1")))

(* ---- end-to-end over the socket --------------------------------------------------- *)

let test_socket_round_trip () =
  let db0 = Lazy.force db in
  let m = Lazy.force model in
  let model_path = Filename.temp_file "selest" ".prm" in
  Selest_prm.Serialize.save model_path m;
  let socket = Filename.temp_file "selest" ".sock" in
  Sys.remove socket;
  let server = Server.create ~db:db0 ~socket () in
  let thread = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Thread.join thread;
      Sys.remove model_path)
    (fun () ->
      Client.with_connection ~retries:100 ~socket (fun c ->
          Alcotest.(check string) "ping" "PONG" (Client.request c "PING");
          (* estimating before any model is loaded is a protocol error *)
          Alcotest.(check bool) "no model yet" true
            (Protocol.is_err (Client.request c "EST p=patient ; ; p.USBorn=1"));
          (* a bad model path is rejected without killing the server *)
          Alcotest.(check bool) "bad load rejected" true
            (Protocol.is_err (Client.request c "LOAD tb /nonexistent.prm"));
          let loaded = Client.request c (Printf.sprintf "LOAD tb %s" model_path) in
          Alcotest.(check bool) "load ok" true (Protocol.is_ok loaded);
          (* same query twice, written differently: one miss then one hit *)
          let e1 =
            Client.request c "EST c=contact, p=patient ; c.patient=p ; p.USBorn=1, c.Contype=2"
          in
          let e2 =
            Client.request c "EST p=patient, c=contact ; c.patient=p ; c.Contype={2}, p.USBorn=1"
          in
          Alcotest.(check bool) "est ok" true (Protocol.is_ok e1 && Protocol.is_ok e2);
          check_float "both answers equal"
            (float_of_string (Protocol.payload e1))
            (float_of_string (Protocol.payload e2));
          let direct =
            Selest_plan.Estimate.estimate m
              ~sizes:(Selest_plan.Estimate.sizes_of_db db0)
              (tb_query [ "p.USBorn=1"; "c.Contype=2" ])
          in
          check_float "equals the direct Est API" direct
            (float_of_string (Protocol.payload e1));
          let stats = Client.request c "STATS" in
          Alcotest.(check (option string)) "one miss" (Some "1")
            (Protocol.stats_field stats "cache_misses");
          Alcotest.(check (option string)) "one hit" (Some "1")
            (Protocol.stats_field stats "cache_hits");
          (* malformed query: ERR, connection and server both survive *)
          Alcotest.(check bool) "malformed query" true
            (Protocol.is_err (Client.request c "EST utter garbage"));
          Alcotest.(check string) "still alive" "PONG" (Client.request c "PING");
          Alcotest.(check string) "shutdown" "OK bye" (Client.request c "SHUTDOWN")));
  Alcotest.(check bool) "socket removed after join" false (Sys.file_exists socket)

(* A TRUTH whose q-error crosses the gate must land in the slow-log with
   a replayed span tree, and HEALTH must report it — all through a real
   socket, so the multi-line framing is exercised too. *)
let test_socket_slowlog_capture () =
  let contains line sub =
    let n = String.length sub in
    let rec probe i =
      i + n <= String.length line && (String.sub line i n = sub || probe (i + 1))
    in
    probe 0
  in
  let db0 = Lazy.force db in
  let m = Lazy.force model in
  let model_path = Filename.temp_file "selest" ".prm" in
  Selest_prm.Serialize.save model_path m;
  let socket = Filename.temp_file "selest" ".sock" in
  Sys.remove socket;
  let server = Server.create ~qerror_gate:50.0 ~db:db0 ~socket () in
  let thread = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Thread.join thread;
      Sys.remove model_path)
    (fun () ->
      Client.with_connection ~retries:100 ~socket (fun c ->
          Alcotest.(check bool) "load ok" true
            (Protocol.is_ok (Client.request c (Printf.sprintf "LOAD tb %s" model_path)));
          Alcotest.(check bool) "est ok" true
            (Protocol.is_ok (Client.request c "EST p=patient ; ; p.USBorn=1"));
          (* absurd ground truth: the q-error crosses the gate *)
          Alcotest.(check bool) "truth ok" true
            (Protocol.is_ok (Client.request c "TRUTH 1e12 p=patient ; ; p.USBorn=1"));
          let sl = Client.request c "SLOWLOG 5" in
          Alcotest.(check bool) "slowlog ok" true (Protocol.is_ok sl);
          let lines = String.split_on_char '\n' sl in
          Alcotest.(check bool) "qerror capture listed" true
            (List.exists
               (fun l -> contains l "reason=qerror" && contains l "verb=truth")
               lines);
          Alcotest.(check bool) "span tree replayed" true
            (List.exists (fun l -> contains l "span est.parse") lines);
          Alcotest.(check bool) "bytecode engine spans present" true
            (List.exists (fun l -> contains l "span exec.run") lines);
          Alcotest.(check bool) "no generic engine spans" false
            (List.exists (fun l -> contains l "span ve.") lines);
          (* the backing ring agrees with the text dump *)
          (match Selest_obs.Slowlog.recent ~n:1 (Server.slowlog server) with
          | [ e ] ->
            Alcotest.(check string) "ring verb" "truth" e.Selest_obs.Slowlog.verb;
            Alcotest.(check bool) "ring qerror recorded" true
              (match e.Selest_obs.Slowlog.qerror with
              | Some q -> q > 50.0
              | None -> false)
          | _ -> Alcotest.fail "expected one slow-log entry");
          let h = Client.request c "HEALTH" in
          Alcotest.(check bool) "health ok" true (Protocol.is_ok h);
          let hlines = String.split_on_char '\n' h in
          Alcotest.(check bool) "status line" true
            (List.exists (fun l -> contains l "status=") hlines);
          Alcotest.(check bool) "per-verb p999" true
            (List.exists
               (fun l -> contains l "verb=est" && contains l "p999_us=")
               hlines);
          Alcotest.(check bool) "latency slo line" true
            (List.exists (fun l -> contains l "slo=latency") hlines);
          Alcotest.(check bool) "qerror slo line" true
            (List.exists (fun l -> contains l "slo=qerror model=tb") hlines);
          Alcotest.(check bool) "slowlog summary counts capture" true
            (List.exists (fun l -> contains l "slowlog captured=1") hlines);
          Alcotest.(check string) "shutdown" "OK bye" (Client.request c "SHUTDOWN")))

(* ---- shard-per-domain ------------------------------------------------------------- *)

let contains line sub =
  let n = String.length sub in
  let rec probe i =
    i + n <= String.length line && (String.sub line i n = sub || probe (i + 1))
  in
  probe 0

(* Epoch publication: a pinned snapshot is immutable — a concurrent (or
   later) install can only affect later pins, never a snapshot already
   in hand. *)
let test_registry_epoch_pin () =
  let db0 = Lazy.force db in
  let m = Lazy.force model in
  let r = Registry.create ~schema:(Database.schema db0) in
  let s0 = Registry.Epoch.pin r in
  Alcotest.(check int) "empty epoch" 0 (Registry.Epoch.epoch s0);
  Alcotest.(check int) "empty size" 0 (Registry.Epoch.size s0);
  let e1 = Registry.register r ~name:"tb" m in
  let s1 = Registry.Epoch.pin r in
  Alcotest.(check int) "epoch bumped" 1 (Registry.Epoch.epoch s1);
  Alcotest.(check int) "old pin unchanged" 0 (Registry.Epoch.epoch s0);
  Alcotest.(check bool) "old pin still empty" true (Registry.Epoch.find s0 "tb" = None);
  (match Registry.Epoch.find s1 "tb" with
  | Some e -> Alcotest.(check int) "pinned version" e1.Registry.version e.Registry.version
  | None -> Alcotest.fail "entry missing from pinned snapshot");
  ignore (Registry.register r ~name:"tb" m);
  ignore (Registry.register r ~name:"other" m);
  let s2 = Registry.Epoch.pin r in
  Alcotest.(check int) "epoch counts installs" 3 (Registry.Epoch.epoch s2);
  Alcotest.(check int) "current_epoch agrees" 3 (Registry.Epoch.current_epoch r);
  (* the earlier pin still reads the version it was published with *)
  (match Registry.Epoch.find s1 "tb" with
  | Some e -> Alcotest.(check int) "old pin keeps version 1" 1 e.Registry.version
  | None -> Alcotest.fail "entry vanished from old snapshot");
  (* default is MRU: the most recently installed name *)
  (match Registry.Epoch.default s2 with
  | Some ("other", _) -> ()
  | _ -> Alcotest.fail "default should be the most recent install");
  Alcotest.(check (list string)) "names, MRU first" [ "other"; "tb" ]
    (Registry.Epoch.names s2)

(* The plan cache has one (domain-private, unsynchronized) mode. *)
let test_plan_cache_sync_modes () =
  let pc = Plan_cache.create () in
  let m = Lazy.force model in
  let q = tb_query [ "p.USBorn=1" ] in
  let compile () = Selest_plan.Plan.compile m q in
  let _, s1 = Plan_cache.find_or_compile pc ~hash:17 ~key:"k" ~compile in
  let _, s2 = Plan_cache.find_or_compile pc ~hash:17 ~key:"k" ~compile in
  Alcotest.(check bool) "miss then hit" true (s1 = `Miss && s2 = `Hit);
  let hits, misses, _ = Plan_cache.stats pc in
  Alcotest.(check (pair int int)) "stats" (1, 1) (hits, misses);
  (* same hash, different full key: detected, evicted, recompiled *)
  let _, s3 = Plan_cache.find_or_compile pc ~hash:17 ~key:"other" ~compile in
  Alcotest.(check bool) "collision is a miss" true (s3 = `Miss);
  Alcotest.(check int) "collision counted" 1 (Plan_cache.collisions pc)

(* q-error tables shard per domain and merge on read. *)
let test_qerror_shard_merge () =
  let mtr = Metrics.create () in
  Metrics.observe_qerror mtr "m" ~est:10.0 ~truth:100.0;
  Metrics.observe_qerror mtr "m" ~est:100.0 ~truth:10.0;
  (* writes from another domain land on that domain's shard *)
  let d =
    Domain.spawn (fun () -> Metrics.observe_qerror mtr "m" ~est:5.0 ~truth:50.0)
  in
  Domain.join d;
  let merged = Metrics.qerror_merged mtr "m" in
  Alcotest.(check int) "merged count sees both shards" 3
    (Selest_obs.Qerror.count merged);
  check_float "merged mean" 10.0 (Selest_obs.Qerror.mean merged);
  (* the calling domain's shard only holds its own writes *)
  Alcotest.(check int) "shard-local count" 2
    (Selest_obs.Qerror.count (Metrics.qerror_shard mtr "m"));
  Alcotest.(check bool) "shard tables are unsynchronized" false
    (Selest_obs.Qerror.synchronized (Metrics.qerror_shard mtr "m"));
  match Metrics.qerror_tables mtr with
  | [ ("m", qe) ] -> Alcotest.(check int) "tables merged" 3 (Selest_obs.Qerror.count qe)
  | _ -> Alcotest.fail "expected exactly one merged table"

let test_client_backoff_schedule () =
  check_float "attempt 0" 0.01 (Client.backoff_delay 0);
  check_float "attempt 1" 0.02 (Client.backoff_delay 1);
  check_float "attempt 3" 0.08 (Client.backoff_delay 3);
  check_float "attempt 6 hits the cap" 0.64 (Client.backoff_delay 6);
  check_float "capped thereafter" 0.64 (Client.backoff_delay 20)

(* SHARDS verb + per-shard dispatch, transport-free. *)
let test_shards_verb () =
  let db0 = Lazy.force db in
  let server = Server.create ~domains:3 ~max_inflight:7 ~backlog:33 ~db:db0
      ~socket:"(test: unused)" ()
  in
  ignore (Registry.register (Server.registry server) ~name:"default" (Lazy.force model));
  Alcotest.(check int) "n_domains" 3 (Server.n_domains server);
  let body = "c=contact, p=patient ; c.patient=p ; p.USBorn=1" in
  (* drive each shard's domain-local cache explicitly *)
  for shard = 0 to 2 do
    let r, _ = Server.handle_line_shard server ~shard ("EST " ^ body) in
    Alcotest.(check bool) "est ok on every shard" true (Protocol.is_ok r)
  done;
  let reply = fst (Server.handle_line server "SHARDS") in
  Alcotest.(check bool) "shards ok" true (Protocol.is_ok reply);
  let lines = String.split_on_char '\n' reply in
  Alcotest.(check bool) "header lists the layout" true
    (List.exists
       (fun l -> contains l "domains=3" && contains l "max_inflight=7" && contains l "backlog=33")
       lines);
  List.iter
    (fun sid ->
      (* every shard ran exactly one EST (one domain-local miss);
         shard 0 additionally served the SHARDS request *)
      let requests = if sid = 0 then 2 else 1 in
      Alcotest.(check bool)
        (Printf.sprintf "shard %d line" sid)
        true
        (List.exists
           (fun l ->
             contains l (Printf.sprintf "shard id=%d" sid)
             && contains l (Printf.sprintf "requests=%d" requests)
             && contains l "cache_misses=1")
           lines))
    [ 0; 1; 2 ];
  (* every shard owns its plan cache; shard 0 accessors alias *)
  Alcotest.(check bool) "plan caches per shard" true
    (Server.shard_plan_cache server 1 != Server.plan_cache server);
  Alcotest.(check bool) "cache is shard 0's" true
    (Server.cache server == Server.shard_cache server 0);
  Alcotest.(check bool) "out of range" true
    (try
       ignore (Server.handle_line_shard server ~shard:3 "PING");
       false
     with Invalid_argument _ -> true)

(* Bit-identity across shard counts: the same query answered by a
   1-domain server and by every shard of a 3-domain server must print
   the same %.17g payload — string equality is bit equality. *)
let test_sharded_bit_identity () =
  let db0 = Lazy.force db in
  let bodies =
    [
      "c=contact, p=patient ; c.patient=p ; p.USBorn=1";
      "c=contact, p=patient ; c.patient=p ; c.Contype=2, p.USBorn=0";
      "p=patient ; ; p.Age=1..3";
    ]
  in
  let single = Server.create ~db:db0 ~socket:"(test: unused)" () in
  ignore (Registry.register (Server.registry single) ~name:"default" (Lazy.force model));
  let reference =
    List.map
      (fun b -> Protocol.payload (fst (Server.handle_line single ("EST " ^ b))))
      bodies
  in
  let sharded = Server.create ~domains:3 ~db:db0 ~socket:"(test: unused)" () in
  ignore (Registry.register (Server.registry sharded) ~name:"default" (Lazy.force model));
  for shard = 0 to 2 do
    List.iter2
      (fun b expected ->
        let r, _ = Server.handle_line_shard sharded ~shard ("EST " ^ b) in
        Alcotest.(check string)
          (Printf.sprintf "shard %d bit-identical" shard)
          expected (Protocol.payload r))
      bodies reference
  done

(* End-to-end over the socket with 2 executor domains: every connection
   is served by some shard, answers stay bit-identical to the
   transport-free reference, and SHARDS shows the round-robin spread. *)
let test_socket_multidomain_round_trip () =
  let db0 = Lazy.force db in
  let reference = Server.create ~db:db0 ~socket:"(test: unused)" () in
  ignore (Registry.register (Server.registry reference) ~name:"default" (Lazy.force model));
  let body = "c=contact, p=patient ; c.patient=p ; p.USBorn=1, c.Contype=2" in
  let expected = Protocol.payload (fst (Server.handle_line reference ("EST " ^ body))) in
  let socket = Filename.temp_file "selest" ".sock" in
  Sys.remove socket;
  let server = Server.create ~domains:2 ~db:db0 ~socket () in
  ignore (Registry.register (Server.registry server) ~name:"default" (Lazy.force model));
  let thread = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Thread.join thread)
    (fun () ->
      (* several short-lived connections: round-robin spreads them *)
      for _ = 1 to 4 do
        Client.with_connection ~retries:100 ~socket (fun c ->
            Alcotest.(check string) "bit-identical over the socket" expected
              (Protocol.payload (Client.request c ("EST " ^ body))))
      done;
      Client.with_connection ~retries:100 ~socket (fun c ->
          let sh = Client.request c "SHARDS" in
          Alcotest.(check bool) "shards ok" true (Protocol.is_ok sh);
          let lines = String.split_on_char '\n' sh in
          Alcotest.(check bool) "two shard lines" true
            (List.exists (fun l -> contains l "shard id=0") lines
            && List.exists (fun l -> contains l "shard id=1") lines);
          (* 5 connections round-robined over 2 shards: both accepted some *)
          Alcotest.(check bool) "both shards accepted connections" true
            (List.for_all
               (fun sid ->
                 List.exists
                   (fun l ->
                     contains l (Printf.sprintf "shard id=%d" sid)
                     && not (contains l "accepted=0 "))
                   lines)
               [ 0; 1 ]);
          let h = Client.request c "HEALTH" in
          Alcotest.(check bool) "health lists shards" true
            (List.exists
               (fun l -> contains l "shard id=1")
               (String.split_on_char '\n' h));
          Alcotest.(check string) "shutdown" "OK bye" (Client.request c "SHUTDOWN")));
  Alcotest.(check bool) "socket removed after join" false (Sys.file_exists socket)

(* TCP listener: same protocol, same answers, over --tcp. *)
let test_tcp_round_trip () =
  let db0 = Lazy.force db in
  let port = 20_000 + (Unix.getpid () mod 10_000) in
  let socket = Filename.temp_file "selest" ".sock" in
  Sys.remove socket;
  let server =
    Server.create ~domains:2 ~tcp:("127.0.0.1", port) ~db:db0 ~socket ()
  in
  ignore (Registry.register (Server.registry server) ~name:"default" (Lazy.force model));
  let thread = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Thread.join thread)
    (fun () ->
      let body = "c=contact, p=patient ; c.patient=p ; p.USBorn=1" in
      (* reference over the Unix socket, then the same over TCP *)
      let expected =
        Client.with_connection ~retries:100 ~socket (fun c ->
            Protocol.payload (Client.request c ("EST " ^ body)))
      in
      Client.with_tcp_connection ~retries:100 ~host:"127.0.0.1" ~port (fun c ->
          Alcotest.(check string) "ping over tcp" "PONG" (Client.request c "PING");
          Alcotest.(check string) "tcp answer bit-identical" expected
            (Protocol.payload (Client.request c ("EST " ^ body)));
          (* binary upgrade works over TCP too *)
          Client.upgrade c;
          match Client.est_bin c body with
          | Ok v ->
            Alcotest.(check int64) "tcp bin bit-identical"
              (Int64.bits_of_float (float_of_string expected))
              (Int64.bits_of_float v)
          | Error msg -> Alcotest.fail ("tcp est_bin: " ^ msg));
      Client.with_connection ~retries:100 ~socket (fun c ->
          Alcotest.(check string) "shutdown" "OK bye" (Client.request c "SHUTDOWN")))

(* Admission control: with one shard at max_inflight=1, a second live
   connection is answered BUSY and closed, and the rejection is counted. *)
let test_admission_busy () =
  let db0 = Lazy.force db in
  let socket = Filename.temp_file "selest" ".sock" in
  Sys.remove socket;
  let server = Server.create ~max_inflight:1 ~db:db0 ~socket () in
  ignore (Registry.register (Server.registry server) ~name:"default" (Lazy.force model));
  let thread = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Thread.join thread)
    (fun () ->
      Client.with_connection ~retries:100 ~socket (fun c1 ->
          (* c1 occupies the only admission slot *)
          Alcotest.(check string) "first connection serves" "PONG"
            (Client.request c1 "PING");
          let c2 = Client.connect ~socket () in
          let busy =
            Fun.protect
              ~finally:(fun () -> Client.close c2)
              (fun () -> Client.request c2 "PING")
          in
          Alcotest.(check bool) "second connection is rejected" true
            (Protocol.is_busy busy);
          Alcotest.(check bool) "reply names the budget" true
            (contains busy "max_inflight=1");
          (* the admitted connection is unaffected and sees the counter *)
          let stats = Client.request c1 "STATS" in
          Alcotest.(check (option string)) "rejection counted" (Some "1")
            (Protocol.stats_field stats "admission_rejected");
          Alcotest.(check string) "shutdown" "OK bye" (Client.request c1 "SHUTDOWN")))

(* Hot reload under fire (satellite 4): concurrent EST traffic while the
   model is repeatedly re-LOADed.  Every answer must be exactly one of
   the two versions' estimates (a torn snapshot would produce neither),
   and once the dust settles a fresh EST serves the latest version. *)
let test_hot_reload_under_fire () =
  let db0 = Lazy.force db in
  let m1 = Lazy.force model in
  let m2 = Selest_prm.Learn.learn_prm ~budget_bytes:1_024 ~seed:11 db0 in
  let body = "c=contact, p=patient ; c.patient=p ; p.USBorn=1, c.Contype=2" in
  (* reference strings per model, through the same request path *)
  let answer_of m =
    let s = Server.create ~db:db0 ~socket:"(test: unused)" () in
    ignore (Registry.register (Server.registry s) ~name:"tb" m);
    Protocol.payload (fst (Server.handle_line s ("EST " ^ body)))
  in
  let a1 = answer_of m1 and a2 = answer_of m2 in
  Alcotest.(check bool) "models disagree (test is not vacuous)" false (a1 = a2);
  let p1 = Filename.temp_file "selest" ".prm"
  and p2 = Filename.temp_file "selest" ".prm" in
  Selest_prm.Serialize.save p1 m1;
  Selest_prm.Serialize.save p2 m2;
  let socket = Filename.temp_file "selest" ".sock" in
  Sys.remove socket;
  let server = Server.create ~domains:2 ~db:db0 ~socket () in
  let thread = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Thread.join thread;
      Sys.remove p1;
      Sys.remove p2)
    (fun () ->
      Client.with_connection ~retries:100 ~socket (fun c ->
          Alcotest.(check bool) "initial load" true
            (Protocol.is_ok (Client.request c (Printf.sprintf "LOAD tb %s" p1))));
      let torn = Atomic.make 0 and served = Atomic.make 0 in
      let firing =
        List.init 3 (fun _ ->
            Thread.create
              (fun () ->
                Client.with_connection ~retries:100 ~socket (fun c ->
                    for _ = 1 to 40 do
                      let r = Client.request c ("EST " ^ body) in
                      if Protocol.is_ok r then begin
                        Atomic.incr served;
                        let p = Protocol.payload r in
                        if p <> a1 && p <> a2 then Atomic.incr torn
                      end
                      else Atomic.incr torn
                    done))
              ())
      in
      (* reload back and forth while the EST threads hammer the server *)
      Client.with_connection ~retries:100 ~socket (fun c ->
          for _ = 1 to 10 do
            Alcotest.(check bool) "reload v2" true
              (Protocol.is_ok (Client.request c (Printf.sprintf "LOAD tb %s" p2)));
            Thread.yield ();
            Alcotest.(check bool) "reload v1" true
              (Protocol.is_ok (Client.request c (Printf.sprintf "LOAD tb %s" p1)))
          done);
      List.iter Thread.join firing;
      Alcotest.(check int) "no torn or failed answers" 0 (Atomic.get torn);
      Alcotest.(check int) "all requests served" 120 (Atomic.get served);
      (* quiesced: the final LOAD wins on every shard — version-carrying
         cache keys make stale per-domain entries unreachable *)
      Client.with_connection ~retries:100 ~socket (fun c ->
          Alcotest.(check bool) "final load v2" true
            (Protocol.is_ok (Client.request c (Printf.sprintf "LOAD tb %s" p2)));
          for _ = 1 to 4 do
            Client.with_connection ~retries:100 ~socket (fun c' ->
                Alcotest.(check string) "post-reload answers are v2" a2
                  (Protocol.payload (Client.request c' ("EST " ^ body))))
          done;
          Alcotest.(check string) "shutdown" "OK bye" (Client.request c "SHUTDOWN")))

(* ---- binary frames (Protocol.Bin) ------------------------------------------------- *)

(* The decoders promise totality: any byte string comes back Ok or Error,
   never an exception.  Fuzz that promise directly. *)
let prop_bin_decode_total =
  QCheck2.Test.make ~name:"decoders never raise on garbage" ~count:500
    QCheck2.Gen.string (fun s ->
      let b = Bytes.of_string s in
      (match Protocol.Bin.decode_request b with Ok _ | Error _ -> ());
      (match Protocol.Bin.decode_response b with Ok _ | Error _ -> ());
      true)

let gen_model_name =
  QCheck2.Gen.(
    oneof
      [
        return None;
        (* Some "" is indistinguishable from None on the wire, by design *)
        (string_size (int_range 1 8) >|= fun s -> Some s);
      ])

let strip_prefix frame = Bytes.of_string (String.sub frame 4 (String.length frame - 4))

let prop_bin_request_roundtrip =
  let gen =
    QCheck2.Gen.(
      let* model = gen_model_name in
      oneof
        [
          (string >|= fun body -> Protocol.Bin.Best { model; body });
          ( list_size (int_range 0 5) string >|= fun bodies ->
            Protocol.Bin.Bestbatch { model; bodies } );
        ])
  in
  QCheck2.Test.make ~name:"request encode ∘ decode = id" ~count:300 gen (fun req ->
      Protocol.Bin.decode_request (strip_prefix (Protocol.Bin.encode_request req))
      = Ok req)

let prop_bin_response_roundtrip =
  let gen =
    QCheck2.Gen.(
      oneof
        [
          (float >|= fun v -> Protocol.Bin.Bvalue v);
          (list_size (int_range 0 5) float >|= fun vs -> Protocol.Bin.Bvalues vs);
          (string >|= fun msg -> Protocol.Bin.Berr msg);
        ])
  in
  (* compare through IEEE bits so NaN payloads round-trip too *)
  let same a b =
    match (a, b) with
    | Protocol.Bin.Bvalue x, Protocol.Bin.Bvalue y ->
      Int64.bits_of_float x = Int64.bits_of_float y
    | Protocol.Bin.Bvalues xs, Protocol.Bin.Bvalues ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) xs ys
    | Protocol.Bin.Berr x, Protocol.Bin.Berr y -> x = y
    | _ -> false
  in
  QCheck2.Test.make ~name:"response encode ∘ decode = id" ~count:300 gen (fun resp ->
      match
        Protocol.Bin.decode_response (strip_prefix (Protocol.Bin.encode_response resp))
      with
      | Ok r -> same r resp
      | Error _ -> false)

(* A batch request's payload is fully length-described, so every strict
   prefix must decode to Error — a truncated frame can never silently
   shrink into a smaller valid batch. *)
let prop_bin_batch_truncation =
  let gen =
    QCheck2.Gen.(
      let* model = gen_model_name in
      let* bodies = list_size (int_range 0 4) (string_size (int_range 0 12)) in
      return (Protocol.Bin.Bestbatch { model; bodies }))
  in
  QCheck2.Test.make ~name:"truncated batch payload ⇒ Error" ~count:200 gen
    (fun req ->
      let payload = strip_prefix (Protocol.Bin.encode_request req) in
      let n = Bytes.length payload in
      let ok = ref true in
      for k = 0 to n - 1 do
        match Protocol.Bin.decode_request (Bytes.sub payload 0 k) with
        | Ok _ -> ok := false
        | Error _ -> ()
      done;
      !ok)

let test_server_bin_frames () =
  let db0 = Lazy.force db in
  let server = Server.create ~db:db0 ~socket:"(test: unused)" () in
  ignore (Registry.register (Server.registry server) ~name:"default" (Lazy.force model));
  let body = "c=contact, p=patient ; c.patient=p ; p.USBorn=1, c.Contype=2" in
  let ask_bin req =
    let out = Server.handle_frame server (strip_prefix (Protocol.Bin.encode_request req)) in
    match Protocol.Bin.decode_response (strip_prefix out) with
    | Ok r -> r
    | Error msg -> Alcotest.fail ("undecodable response frame: " ^ msg)
  in
  (* binary EST carries the exact bits the text protocol prints *)
  let text = fst (Server.handle_line server ("EST " ^ body)) in
  Alcotest.(check bool) "text est ok" true (Protocol.is_ok text);
  let expected = float_of_string (Protocol.payload text) in
  (match ask_bin (Protocol.Bin.Best { model = None; body }) with
  | Protocol.Bin.Bvalue v ->
    Alcotest.(check int64) "bit-identical to text"
      (Int64.bits_of_float expected) (Int64.bits_of_float v)
  | _ -> Alcotest.fail "expected Bvalue");
  (* batch answers in request order *)
  (match ask_bin (Protocol.Bin.Bestbatch { model = None; bodies = [ body; body ] }) with
  | Protocol.Bin.Bvalues [ a; b ] ->
    Alcotest.(check int64) "batch[0]" (Int64.bits_of_float expected) (Int64.bits_of_float a);
    Alcotest.(check int64) "batch[1]" (Int64.bits_of_float expected) (Int64.bits_of_float b)
  | _ -> Alcotest.fail "expected two Bvalues");
  (* failures stay in-band: bad query and undecodable payload answer Berr *)
  (match ask_bin (Protocol.Bin.Best { model = None; body = "utter garbage" }) with
  | Protocol.Bin.Berr _ -> ()
  | _ -> Alcotest.fail "expected Berr for a bad query");
  let out = Server.handle_frame server (Bytes.of_string "\xff\x00\x00") in
  match Protocol.Bin.decode_response (strip_prefix out) with
  | Ok (Protocol.Bin.Berr _) -> ()
  | _ -> Alcotest.fail "expected Berr for an unknown opcode"

(* Regression for the compiled fast path: a contradictory all-equality
   request answers exactly zero without touching the program's evidence
   slots, so a warm repeat of a valid request must come back bit-identical
   (cleared LRU forces real re-execution, not a cache echo). *)
let test_server_bytecode_contradiction_regression () =
  let db0 = Lazy.force db in
  let server = Server.create ~db:db0 ~socket:"(test: unused)" () in
  ignore (Registry.register (Server.registry server) ~name:"default" (Lazy.force model));
  let ask line = fst (Server.handle_line server line) in
  let valid = "EST c=contact, p=patient ; c.patient=p ; p.USBorn=1, c.Contype=2" in
  let warm = ask valid in
  Alcotest.(check bool) "valid est ok" true (Protocol.is_ok warm);
  let expected = float_of_string (Protocol.payload warm) in
  let contra = ask "EST c=contact, p=patient ; c.patient=p ; p.USBorn=0, p.USBorn=1" in
  Alcotest.(check bool) "contradiction ok, not ERR" true (Protocol.is_ok contra);
  check_float "contradiction is zero" 0.0 (float_of_string (Protocol.payload contra));
  Lru.clear (Server.cache server);
  let again = ask valid in
  Alcotest.(check int64) "warm repeat unharmed"
    (Int64.bits_of_float expected)
    (Int64.bits_of_float (float_of_string (Protocol.payload again)))

let test_bin_socket_round_trip () =
  let db0 = Lazy.force db in
  let socket = Filename.temp_file "selest" ".sock" in
  Sys.remove socket;
  let server = Server.create ~db:db0 ~socket () in
  ignore (Registry.register (Server.registry server) ~name:"default" (Lazy.force model));
  let thread = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Thread.join thread)
    (fun () ->
      let body = "c=contact, p=patient ; c.patient=p ; p.USBorn=1, c.Contype=2" in
      (* text connection first: the reference answer *)
      let expected =
        Client.with_connection ~retries:100 ~socket (fun c ->
            float_of_string (Protocol.payload (Client.request c ("EST " ^ body))))
      in
      (* binary connection: upgrade, then frames only *)
      Client.with_connection ~retries:100 ~socket (fun c ->
          Client.upgrade c;
          (match Client.est_bin c body with
          | Ok v ->
            Alcotest.(check int64) "est_bin bit-identical"
              (Int64.bits_of_float expected) (Int64.bits_of_float v)
          | Error msg -> Alcotest.fail ("est_bin: " ^ msg));
          (match Client.estbatch_bin c [ body; body ] with
          | Ok [ a; b ] ->
            Alcotest.(check int64) "batch[0]" (Int64.bits_of_float expected)
              (Int64.bits_of_float a);
            Alcotest.(check int64) "batch[1]" (Int64.bits_of_float expected)
              (Int64.bits_of_float b)
          | Ok _ -> Alcotest.fail "estbatch_bin: wrong arity"
          | Error msg -> Alcotest.fail ("estbatch_bin: " ^ msg));
          match Client.est_bin c "utter garbage" with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "bad query must answer Berr");
      (* the server survives binary EOF; shut it down over text *)
      Client.with_connection ~retries:100 ~socket (fun c ->
          Alcotest.(check string) "shutdown" "OK bye" (Client.request c "SHUTDOWN")));
  Alcotest.(check bool) "socket removed after join" false (Sys.file_exists socket)

(* ---- zero-copy front-end -----------------------------------------------------

   The allocation-free request front-end shadows two allocating
   reference parsers and must agree with them exactly: the scratch
   parser ({!Selest_db.Squery}) with the section-split + Qparse +
   validate + normalize pipeline, and the slice recognizers
   ({!Protocol.Slice}) with [Protocol.parse_request] /
   [Protocol.Bin.decode_request].  Random request text — valid,
   out-of-schema and mutilated — drives both sides of each pair. *)

let frontend_scratch =
  lazy (Squery.create (Squery.Symtab.of_schema (Database.schema (Lazy.force db))))

let reference_parse db0 body =
  match
    let tvars, joins, selects = Protocol.split_sections body in
    let q = Qparse.parse db0 ~tvars ~joins ~selects () in
    Exec.validate db0 q;
    q
  with
  | q -> Ok (Canon.normalize q)
  | exception Failure msg -> Error msg
  | exception Invalid_argument msg -> Error msg
  | exception Not_found -> Error "Not_found"

let scratch_parse body =
  let scratch = Lazy.force frontend_scratch in
  match
    Squery.parse scratch (Bytes.of_string body) ~off:0 ~len:(String.length body)
  with
  | () ->
    Squery.canon scratch;
    Ok (Squery.to_query scratch)
  | exception Failure msg -> Error msg
  | exception Invalid_argument msg -> Error msg
  | exception Not_found -> Error "Not_found"

(* Bodies over the TB schema: mostly well-formed (with whitespace and
   label variations), salted with unknown tables/attributes/values, and
   a third of the time mutilated — truncated, a random char spliced in,
   or extra section separators appended. *)
let gen_frontend_body =
  let open QCheck2.Gen in
  let gen_attr =
    oneofl
      [ "c.Contype"; "c.Age"; "p.Age"; "p.USBorn"; "s.DrugResist"; "p.Zz"; "x.Age" ]
  in
  let gen_sel =
    let* a = gen_attr in
    oneof
      [
        (int_range 0 3 >|= fun v -> Printf.sprintf "%s=%d" a v);
        (pair (int_range 0 3) (int_range 0 4) >|= fun (lo, hi) ->
          Printf.sprintf "%s=%d..%d" a lo hi);
        (list_size (int_range 1 3) (int_range 0 3) >|= fun vs ->
          Printf.sprintf "%s={%s}" a
            (String.concat "," (List.map string_of_int vs)));
        pure (a ^ "={household,roommate}");
        pure (a ^ "=99");
      ]
  in
  let gen_tvars =
    oneofl
      [
        "c=contact, p=patient, s=strain";
        "c=contact, p=patient";
        "c = contact , p = patient";
        "p=patient";
        "patient";
        "z=zebra, p=patient";
        "c=contact, c=patient";
      ]
  in
  let gen_joins =
    oneofl
      [ "c.patient=p, p.strain=s"; "c.patient=p"; ""; "p.strain=s"; "c.nope=p";
        "c.patient=x" ]
  in
  let* tv = gen_tvars in
  let* j = gen_joins in
  let* sels = list_size (int_range 0 3) gen_sel in
  let body = tv ^ "; " ^ j ^ "; " ^ String.concat ", " sels in
  let* mutation = int_range 0 9 in
  if mutation <= 6 then return body
  else if mutation = 7 then
    let* k = int_range 0 (String.length body) in
    return (String.sub body 0 k)
  else if mutation = 8 then
    let* k = int_range 0 (String.length body) in
    let* c = oneofl [ ';'; ','; '{'; '}'; '='; '.'; '@'; 'x'; '9'; ' ' ] in
    return
      (String.sub body 0 k ^ String.make 1 c
      ^ String.sub body k (String.length body - k))
  else return (body ^ " ;;")

let prop_squery_matches_reference =
  QCheck2.Test.make ~name:"zero-copy parser ≡ Qparse+validate+normalize"
    ~count:1500 ~print:String.escaped gen_frontend_body (fun body ->
      let db0 = Lazy.force db in
      match (reference_parse db0 body, scratch_parse body) with
      | Ok qr, Ok qs -> qr = qs && Canon.key qr = Canon.key qs
      | Error _, Error _ -> true
      | Ok _, Error _ | Error _, Ok _ -> false)

let frontend_slice = Protocol.Slice.create ()

let slice_model_body buf =
  let sl = frontend_slice in
  let model =
    if sl.Protocol.Slice.model_len = 0 then None
    else
      Some
        (Bytes.sub_string buf sl.Protocol.Slice.model_off
           sl.Protocol.Slice.model_len)
  in
  (model, Bytes.sub_string buf sl.Protocol.Slice.body_off sl.Protocol.Slice.body_len)

(* Request lines assembled from independently varied fragments, so the
   recognizer sees every combination of case, separator, model prefix
   and trailing whitespace the reference parser distinguishes. *)
let gen_request_line =
  let open QCheck2.Gen in
  let* lead = oneofl [ ""; " "; "\t " ] in
  let* cmd = oneofl [ "EST"; "est"; "Est"; "ESTBATCH"; "PING"; "ES"; "" ] in
  let* sep = oneofl [ " "; "  "; "\t"; "" ] in
  let* model = oneofl [ ""; "@m "; "@"; "@ "; "@default "; "@m\tx " ] in
  let* body = oneofl [ "p=patient ; ; p.USBorn=1"; "c=contact"; ""; "{"; "a b" ] in
  let* trail = oneofl [ ""; " "; "  \t" ] in
  return (lead ^ cmd ^ sep ^ model ^ body ^ trail)

(* A [true] from the recognizer claims the request: the reference parser
   must then see an EST whose model and body equal the slices exactly.
   ([false] is always allowed — the slow path reproduces behavior.) *)
let prop_slice_est_line_agrees =
  QCheck2.Test.make ~name:"Slice.est_line ⇒ parse_request agreement"
    ~count:2000 ~print:String.escaped gen_request_line (fun line ->
      let buf = Bytes.of_string line in
      if Protocol.Slice.est_line frontend_slice buf ~off:0 ~len:(Bytes.length buf)
      then
        match Protocol.parse_request line with
        | Ok (Protocol.Est { model; body }) ->
          let smodel, sbody = slice_model_body buf in
          model = smodel && body = sbody
        | _ -> false
      else true)

(* Valid EST frames (optionally mutilated: truncated, opcode flipped, a
   length byte corrupted) against the total binary decoder. *)
let gen_bin_est_frame =
  let open QCheck2.Gen in
  let* model = oneofl [ None; Some "m"; Some "default"; Some "" ] in
  let* body = oneofl [ "p=patient ; ; p.USBorn=1"; "c=contact"; "" ] in
  let base =
    strip_prefix (Protocol.Bin.encode_request (Protocol.Bin.Best { model; body }))
  in
  let* mutation = int_range 0 5 in
  if mutation <= 2 then return base
  else if mutation = 3 then
    let* k = int_range 0 (Bytes.length base) in
    return (Bytes.sub base 0 k)
  else if mutation = 4 then (
    let b = Bytes.copy base in
    (* flip the opcode to ESTBATCH (0x02) *)
    Bytes.set_uint8 b 0 2;
    return b)
  else (
    let b = Bytes.copy base in
    let* k = int_range 0 (Bytes.length b - 1) in
    let* v = int_range 0 255 in
    Bytes.set_uint8 b k v;
    return b)

let prop_slice_bin_est_agrees =
  QCheck2.Test.make ~name:"Slice.bin_est ⇒ Bin.decode_request agreement"
    ~count:2000
    ~print:(fun b -> String.escaped (Bytes.to_string b))
    gen_bin_est_frame (fun payload ->
      if
        Protocol.Slice.bin_est frontend_slice payload ~off:0
          ~len:(Bytes.length payload)
      then
        match Protocol.Bin.decode_request payload with
        | Ok (Protocol.Bin.Best { model; body }) ->
          let smodel, sbody = slice_model_body payload in
          model = smodel && body = sbody
        | _ -> false
      else true)

(* Coverage direction: the canonical warm forms must be claimed (the
   whole fast path hinges on it), and non-EST traffic must not be. *)
let test_slice_recognizes_warm_forms () =
  let sl = frontend_slice in
  let accepts line = Protocol.Slice.est_line sl (Bytes.of_string line) ~off:0 ~len:(String.length line) in
  let buf = Bytes.of_string "EST p=patient ; ; p.USBorn=1" in
  Alcotest.(check bool) "plain EST" true
    (Protocol.Slice.est_line sl buf ~off:0 ~len:(Bytes.length buf));
  Alcotest.(check (pair (option string) string)) "plain slices"
    (None, "p=patient ; ; p.USBorn=1") (slice_model_body buf);
  let buf = Bytes.of_string "EST @m p=patient" in
  Alcotest.(check bool) "named model" true
    (Protocol.Slice.est_line sl buf ~off:0 ~len:(Bytes.length buf));
  Alcotest.(check (pair (option string) string)) "named slices"
    (Some "m", "p=patient") (slice_model_body buf);
  List.iter
    (fun line -> Alcotest.(check bool) (String.escaped line) false (accepts line))
    [ "PING"; "est p=patient"; "ESTBATCH p=patient"; "EST"; "EST "; "EST @ x";
      "EST @m"; "EST\tp=patient"; "" ];
  let frame =
    strip_prefix
      (Protocol.Bin.encode_request (Protocol.Bin.Best { model = None; body = "p=patient" }))
  in
  Alcotest.(check bool) "bin EST frame" true
    (Protocol.Slice.bin_est sl frame ~off:0 ~len:(Bytes.length frame));
  Alcotest.(check (pair (option string) string)) "bin slices"
    (None, "p=patient") (slice_model_body frame)

(* A socketpair loopback onto [server]'s shard 0 with its fast handlers
   installed: [send] writes raw bytes, runs one shard step and returns
   the bytes answered; [fallbacks] counts messages the fast handlers
   declined, i.e. handed to the reference handlers. *)
let loopback server =
  let client, srv = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conn = Shard.Loopback.connect srv in
  let on_line_fast, on_frame_fast = Server.fast_handlers server ~shard:0 in
  let fallbacks = ref 0 in
  let on_line l = incr fallbacks; Server.handle_line server l in
  let on_frame p = incr fallbacks; Server.handle_frame server p in
  let buf = Bytes.create 65536 in
  let send msg =
    ignore (Unix.write_substring client msg 0 (String.length msg));
    Shard.Loopback.step conn ~on_line_fast ~on_frame_fast ~on_line ~on_frame;
    let n = Unix.read client buf 0 (Bytes.length buf) in
    Bytes.sub_string buf 0 n
  in
  let close () =
    (try Unix.close client with Unix.Unix_error _ -> ());
    if Shard.Loopback.alive conn then Unix.close srv
  in
  (send, close, fallbacks)

let est_counters = [ "requests"; "est_requests"; "est_errors"; "shard.0.requests" ]

let counter_values server =
  List.map (fun k -> Metrics.get (Server.metrics server) k) est_counters

(* Run [f] and return the per-counter deltas it caused. *)
let counter_deltas server f =
  let c0 = counter_values server in
  let r = f () in
  (r, List.map2 ( - ) (counter_values server) c0)

(* End-to-end fast path over a real socketpair: the loopback harness
   drives the exact shard message-extraction code with the server's fast
   handlers installed.  Warm and cold EST (text and binary) answer
   bit-identically to the transport-free reference path; errors are
   answered by the fast path itself with the reference bytes and
   counters; tracing keeps the fast path; every other verb falls back
   byte-identically. *)
let test_fast_path_loopback () =
  let server = fresh_server () in
  let send, close, fallbacks = loopback server in
  let ask line = send (line ^ "\n") in
  (* [f] must be answered by the fast handlers alone *)
  let fast label f =
    let before = !fallbacks in
    let r = f () in
    Alcotest.(check int) (label ^ ": no fallback") before !fallbacks;
    r
  in
  let frame_of ?model body =
    Protocol.Bin.encode_request (Protocol.Bin.Best { model; body })
  in
  (* a fast-path answer must equal the reference entry point's bytes and
     move the EST counters by the same amounts *)
  let same_as_reference label f reference =
    let got, d_fast = counter_deltas server (fun () -> fast label f) in
    let want, d_ref = counter_deltas server reference in
    Alcotest.(check string) (label ^ ": bytes") want got;
    Alcotest.(check (list int)) (label ^ ": counters") d_ref d_fast
  in
  let m = Server.metrics server in
  Fun.protect ~finally:close (fun () ->
      let body = "c=contact, p=patient ; c.patient=p ; p.USBorn=1, c.Contype=2" in
      (* non-EST verbs fall back to the reference path *)
      Alcotest.(check string) "fallback PING" "PONG\n" (ask "PING");
      Alcotest.(check int) "PING fell back" 1 !fallbacks;
      (* cold EST is owned by the fast path, which serves the miss inline *)
      let cold = fast "cold est" (fun () -> ask ("EST " ^ body)) in
      Alcotest.(check bool) "cold est ok" true (Protocol.is_ok (String.trim cold));
      (* warm repeat: pre-rendered response, identical bytes *)
      Alcotest.(check string) "warm repeat identical" cold
        (fast "warm est" (fun () -> ask ("EST " ^ body)));
      (* the transport-free reference path sees the same cache entry *)
      let direct, _ = Server.handle_line server ("EST " ^ body) in
      Alcotest.(check string) "matches handle_line" (direct ^ "\n") cold;
      (* tracing on: same path, same bytes, front-end counters still
         move, and the sink receives the request's spans *)
      let records = ref [] in
      let parse_ns0 = Metrics.get m "frontend.parse_ns" in
      let traced =
        Fun.protect
          ~finally:(fun () -> Selest_obs.Span.set_global_sink None)
          (fun () ->
            Selest_obs.Span.set_global_sink (Some (fun r -> records := r :: !records));
            fast "traced est" (fun () -> ask ("EST " ^ body)))
      in
      Alcotest.(check string) "traced est identical" cold traced;
      Alcotest.(check bool) "traced est moves frontend.parse_ns" true
        (Metrics.get m "frontend.parse_ns" > parse_ns0);
      let names = List.map (fun (r : Selest_obs.Span.record) -> r.Selest_obs.Span.name) !records in
      List.iter
        (fun n -> Alcotest.(check bool) ("sink saw span " ^ n) true (List.mem n names))
        [ "est"; "est.parse"; "est.canon"; "est.cache"; "est.respond" ];
      (* error paths are answered by the fast path with the reference
         handler's exact bytes and accounting *)
      let bad =
        [ ("unknown model", "EST @nope p=patient ; ; p.USBorn=1");
          ("unknown attribute", "EST p=patient ; ; p.Nope=1");
          ("out-of-range value", "EST p=patient ; ; p.USBorn=999");
          ("unknown table", "EST z=zebra") ]
      in
      List.iter
        (fun (label, line) ->
          same_as_reference ("text " ^ label)
            (fun () -> ask line)
            (fun () -> fst (Server.handle_line server line) ^ "\n"))
        bad;
      Alcotest.(check bool) "errors counted" true (Metrics.get m "est_errors" >= 8);
      (* binary upgrade, then frames served by the fast path *)
      Alcotest.(check string) "bin hello" (Protocol.Bin.hello_ok ^ "\n") (ask "BIN");
      let resp = fast "bin est" (fun () -> send (frame_of body)) in
      (match
         Protocol.Bin.decode_response
           (Bytes.of_string (String.sub resp 4 (String.length resp - 4)))
       with
      | Ok (Protocol.Bin.Bvalue v) ->
        let expected = float_of_string (Protocol.payload (String.trim cold)) in
        Alcotest.(check int64) "bin bit-identical to text"
          (Int64.bits_of_float expected) (Int64.bits_of_float v)
      | _ -> Alcotest.fail "expected Bvalue over the binary fast path");
      List.iter
        (fun (label, line) ->
          let model, qbody =
            match Protocol.parse_request line with
            | Ok (Protocol.Est { model; body }) -> (model, body)
            | _ -> Alcotest.fail ("not an EST line: " ^ line)
          in
          let frame = frame_of ?model qbody in
          same_as_reference ("bin " ^ label)
            (fun () -> send frame)
            (fun () ->
              Server.handle_frame server
                (Bytes.of_string (String.sub frame 4 (String.length frame - 4))));
          (* and the binary error text is the text protocol's *)
          let text = fst (Server.handle_line server line) in
          let resp = send frame in
          match
            Protocol.Bin.decode_response
              (Bytes.of_string (String.sub resp 4 (String.length resp - 4)))
          with
          | Ok (Protocol.Bin.Berr msg) ->
            Alcotest.(check string) ("bin message " ^ label) text ("ERR " ^ msg)
          | _ -> Alcotest.fail ("expected Berr for " ^ label))
        bad;
      (* the fast path moved the front-end telemetry *)
      Alcotest.(check bool) "frontend parse ns counted" true
        (Metrics.get m "frontend.parse_ns" > 0);
      Alcotest.(check bool) "frontend canon ns counted" true
        (Metrics.get m "frontend.canon_ns" > 0);
      Alcotest.(check bool) "frontend key ns counted" true
        (Metrics.get m "frontend.key_ns" > 0);
      Alcotest.(check int) "no collisions" 0 (Metrics.get m "frontend.collisions"));
  (* an empty registry: the fast path answers the reference error, over
     text and BIN *)
  let empty = Server.create ~db:(Lazy.force db) ~socket:"(test: unused)" () in
  let send, close, fallbacks = loopback empty in
  Fun.protect ~finally:close (fun () ->
      let line = "EST p=patient ; ; p.USBorn=1" in
      let deltas = counter_deltas empty in
      let got, d_fast = deltas (fun () -> send (line ^ "\n")) in
      let want, d_ref = deltas (fun () -> fst (Server.handle_line empty line) ^ "\n") in
      Alcotest.(check string) "empty registry: text bytes" want got;
      Alcotest.(check (list int)) "empty registry: text counters" d_ref d_fast;
      Alcotest.(check string) "empty registry: message"
        "ERR no model loaded (use LOAD)\n" got;
      ignore (send "BIN\n");
      let frame = frame_of "p=patient ; ; p.USBorn=1" in
      let got, d_fast = deltas (fun () -> send frame) in
      let want, d_ref =
        deltas (fun () ->
            Server.handle_frame empty
              (Bytes.of_string (String.sub frame 4 (String.length frame - 4))))
      in
      Alcotest.(check string) "empty registry: bin bytes" want got;
      Alcotest.(check (list int)) "empty registry: bin counters" d_ref d_fast;
      Alcotest.(check int) "empty registry: no fallback" 0 !fallbacks)

(* EXPLAIN runs the EST core on the bytecode engine: cold and warm, its
   estimate is EST's, bit for bit, and its stages partition total_us. *)
let test_server_explain () =
  let server = fresh_server () in
  let ask line = fst (Server.handle_line server line) in
  let body = "c=contact, p=patient ; c.patient=p ; p.USBorn=0, c.Contype=1" in
  let explain ~label ~cache =
    let resp = ask ("EXPLAIN " ^ body) in
    Alcotest.(check bool) (label ^ " ok") true (Protocol.is_ok resp);
    let f k =
      match Protocol.stats_field resp k with
      | Some v -> v
      | None -> Alcotest.fail (Printf.sprintf "%s: no %s in %S" label k resp)
    in
    Alcotest.(check string) (label ^ " cache") cache (f "cache");
    Alcotest.(check string) (label ^ " plan cache") cache (f "plan_cache");
    let total = float_of_string (f "total_us") in
    let stage_sum = float_of_string (f "stage_sum_us") in
    Alcotest.(check bool)
      (Printf.sprintf "%s stages sum to total (%.1f vs %.1f)" label stage_sum total)
      true
      (Float.abs (stage_sum -. total) <= 0.11);
    List.iter
      (fun k -> ignore (float_of_string (f k)))
      [ "load_us"; "run_us"; "fetch_us"; "compile_us" ];
    List.iter
      (fun k ->
        Alcotest.(check (option string)) (label ^ " drops " ^ k) None
          (Protocol.stats_field resp k))
      [ "evidence_us"; "sched_us"; "ve_us"; "sched" ];
    f "estimate"
  in
  let cold = explain ~label:"cold" ~cache:"miss" in
  let est = Protocol.payload (ask ("EST " ^ body)) in
  Alcotest.(check string) "cold EXPLAIN estimate = EST" est cold;
  let warm = explain ~label:"warm" ~cache:"hit" in
  Alcotest.(check string) "warm EXPLAIN estimate = EST" est warm

(* ---- suite ------------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [
      ( "canon",
        [
          Alcotest.test_case "pred normalization" `Quick test_canon_pred_normalization;
          Alcotest.test_case "clause order" `Quick test_canon_clause_order;
          Alcotest.test_case "normalize preserves semantics" `Quick
            test_canon_normalize_preserves_semantics;
        ] );
      ("canon-properties", List.map QCheck_alcotest.to_alcotest [ prop_canon_order_insensitive ]);
      ( "lru",
        [
          Alcotest.test_case "hit/miss counters" `Quick test_lru_hit_miss_counters;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "byte budget" `Quick test_lru_byte_budget;
          Alcotest.test_case "oversized entry" `Quick test_lru_oversized_entry;
          Alcotest.test_case "collision recount" `Quick test_lru_collision_recount;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "percentiles" `Quick test_metrics_percentiles;
          Alcotest.test_case "concurrent incr" `Quick test_metrics_concurrent_incr;
          Alcotest.test_case "report" `Quick test_metrics_report;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "parse" `Quick test_protocol_parse;
          Alcotest.test_case "sections" `Quick test_protocol_sections;
          Alcotest.test_case "responses" `Quick test_protocol_responses;
          Alcotest.test_case "estbatch parse" `Quick test_protocol_estbatch_parse;
          Alcotest.test_case "obs verbs" `Quick test_protocol_obs_verbs;
        ] );
      ( "registry",
        [
          Alcotest.test_case "versions" `Quick test_registry_versions;
          Alcotest.test_case "rejects bad files" `Quick test_registry_rejects_bad_files;
        ] );
      ( "server",
        [
          Alcotest.test_case "handle_line" `Quick test_server_handle_line;
          Alcotest.test_case "explainplan" `Quick test_server_explainplan;
          Alcotest.test_case "explain" `Quick test_server_explain;
          Alcotest.test_case "estbatch" `Quick test_server_estbatch;
          Alcotest.test_case "socket round trip" `Quick test_socket_round_trip;
          Alcotest.test_case "socket slow-log capture" `Quick
            test_socket_slowlog_capture;
          Alcotest.test_case "contradiction on the compiled path" `Quick
            test_server_bytecode_contradiction_regression;
        ] );
      ( "shards",
        [
          Alcotest.test_case "registry epoch pin" `Quick test_registry_epoch_pin;
          Alcotest.test_case "plan cache sync modes" `Quick test_plan_cache_sync_modes;
          Alcotest.test_case "qerror shard merge" `Quick test_qerror_shard_merge;
          Alcotest.test_case "client backoff schedule" `Quick test_client_backoff_schedule;
          Alcotest.test_case "SHARDS verb" `Quick test_shards_verb;
          Alcotest.test_case "bit identity across shard counts" `Quick
            test_sharded_bit_identity;
          Alcotest.test_case "multi-domain socket round trip" `Quick
            test_socket_multidomain_round_trip;
          Alcotest.test_case "tcp round trip" `Quick test_tcp_round_trip;
          Alcotest.test_case "admission BUSY" `Quick test_admission_busy;
          Alcotest.test_case "hot reload under fire" `Quick test_hot_reload_under_fire;
        ] );
      ( "bin-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_bin_decode_total;
            prop_bin_request_roundtrip;
            prop_bin_response_roundtrip;
            prop_bin_batch_truncation;
          ] );
      ( "bin",
        [
          Alcotest.test_case "handle_frame" `Quick test_server_bin_frames;
          Alcotest.test_case "binary socket round trip" `Quick test_bin_socket_round_trip;
        ] );
      ( "frontend",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_squery_matches_reference;
            prop_slice_est_line_agrees;
            prop_slice_bin_est_agrees;
          ]
        @ [
            Alcotest.test_case "slice warm forms" `Quick
              test_slice_recognizes_warm_forms;
            Alcotest.test_case "fast path loopback" `Quick test_fast_path_loopback;
          ] );
    ]
