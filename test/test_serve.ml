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

(* The cache against a reference model — an assoc list in recency order
   with the same byte budget — over random finds and adds.  Hashes come
   from a few hundred values sharing their low bits, so table buckets
   hold long chains, nodes leave them from every position, and the
   table grows past its initial size. *)
let prop_lru_matches_model =
  let open QCheck2.Gen in
  let gen_op =
    let* h = int_range 0 700 >|= fun k -> (k land 7) + (k lsr 3 lsl 10) in
    let* add = bool in
    let* len = int_range 0 40 in
    return (add, h, len)
  in
  QCheck2.Test.make ~name:"LRU = reference model" ~count:100
    ~print:(fun ops -> String.concat " " (List.map (fun (a, h, l) -> Printf.sprintf "%s%d:%d" (if a then "+" else "?") h l) ops))
    (list_size (int_range 1 2_000) gen_op)
    (fun ops ->
      let cap = 3_000 in
      let c = Lru.create ~capacity_bytes:cap in
      let size e = String.length e.Lru.text + Selest_util.Bytesize.per_param in
      let model = ref [] and bytes = ref 0 in
      let rec evict () =
        if !bytes > cap then
          match List.rev !model with
          | (_, e) :: rest ->
            bytes := !bytes - size e;
            model := List.rev rest;
            evict ()
          | [] -> ()
      in
      List.for_all
        (fun (add, h, len) ->
          let ok =
            if add then begin
              let e = ent ~text:(String.make len 'x') (float_of_int h) in
              Lru.add c h e;
              (match List.assoc_opt h !model with
              | Some old -> bytes := !bytes - size old
              | None -> ());
              model := (h, e) :: List.remove_assoc h !model;
              bytes := !bytes + size e;
              evict ();
              true
            end
            else
              match (Lru.find c h, List.assoc_opt h !model) with
              | got, Some e ->
                model := (h, e) :: List.remove_assoc h !model;
                got == e
              | exception Not_found -> List.assoc_opt h !model = None
              | _, None -> false
          in
          ok
          && Lru.bytes c = !bytes
          && Lru.length c = List.length !model
          && Lru.hashes_hot_first c = List.map fst !model)
        ops)

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
  let report = Metrics.latency_pairs "lat" (Metrics.latency_histogram m) in
  let f k = List.assoc_opt k report in
  Alcotest.(check (option int)) "counter listed" (Some 1)
    (List.assoc_opt "requests" (Metrics.counters m));
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
  let non_finite line =
    Alcotest.(check (result reject string))
      line (Error "TRUTH: true size must be a non-negative number")
      (Result.map ignore (p line))
  in
  non_finite "TRUTH inf p=patient";
  non_finite "TRUTH 1e400 p=patient";
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
          Alcotest.(check bool) "no ve.* spans" false
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

(* Concurrency over the socket: 8 clients at once against 4 executor
   domains, each asking every body several times; every answer must be
   the transport-free single-domain reference, bit for bit. *)
let test_concurrent_clients_bit_identity () =
  let db0 = Lazy.force db in
  let bodies =
    Array.of_list
      (List.concat
         (List.init 3 (fun c ->
              List.init 4 (fun a ->
                  Printf.sprintf
                    "c=contact, p=patient ; c.patient=p ; c.Contype=%d, p.Age=%d" c a))))
  in
  let reference = Server.create ~db:db0 ~socket:"(test: unused)" () in
  ignore (Registry.register (Server.registry reference) ~name:"default" (Lazy.force model));
  let expected =
    Array.map (fun b -> Protocol.payload (fst (Server.handle_line reference ("EST " ^ b)))) bodies
  in
  let socket = Filename.temp_file "selest" ".sock" in
  Sys.remove socket;
  let server = Server.create ~domains:4 ~db:db0 ~socket () in
  ignore (Registry.register (Server.registry server) ~name:"default" (Lazy.force model));
  let thread = Thread.create Server.run server in
  let mismatches = Atomic.make 0 and answers = Atomic.make 0 in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Thread.join thread)
    (fun () ->
      let client () =
        Client.with_connection ~retries:100 ~socket (fun c ->
            for _ = 1 to 3 do
              Array.iteri
                (fun i b ->
                  Atomic.incr answers;
                  if Protocol.payload (Client.request c ("EST " ^ b)) <> expected.(i) then
                    Atomic.incr mismatches)
                bodies
            done)
      in
      List.iter Thread.join (List.init 8 (fun _ -> Thread.create client ())));
  Alcotest.(check int) "answers" (8 * 3 * Array.length bodies) (Atomic.get answers);
  Alcotest.(check int) "mismatches" 0 (Atomic.get mismatches)

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

(* Carried-plan fixtures, shared with the hot-reload test below. *)

(* Eight skeletons, two of them with a second binding. *)
let carry_bodies =
  [ "p=patient ; ; p.Age=1";
    "p=patient ; ; p.USBorn=1, p.HIV=0";
    "c=contact, p=patient ; c.patient=p ; p.USBorn=1, c.Contype=2";
    "c=contact, p=patient ; c.patient=p ; c.Infected=1, p.Age=2..4";
    "c=contact, p=patient, s=strain ; c.patient=p, p.strain=s ; c.Contype=0, s.DrugResist=1";
    "s=strain ; ; s.Lineage={1,3}";
    "p=patient, s=strain ; p.strain=s ; p.Homeless=1, s.Unique=0";
    "c=contact ; ; c.Gender=1, c.Age=3";
    "p=patient ; ; p.Age=4";
    "c=contact, p=patient ; c.patient=p ; p.USBorn=0, c.Contype=4" ]

let carry_skeletons = 8

(* A second model of the same schema, learned with another seed and budget. *)
let model2 = lazy (Selest_prm.Learn.learn_prm ~budget_bytes:1_024 ~seed:11 (Lazy.force db))

let carry_files =
  lazy
    (let save m =
       let path = Filename.temp_file "selest_carry" ".prm" in
       Selest_prm.Serialize.save path m;
       at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
       path
     in
     (save (Lazy.force model), save (Lazy.force model2)))

(* Every body's reply on a fresh server that loaded only [path]. *)
let fresh_answers path =
  let s = Server.create ~db:(Lazy.force db) ~socket:"(test: unused)" () in
  ignore (Server.handle_line s ("LOAD tb " ^ path));
  List.map (fun b -> fst (Server.handle_line s ("EST " ^ b))) carry_bodies

let stat_int server key =
  match Protocol.stats_field (fst (Server.handle_line server "STATS")) key with
  | Some v -> int_of_string v
  | None -> Alcotest.fail ("STATS has no " ^ key)

(* Hot reload under fire: concurrent EST traffic over several skeletons
   while the model is repeatedly re-LOADed on 2 shards.  Every answer
   must be exactly one of the two versions' estimates (a torn snapshot
   would produce neither).  Once the dust settles, a reload carries the
   skeletons fetched before it: fresh ESTs serve the latest version on
   every shard without compiling a plan. *)
let test_hot_reload_under_fire () =
  let db0 = Lazy.force db in
  (* three skeletons on which the two models disagree *)
  let pick l = List.map (List.nth l) [ 1; 2; 6 ] in
  let bodies = pick carry_bodies in
  let p1, p2 = Lazy.force carry_files in
  let ref_of path = pick (fresh_answers path) in
  let a1 = List.map Protocol.payload (ref_of p1) and a2 = List.map Protocol.payload (ref_of p2) in
  List.iter2
    (fun x y -> Alcotest.(check bool) "models disagree (test is not vacuous)" false (x = y))
    a1 a2;
  let socket = Filename.temp_file "selest" ".sock" in
  Sys.remove socket;
  let server = Server.create ~domains:2 ~db:db0 ~socket () in
  let thread = Thread.create Server.run server in
  let each_body f = List.iteri (fun i b -> f (List.nth a1 i) (List.nth a2 i) ("EST " ^ b)) bodies in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown server;
      Thread.join thread)
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
                    for _ = 1 to 14 do
                      each_body (fun x1 x2 line ->
                          let r = Client.request c line in
                          if Protocol.is_ok r then begin
                            Atomic.incr served;
                            let p = Protocol.payload r in
                            if p <> x1 && p <> x2 then Atomic.incr torn
                          end
                          else Atomic.incr torn)
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
      Alcotest.(check int) "all requests served" (3 * 14 * 3) (Atomic.get served);
      (* quiesced: ask every skeleton under the current version, reload,
         and ask again from connections on both shards — the final LOAD
         wins everywhere, and its carried plans leave nothing to compile *)
      Client.with_connection ~retries:100 ~socket (fun c ->
          each_body (fun x1 _ line ->
              Alcotest.(check string) "pre-reload answers are v1" x1
                (Protocol.payload (Client.request c line)));
          Alcotest.(check bool) "final load v2" true
            (Protocol.is_ok (Client.request c (Printf.sprintf "LOAD tb %s" p2)));
          let misses () =
            Option.map int_of_string
              (Protocol.stats_field (Client.request c "STATS") "plan_cache_misses")
          in
          let before = misses () in
          for _ = 1 to 4 do
            Client.with_connection ~retries:100 ~socket (fun c' ->
                each_body (fun _ x2 line ->
                    Alcotest.(check string) "post-reload answers are v2" x2
                      (Protocol.payload (Client.request c' line))))
          done;
          Alcotest.(check (option int)) "no compile after the reload" before (misses ());
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

let scratch_parse ?(scratch = Lazy.force frontend_scratch) body =
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
      [ "c.Contype"; "c.Age"; "p.Age"; "p.USBorn"; "s.DrugResist"; "p.Zz"; "x.Age";
        "z.Age"; " p . Site "; "p.Age.x"; "pAge" ]
  in
  (* value spellings the fused lexer must read like [int_of_string] and
     [Value.code]: signs, '_' separators, base prefixes, inner spaces,
     overflow, labels *)
  let gen_value =
    oneof
      [ (int_range 0 3 >|= string_of_int);
        oneofl
          [ "+1"; "-0"; "-1"; "0_1"; "1_"; "_1"; "0x1"; "0b1"; "0o2"; "0u1"; "0x"; "1 2";
            " 2 "; "99999999999999999999"; "4611686018427387904"; "yes"; "no"; "young";
            "household"; "roommate"; ""; "-"; "1e0" ] ]
  in
  let gen_sel =
    let* a = gen_attr in
    oneof
      [
        (gen_value >|= fun v -> Printf.sprintf "%s=%s" a v);
        (pair (int_range 0 3) (int_range 0 4) >|= fun (lo, hi) ->
          Printf.sprintf "%s=%d..%d" a lo hi);
        (pair gen_value gen_value >|= fun (lo, hi) -> Printf.sprintf "%s=%s..%s" a lo hi);
        (list_size (int_range 1 3) (int_range 0 3) >|= fun vs ->
          Printf.sprintf "%s={%s}" a
            (String.concat "," (List.map string_of_int vs)));
        (list_size (int_range 0 3) gen_value >|= fun vs ->
          Printf.sprintf "%s={%s}" a (String.concat "," vs));
        pure (a ^ "={household,roommate}");
        pure (a ^ "=99");
        oneofl
          [ a ^ "=1...2"; a ^ "={1}}"; a ^ "={1}x"; a ^ "= { 1 , 2 } "; a ^ "=..";
            a ^ "1"; a ^ "={" ];
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
        "c=contact, p=patient, c=strain";
        "c=contact, p=patient, z=zebra";
        "c=contact, p=patient, s=strain, s=zebra";
        "c=contact=x, p=patient";
        "";
        " , ";
      ]
  in
  let gen_joins =
    oneofl
      [ "c.patient=p, p.strain=s"; "c.patient=p"; ""; "p.strain=s"; "c.nope=p";
        "c.patient=x"; "c.patient=p, c.patient=p"; "c.patient=c"; "x.patient=p";
        "c.patient.x=p"; "c=p"; "c.patient"; "s.patient=p"; "c.patient=s";
        "p.strain=s, c.patient=p, p.strain=s"; "c . patient = p" ]
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
    ~count:20_000 ~long_factor:20 ~print:String.escaped gen_frontend_body (fun body ->
      let db0 = Lazy.force db in
      match (reference_parse db0 body, scratch_parse body) with
      | Ok qr, Ok qs -> qr = qs && Canon.key qr = Canon.key qs
      | Error er, Error es -> String.equal er es
      | Ok _, Error _ | Error _, Ok _ -> false)

(* Property: a snapshot loaded back into a scratch (one that held
   another query before) is the query it was taken from — the same
   snapshot, hash, skeleton hash and materialized query. *)
let load_scratch = lazy (Squery.create (Squery.symtab (Lazy.force frontend_scratch)))

let prop_vec_load_inverts_snapshot =
  QCheck2.Test.make ~name:"Vec.load inverts Vec.of_scratch" ~count:5_000 ~long_factor:20
    ~print:String.escaped gen_frontend_body (fun body ->
      let s = Lazy.force frontend_scratch and l = Lazy.force load_scratch in
      match Squery.parse s (Bytes.of_string body) ~off:0 ~len:(String.length body) with
      | exception (Failure _ | Invalid_argument _ | Not_found) -> true
      | () ->
        Squery.canon s;
        let v = Squery.Vec.of_scratch s in
        Squery.Vec.load v l;
        Squery.Vec.equal (Squery.Vec.of_scratch l) v
        && Squery.Vec.matches v l
        && Squery.hash l = Squery.hash s
        && Squery.skeleton_hash l 7 = Squery.skeleton_hash s 7
        && Squery.to_query l = Squery.to_query s)

(* A label wins over an integer, also where labels read as integers:
   [Value.range 3 7] labels its codes 0..4 as "3".."7", so "4" is code
   1, "2" is out of domain; on a domain of word labels, "1" is code 1. *)
let test_label_wins_over_integer () =
  let schema =
    Schema.create
      [ Schema.table_schema ~name:"t"
          ~attrs:[ ("A", Value.range 3 7); ("B", Value.labeled [| "1"; "0"; "x" |]);
                   ("C", Value.labeled [| "lo"; "hi" |]) ]
          () ]
  in
  let db0 =
    Database.create schema
      [ Table.create (Schema.find_table schema "t") ~cols:[| [| 0; 1 |]; [| 0; 1 |]; [| 0; 1 |] |]
          ~fk_cols:[||] ]
  in
  let scratch = Squery.create (Squery.Symtab.of_schema schema) in
  List.iter
    (fun sel ->
      let body = "t ; ; " ^ sel in
      let show = function Ok q -> Canon.key q | Error msg -> "ERR " ^ msg in
      Alcotest.(check string) body
        (show (reference_parse db0 body))
        (show (scratch_parse ~scratch body)))
    [ "t.A=4"; "t.A=7"; "t.A=2"; "t.A=0x1"; "t.A=+4"; "t.A=3..5"; "t.A={4,2}"; "t.B=0";
      "t.B=1"; "t.B=2"; "t.B=x"; "t.B=0_1"; "t.C=1"; "t.C=hi"; "t.C=-0"; "t.C=2" ]

(* ---- the miss path, keyed and bound from the scratch ------------------------ *)

(* A schema whose [visit] table declares two foreign keys in the reverse
   of their name order ([to_host] before [by_guest]) and attributes out of
   name order, so any id-ordered rendering of joins or selects shows up
   as a key that differs from the name-ordered reference. *)
let fk2_db =
  lazy
    (let schema =
       Schema.create
         [ Schema.table_schema ~name:"person"
             ~attrs:
               [ ("Zone", Value.labeled [| "north"; "south"; "east" |]);
                 ("Age", Value.labeled ~ordinal:true [| "young"; "mid"; "old" |]) ]
             ();
           Schema.table_schema ~name:"visit"
             ~attrs:[ ("Kind", Value.labeled [| "social"; "work"; "care" |]); ("Length", Value.ints 4) ]
             ~fks:[ ("to_host", "person"); ("by_guest", "person") ] () ]
     in
     let rng = Selest_util.Rng.create 5 in
     let persons = 60 and visits = 400 in
     let zone = Array.init persons (fun _ -> Selest_util.Rng.int rng 3) in
     let age = Array.map (fun z -> (z + Selest_util.Rng.int rng 2) mod 3) zone in
     let host = Array.init visits (fun _ -> Selest_util.Rng.int rng persons) in
     let guest = Array.init visits (fun _ -> Selest_util.Rng.int rng persons) in
     let kind = Array.map (fun h -> (zone.(h) + Selest_util.Rng.int rng 2) mod 3) host in
     let length = Array.map (fun g -> (age.(g) + Selest_util.Rng.int rng 2) mod 4) guest in
     Database.create schema
       [ Table.create (Schema.find_table schema "person") ~cols:[| zone; age |] ~fk_cols:[||];
         Table.create (Schema.find_table schema "visit") ~cols:[| kind; length |]
           ~fk_cols:[| host; guest |] ])

(* One schema under test: its database, a learned model, and the
   tuple-variable sets (each connected by the listed joins) that bodies
   are drawn from. *)
type miss_case = {
  mdb : Database.t Lazy.t;
  mmodel : Selest_prm.Model.t Lazy.t;
  mtvars : (string * string) list;
  mjoins : (string * string * string) list;  (* child, fk, parent *)
  msubsets : string list list;
}

let miss_cases =
  let learned d = lazy (Selest_prm.Learn.learn_prm ~budget_bytes:2_048 ~seed:7 (Lazy.force d)) in
  let fin = lazy (Selest_synth.Financial.generate ~districts:20 ~accounts:300 ~transactions:2_000 ~seed:3 ()) in
  [ { mdb = db; mmodel = model;
      mtvars = [ ("c", "contact"); ("p", "patient"); ("s", "strain") ];
      mjoins = [ ("c", "patient", "p"); ("p", "strain", "s") ];
      msubsets = [ [ "c" ]; [ "p"; "s" ]; [ "c"; "p" ]; [ "c"; "p"; "s" ] ] };
    { mdb = fin; mmodel = learned fin;
      mtvars = [ ("d", "district"); ("a", "account"); ("t", "transaction") ];
      mjoins = [ ("a", "district", "d"); ("t", "account", "a") ];
      msubsets = [ [ "t" ]; [ "a"; "d" ]; [ "t"; "a" ]; [ "t"; "a"; "d" ] ] };
    { mdb = fk2_db; mmodel = learned fk2_db;
      mtvars = [ ("v", "visit"); ("h", "person"); ("g", "person") ];
      mjoins = [ ("v", "to_host", "h"); ("v", "by_guest", "g") ];
      msubsets = [ [ "v"; "h" ]; [ "v"; "g" ]; [ "v"; "h"; "g" ] ] } ]

(* A random valid body over one case, with whether it is contradictory:
   shuffled tuple variables and joins, 1-18 selects in any order — Eq,
   ordinal ranges and sets, with repeated attributes (enough, at the top
   end, to grow the scratch's select and set-value arrays), so one
   attribute often carries several predicates whose intersection is one
   value (a value slot), several (a mask slot) or none.  A quarter of
   the bodies add a sure contradiction: two different Eq values on one
   attribute, or a range and a set that do not overlap. *)
let gen_miss_body (mc : miss_case) =
  let open QCheck2.Gen in
  let schema = Database.schema (Lazy.force mc.mdb) in
  let* tvs = oneofl mc.msubsets in
  let* tvs = shuffle_l tvs in
  let joins =
    List.filter (fun (c, _, p) -> List.mem c tvs && List.mem p tvs) mc.mjoins
  in
  let* joins = shuffle_l joins in
  let attrs =
    List.concat_map
      (fun tv ->
        let ts = Schema.find_table schema (List.assoc tv mc.mtvars) in
        Array.to_list
          (Array.map (fun (a : Schema.attr) -> (tv, a.Schema.aname, a.Schema.domain)) ts.Schema.attrs))
      tvs
  in
  let gen_sel =
    let* tv, a, dom = oneofl attrs in
    let card = Value.card dom in
    let* v = int_range 0 (card - 1) in
    let* w = int_range 0 (card - 1) in
    let* set = list_size (int_range 1 3) (int_range 0 (card - 1)) in
    let* form = int_range 0 2 in
    let rhs =
      match form with
      | 1 when Value.is_ordinal dom -> Printf.sprintf "%d..%d" (min v w) (max v w)
      | 2 -> Printf.sprintf "{%s}" (String.concat "," (List.map string_of_int set))
      | _ -> string_of_int v
    in
    return (Printf.sprintf "%s.%s=%s" tv a rhs)
  in
  let contradiction =
    let eqs =
      List.filter_map
        (fun (tv, a, dom) ->
          let card = Value.card dom in
          if card < 2 then None
          else
            Some
              (let* v = int_range 0 (card - 1) in
               let* d = int_range 1 (card - 1) in
               return
                 [ Printf.sprintf "%s.%s=%d" tv a v;
                   Printf.sprintf "%s.%s=%d" tv a ((v + d) mod card) ]))
        attrs
    in
    let disjoint =
      List.filter_map
        (fun (tv, a, dom) ->
          let card = Value.card dom in
          if card < 3 || not (Value.is_ordinal dom) then None
          else
            Some
              (let* lo = int_range 0 (card - 2) in
               let* hi = int_range lo (card - 2) in
               let outside = List.init (card - 1 - hi) (fun k -> hi + 1 + k) in
               let* set = list_size (int_range 1 3) (oneofl outside) in
               return
                 [ Printf.sprintf "%s.%s=%d..%d" tv a lo hi;
                   Printf.sprintf "%s.%s={%s}" tv a
                     (String.concat "," (List.map string_of_int set)) ]))
        attrs
    in
    oneof (eqs @ disjoint)
  in
  let* sels = list_size (int_range 1 18) gen_sel in
  let* contradict = int_range 0 3 in
  let* extra = if contradict = 0 then contradiction else return [] in
  let* sels = shuffle_l (extra @ sels) in
  return
    ( Printf.sprintf "%s ; %s ; %s"
        (String.concat ", " (List.map (fun tv -> tv ^ "=" ^ List.assoc tv mc.mtvars) tvs))
        (String.concat ", " (List.map (fun (c, f, p) -> Printf.sprintf "%s.%s=%s" c f p) joins))
        (String.concat ", " sels),
      extra <> [] )

(* The served miss path against the layered one, per body:
   - one key space: the plan key the server folds from the scratch
     equals the key EXPLAINPLAN computes for the materialized query
     (loaded back into a scratch), hash and stored key alike;
   - the key is the skeleton's: the same query with every predicate
     replaced by an Eq keys the same, and another model version does
     not;
   - the scratch loads the same evidence: the served estimate, and
     [Plan.execute_scratch] on the scratch, are bit-identical to
     [Plan.execute] on [Plan.bind] of the materialized query, and to
     [Ve.Reference] on the plan's factors;
   - contradictions answer exactly 0.0. *)
let prop_scratch_miss_path (mc : miss_case) name =
  let server =
    lazy
      (let s = Server.create ~db:(Lazy.force mc.mdb) ~socket:"(test: unused)" () in
       ignore (Registry.register (Server.registry s) ~name:"default" (Lazy.force mc.mmodel));
       s)
  in
  let symtab = lazy (Squery.Symtab.of_schema (Database.schema (Lazy.force mc.mdb))) in
  let scratch = lazy (Squery.create (Lazy.force symtab)) in
  let reloaded = lazy (Squery.create (Lazy.force symtab)) in
  QCheck2.Test.make ~name:("miss path from the scratch ≡ to_query path: " ^ name) ~count:300
    ~long_factor:20
    ~print:(fun (body, _) -> body)
    (gen_miss_body mc)
    (fun (body, contradictory) ->
      let s = Lazy.force scratch and m = Lazy.force mc.mmodel in
      Squery.parse s (Bytes.of_string body) ~off:0 ~len:(String.length body);
      Squery.canon s;
      let q = Squery.to_query s in
      let key ?(version = 3) sc =
        ( Canon.Skel.scratch_hash ~name:"default" ~version sc,
          Canon.Skel.scratch_key ~name:"default" ~version sc )
      in
      let s2 = Lazy.force reloaded in
      let eqs = Query.with_selects q (List.map (fun sel -> { sel with Query.pred = Query.Eq 0 }) q.Query.selects) in
      Squery.load_query s2 eqs;
      Squery.canon s2;
      let skeleton_key = key s2 in
      Squery.load_query s2 q;
      Squery.canon s2;
      let plan = Selest_plan.Plan.compile m q in
      let bits = Int64.bits_of_float in
      let direct = Selest_plan.Plan.execute plan (Selest_plan.Plan.bind plan q) in
      let reference =
        Selest_bn.Ve.Reference.prob_of_evidence (Selest_plan.Plan.factors plan)
          (Selest_plan.Plan.bind plan q @ Selest_plan.Plan.join_evidence plan)
      in
      let from_scratch = Selest_plan.Plan.execute_scratch plan s in
      let served =
        float_of_string
          (Protocol.payload (fst (Server.handle_line (Lazy.force server) ("EST " ^ body))))
      in
      let scale = Selest_plan.Plan.scale plan ~sizes:(Selest_plan.Estimate.sizes_of_db (Lazy.force mc.mdb)) in
      key s = key s2
      && key s = skeleton_key
      && Canon.Skel.scratch_matches (snd (key s)) ~name:"default" ~version:3 s2
      && fst (key ~version:4 s) <> fst (key s)
      && not (Canon.Skel.scratch_matches (snd (key s)) ~name:"default" ~version:4 s2)
      && Int64.equal (bits from_scratch) (bits direct)
      && Int64.equal (bits reference) (bits direct)
      && Int64.equal (bits served) (bits (direct *. scale))
      && ((not contradictory) || served = 0.0))

(* EST keys its plan from the scratch, EXPLAINPLAN from the materialized
   query: one key space, so the EXPLAINPLAN after an EST of the same
   query compiles one plan fewer than on a cold server. *)
let test_est_then_explainplan_shares_plan () =
  let body = "p=patient, c=contact ; c.patient=p ; p.USBorn=1, c.Contype={2,0}" in
  let explainplan_compiles ~after_est =
    let server = fresh_server () in
    let ask line = fst (Server.handle_line server line) in
    if after_est then Alcotest.(check bool) "EST ok" true (Protocol.is_ok (ask ("EST " ^ body)));
    let _, before, _ = Plan_cache.stats (Server.plan_cache server) in
    Alcotest.(check bool) "EXPLAINPLAN ok" true (Protocol.is_ok (ask ("EXPLAINPLAN " ^ body)));
    let _, after, _ = Plan_cache.stats (Server.plan_cache server) in
    after - before
  in
  let cold = explainplan_compiles ~after_est:false in
  let warm = explainplan_compiles ~after_est:true in
  Alcotest.(check int) "the EST's plan serves EXPLAINPLAN's full query" (cold - 1) warm

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

(* [server]'s shard 0 loop ({!Server.run_shard}) in its own domain,
   serving one end of a socketpair: [send] writes raw bytes and returns
   the bytes answered; [close] stops the loop. *)
let loopback server =
  let client, srv = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* a dead loop fails the test instead of hanging it *)
  Unix.setsockopt_float client Unix.SO_RCVTIMEO 5.0;
  let rt = Shard.create Shard.unix ~sid:0 in
  let loop = Domain.spawn (fun () -> Server.run_shard server rt) in
  Shard.submit rt srv;
  let buf = Bytes.create 65536 in
  let send msg =
    ignore (Unix.write_substring client msg 0 (String.length msg));
    let n = Unix.read client buf 0 (Bytes.length buf) in
    Bytes.sub_string buf 0 n
  in
  let close () =
    Server.shutdown server;
    Shard.wake rt;
    Domain.join loop;
    Shard.destroy rt;
    Unix.close client
  in
  (send, close)

let est_counters = [ "requests"; "est_requests"; "est_errors"; "shard.0.requests" ]

let counter_values server =
  List.map (fun k -> Metrics.get (Server.metrics server) k) est_counters

(* Run [f] and return the per-counter deltas it caused. *)
let counter_deltas server f =
  let c0 = counter_values server in
  let r = f () in
  (r, List.map2 ( - ) (counter_values server) c0)

(* End-to-end fast path over a real socketpair, through the shard loop
   production runs.  Warm and cold EST (text and binary) answer
   bit-identically to the transport-free reference path; errors are
   answered with the reference bytes and counters; tracing keeps the
   fast path; every other verb answers byte-identically. *)
let test_fast_path_loopback () =
  let server = fresh_server () in
  let send, close = loopback server in
  let ask line = send (line ^ "\n") in
  let frame_of ?model body =
    Protocol.Bin.encode_request (Protocol.Bin.Best { model; body })
  in
  (* a fast-path answer must equal the reference entry point's bytes and
     move the EST counters by the same amounts *)
  let same_as_reference label f reference =
    let got, d_fast = counter_deltas server f in
    let want, d_ref = counter_deltas server reference in
    Alcotest.(check string) (label ^ ": bytes") want got;
    Alcotest.(check (list int)) (label ^ ": counters") d_ref d_fast
  in
  let m = Server.metrics server in
  Fun.protect ~finally:close (fun () ->
      let body = "c=contact, p=patient ; c.patient=p ; p.USBorn=1, c.Contype=2" in
      (* non-EST verbs take the reference path *)
      Alcotest.(check string) "fallback PING" "PONG\n" (ask "PING");
      (* cold EST is owned by the fast path, which serves the miss inline *)
      let cold = ask ("EST " ^ body) in
      Alcotest.(check bool) "cold est ok" true (Protocol.is_ok (String.trim cold));
      (* warm repeat: pre-rendered response, identical bytes *)
      Alcotest.(check string) "warm repeat identical" cold
        (ask ("EST " ^ body));
      (* the transport-free reference path sees the same cache entry *)
      let direct, _ = Server.handle_line server ("EST " ^ body) in
      Alcotest.(check string) "matches handle_line" (direct ^ "\n") cold;
      (* tracing on: same path, same bytes, and the sink receives the
         request's spans.  A first hit (the same query spelled with its
         selects swapped) takes the canonical path and moves the
         front-end counters... *)
      let frontend () =
        List.map (Metrics.get m) [ "frontend.parse_ns"; "frontend.canon_ns"; "frontend.key_ns" ]
      in
      let traced line =
        let records = ref [] in
        let reply =
          Fun.protect
            ~finally:(fun () -> Selest_obs.Span.set_global_sink None)
            (fun () ->
              Selest_obs.Span.set_global_sink (Some (fun r -> records := r :: !records));
              ask line)
        in
        (reply, List.rev !records)
      in
      let names = List.map (fun (r : Selest_obs.Span.record) -> r.Selest_obs.Span.name) in
      let parse_ns0 = Metrics.get m "frontend.parse_ns" in
      let first_hit, records =
        traced "EST c=contact, p=patient ; c.patient=p ; c.Contype=2, p.USBorn=1"
      in
      Alcotest.(check string) "traced est identical" cold first_hit;
      Alcotest.(check bool) "traced est moves frontend.parse_ns" true
        (Metrics.get m "frontend.parse_ns" > parse_ns0);
      List.iter
        (fun n -> Alcotest.(check bool) ("sink saw span " ^ n) true (List.mem n (names records)))
        [ "est"; "est.parse"; "est.canon"; "est.cache"; "est.respond" ];
      (* ...while a body whose exact bytes a verified hit answered is a
         memo hit: no front-end stage runs, so no front-end counter
         moves, and its est.cache span says so *)
      let frontend0 = frontend () in
      let repeat, records = traced ("EST " ^ body) in
      Alcotest.(check string) "traced memo hit identical" cold repeat;
      Alcotest.(check (list int)) "memo hit moves no frontend counter" frontend0 (frontend ());
      Alcotest.(check (list string)) "memo hit spans" [ "est.cache"; "est.respond"; "est" ]
        (names records);
      Alcotest.(check (list (pair string string))) "memo hit est.cache attrs"
        [ ("cached", "memo") ]
        (List.hd records).Selest_obs.Span.attrs;
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
      let resp = send (frame_of body) in
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
      Alcotest.(check int) "no collisions" 0 (Lru.collisions (Server.cache server)));
  (* an empty registry: the fast path answers the reference error, over
     text and BIN *)
  let empty = Server.create ~db:(Lazy.force db) ~socket:"(test: unused)" () in
  let send, close = loopback empty in
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
      Alcotest.(check (list int)) "empty registry: bin counters" d_ref d_fast)

(* ---- one catalog, four views ------------------------------------------------------ *)

let catalog_model_file =
  lazy
    (let path = Filename.temp_file "selest_catalog" ".prm" in
     Selest_prm.Serialize.save path (Lazy.force model);
     at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
     path)

(* The lines of a multi-line [OK lines=N] response. *)
let body_lines resp = List.tl (String.split_on_char '\n' resp)

let parse_metrics resp = Selest_obs.Prometheus.parse (String.concat "\n" (body_lines resp))

let catalog_types =
  List.map (fun (f : Catalog.family) -> (f.Catalog.name, Catalog.kind_string f.Catalog.kind))
    Catalog.families

(* Where HEALTH and SHARDS show a family: (family, view, the line's
   prefix for a label value, field). *)
let view_fields =
  let fixed p _ = p in
  let shard_line l = Printf.sprintf "shard id=%s " l in
  [ ("selest_requests_total", `Health, fixed "status=", "requests");
    ("selest_cache_hits_total", `Health, fixed "cache=estimate ", "hits");
    ("selest_cache_misses_total", `Health, fixed "cache=estimate ", "misses");
    ("selest_cache_entries", `Health, fixed "cache=estimate ", "entries");
    ("selest_plan_cache_hits_total", `Health, fixed "cache=plan ", "hits");
    ("selest_plan_cache_misses_total", `Health, fixed "cache=plan ", "misses");
    ("selest_plan_cache_entries", `Health, fixed "cache=plan ", "entries");
    ("selest_shard_requests_total", `Health, shard_line, "requests");
    ("selest_shard_inflight", `Health, shard_line, "inflight");
    ("selest_shard_accepted_total", `Health, shard_line, "accepted");
    ("selest_shard_requests_total", `Shards, shard_line, "requests");
    ("selest_shard_inflight", `Shards, shard_line, "inflight");
    ("selest_shard_accepted_total", `Shards, shard_line, "accepted");
    ("selest_slowlog_captured_total", `Health, fixed "slowlog ", "captured");
    ("selest_slowlog_entries", `Health, fixed "slowlog ", "held");
    ("selest_qerror", `Health, Printf.sprintf "qerror model=%s ", "n");
    ("selest_qerror", `Health, Printf.sprintf "slo=qerror model=%s ", "n");
    ("selest_slo_qerror_burn", `Health, Printf.sprintf "slo=qerror model=%s ", "burn");
    ("selest_domains", `Shards, fixed "domains=", "domains");
    ("selest_registry_epoch", `Shards, fixed "domains=", "epoch") ]

(* Per-shard SHARDS fields whose sum is an aggregate family. *)
let shard_sums =
  [ ("cache_hits", "selest_cache_hits_total"); ("cache_misses", "selest_cache_misses_total");
    ("cache_entries", "selest_cache_entries"); ("plan_hits", "selest_plan_cache_hits_total");
    ("plan_misses", "selest_plan_cache_misses_total");
    ("plan_entries", "selest_plan_cache_entries") ]

(* Render all four views from one snapshot and check that every family's
   sample reads the same in each view that shows it; fails with the
   first disagreement. *)
let check_views_agree server =
  let snap = Server.snapshot server in
  let stats = Server.view server snap `Stats in
  let types, samples = parse_metrics (Server.view server snap `Metrics) in
  let health = body_lines (Server.view server snap `Health) in
  let shards = body_lines (Server.view server snap `Shards) in
  let fail fmt = Printf.ksprintf failwith fmt in
  if types <> catalog_types then fail "METRICS families differ from the catalog";
  let close a b = Float.abs (a -. b) <= 1e-5 *. Float.max 1.0 (Float.abs a) in
  List.iter
    (fun (f : Catalog.family) ->
      let name = f.Catalog.name in
      List.iter
        (fun (label, v) ->
          let labels = match f.Catalog.label with None -> [] | Some k -> [ (k, label) ] in
          let metric suffix =
            match Selest_obs.Prometheus.find_sample samples ~name:(name ^ suffix) ~labels () with
            | Some x -> x
            | None -> fail "METRICS has no %s%s{%s}" name suffix label
          in
          let stat suffix =
            Option.map
              (fun k ->
                let key = Catalog.stats_key k label ^ suffix in
                match Protocol.stats_field stats key with
                | Some x -> x
                | None -> fail "STATS has no %s" key)
              f.Catalog.stats
          in
          let agree what ok = if not ok then fail "%s{%s}: %s disagrees" name label what in
          let expect_int suffix n =
            agree "METRICS" (metric suffix = float_of_int n);
            Option.iter (fun x -> agree "STATS" (x = string_of_int n)) (stat suffix)
          in
          (match v with
          | Catalog.Int n -> expect_int "" n
          | Catalog.Float x ->
            agree "METRICS" (close x (metric ""));
            Option.iter (fun s -> agree "STATS" (close x (float_of_string s))) (stat "")
          | Catalog.Latency h ->
            agree "METRICS" (metric "_count" = float_of_int (Selest_obs.Histogram.count h));
            Option.iter
              (fun s -> agree "STATS" (s = string_of_int (Selest_obs.Histogram.count h)))
              (stat "_count")
          | Catalog.Qerror qe ->
            agree "METRICS" (metric "_count" = float_of_int (Selest_obs.Qerror.count qe));
            Option.iter
              (fun s -> agree "STATS" (s = string_of_int (Selest_obs.Qerror.count qe)))
              (stat ".n"));
          List.iter
            (fun (fam, view, prefix, key) ->
              if fam = name then begin
                let lines = if view = `Health then health else shards in
                let p = prefix label in
                let line =
                  match List.find_opt (String.starts_with ~prefix:p) lines with
                  | Some l -> l
                  | None -> fail "no line %S for %s" p name
                in
                let want =
                  match v with
                  | Catalog.Int n -> string_of_int n
                  | Catalog.Float x -> Printf.sprintf "%.2f" x
                  | Catalog.Qerror qe -> string_of_int (Selest_obs.Qerror.count qe)
                  | Catalog.Latency h -> string_of_int (Selest_obs.Histogram.count h)
                in
                agree (p ^ key) (Protocol.stats_field line key = Some want)
              end)
            view_fields)
        (f.Catalog.read snap))
    Catalog.families;
  (* nothing is counted outside the catalog: every telemetry counter is
     a STATS key with its own value *)
  List.iter
    (fun (k, v) ->
      if Protocol.stats_field stats k <> Some (string_of_int v) then
        fail "telemetry counter %s is not in STATS" k)
    snap.Catalog.tel.Selest_obs.Telemetry.counters;
  List.iter
    (fun (field, fam) ->
      let total =
        List.fold_left
          (fun acc l ->
            if String.starts_with ~prefix:"shard id=" l then
              acc + int_of_string (Option.get (Protocol.stats_field l field))
            else acc)
          0 shards
      in
      if total <> Catalog.int snap fam then fail "SHARDS %s does not sum to %s" field fam)
    shard_sums;
  true

let test_view_fields_declared () =
  List.iter
    (fun (fam, _, _, _) ->
      Alcotest.(check bool) (fam ^ " declared") true
        (List.exists (fun (f : Catalog.family) -> f.Catalog.name = fam) Catalog.families))
    view_fields

(* A fresh server's METRICS is exactly the catalog: every family is
   declared, at zero, before anything moves it. *)
let test_fresh_metrics_is_catalog () =
  let server = Server.create ~domains:2 ~db:(Lazy.force db) ~socket:"(test: unused)" () in
  let types, _ = parse_metrics (fst (Server.handle_line server "METRICS")) in
  Alcotest.(check (list (pair string string))) "name/type list" catalog_types types;
  Alcotest.(check bool) "views agree" true (check_views_agree server)

let gen_view_mix =
  let open QCheck2.Gen in
  let body =
    oneofl
      [ "c=contact, p=patient ; c.patient=p ; p.USBorn=1";
        "c=contact, p=patient ; c.patient=p ; p.USBorn=0, c.Contype=2";
        "p=patient ; ; p.USBorn=1"; "c=contact ; ; c.Contype=1" ]
  in
  let model = oneofl [ ""; "@other " ] in
  let line =
    frequency
      [ (6, map2 (fun m b -> "EST " ^ m ^ b) model body);
        (2, map (fun bs -> "ESTBATCH " ^ String.concat " || " bs) (list_size (int_range 1 3) body));
        (2, map2 (fun t b -> Printf.sprintf "TRUTH %g %s" t b) (oneofl [ 10.0; 500.0; 1e9 ]) body);
        (1, oneofl [ "LOAD default"; "LOAD other"; "LOAD bad /nonexistent.prm" ]);
        (2, oneofl [ "EST p=patient ; ; p.Nope=1"; "FROB"; "TRUTH x p=patient"; "ESTBATCH"; "EST" ]);
        (1, oneofl [ "PING"; "EXPLAIN p=patient ; ; p.USBorn=1"; "HEALTH"; "STATS" ]) ]
  in
  list_size (int_range 1 25) (pair (int_range 0 1) line)

let prop_views_agree =
  QCheck2.Test.make ~name:"STATS, METRICS, HEALTH and SHARDS agree" ~count:40
    ~long_factor:20
    ~print:QCheck2.Print.(list (pair int string))
    gen_view_mix
    (fun reqs ->
      let path = Lazy.force catalog_model_file in
      let server = Server.create ~domains:2 ~db:(Lazy.force db) ~socket:"(test: unused)" () in
      ignore (Registry.register (Server.registry server) ~name:"default" (Lazy.force model));
      List.iter
        (fun (shard, line) ->
          let line =
            if String.starts_with ~prefix:"LOAD " line && String.length line < 14 then
              line ^ " " ^ path
            else line
          in
          ignore (Server.handle_line_shard server ~shard line))
        reqs;
      check_views_agree server)

(* ---- shard I/O ------------------------------------------------------------------- *)

(* Everything the peer has written until it closes. *)
let read_to_eof fd =
  let buf = Buffer.create 256 and b = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd b 0 4096 with
    | 0 -> Buffer.contents buf
    | n -> Buffer.add_subbytes buf b 0 n; go ()
  in
  go ()

(* An unterminated line arriving 4 KiB at a time is scanned once, not
   once per read: 8 MiB took 18.6 s when every read rescanned the line.
   The line stays under the cap, so once terminated it is answered and
   the connection serves on. *)
let test_long_line_ingest_linear () =
  let server = fresh_server () in
  let net = Simio.create () in
  (* a verb whose error does not echo the line back *)
  let peer =
    Simio.connect net ~max_chunk:4096 [ "SLOWLOG "; String.make (8 lsl 20) 'x'; "\nPING\n" ]
  in
  let t0 = Unix.gettimeofday () in
  Simio.serve server [ net ];
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "8 MiB ingested in %.2fs < 2s" dt) true (dt < 2.0);
  Alcotest.(check string) "long line answered ERR, then PONG"
    "ERR SLOWLOG expects: SLOWLOG [<count>]\nPONG\n" (Simio.received peer);
  Alcotest.(check bool) "closed at the peer's end of stream" false (Simio.dropped peer)

(* A text line longer than the frame cap is answered ERR and the
   connection closed; a connection made after that still answers. *)
let test_over_cap_line_closes () =
  let server = fresh_server () in
  let net = Simio.create () in
  let long = Simio.connect net ~max_chunk:8192 [ String.make (Protocol.Bin.max_frame + 8192) 'x' ] in
  let second = ref None in
  Simio.when_idle net (fun () -> second := Some (Simio.connect net [ "PING\n" ]));
  Simio.serve server [ net ];
  Alcotest.(check bool) "connection closed" true (Simio.dropped long);
  Alcotest.(check string) "ERR then EOF"
    (Printf.sprintf "ERR line length exceeds %d\n" Protocol.Bin.max_frame)
    (Simio.received long);
  Alcotest.(check string) "second connection" "PONG\n" (Simio.received (Option.get !second))

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

(* ---- carried plans across a reload ----------------------------------------------- *)

(* Alternate LOADs of two model files on [domains] shards.  After each
   reload every answer is the fresh server's, bit for bit, and no
   request compiles: each skeleton was fetched under the previous
   version (on either shard), so its plan was carried. *)
let test_carry_across_reloads domains () =
  let p1, p2 = Lazy.force carry_files in
  let ref1 = fresh_answers p1 and ref2 = fresh_answers p2 in
  Alcotest.(check bool) "models disagree (test is not vacuous)" false (ref1 = ref2);
  let server = Server.create ~domains ~db:(Lazy.force db) ~socket:"(test: unused)" () in
  let ask k line = fst (Server.handle_line_shard server ~shard:(k mod domains) line) in
  (* round [r] sends body [i] to shard (i + r) mod domains, so a
     skeleton moves shards between rounds *)
  let round ?(bodies = carry_bodies) r = List.mapi (fun i b -> ask (i + r) ("EST " ^ b)) bodies in
  let load r path =
    let reply = ask r ("LOAD tb " ^ path) in
    Alcotest.(check bool) ("LOAD answers OK: " ^ reply) true
      (String.starts_with ~prefix:"OK loaded tb version " reply)
  in
  load 0 p1;
  Alcotest.(check (list string)) "first version answers" ref1 (round 0);
  for r = 1 to 4 do
    let path, expect = if r mod 2 = 1 then (p2, ref2) else (p1, ref1) in
    let carried0 = stat_int server "plan_cache_carried" in
    load r path;
    Alcotest.(check int) "every fetched skeleton carried" carry_skeletons
      (stat_int server "plan_cache_carried" - carried0);
    let misses0 = stat_int server "plan_cache_misses" in
    Alcotest.(check (list string)) "answers = a fresh server's" expect (round r);
    Alcotest.(check int) "no compile on the request path" 0
      (stat_int server "plan_cache_misses" - misses0)
  done;
  (* fetch three skeletons only: the next reload carries just those *)
  load 5 p2;
  ignore (round ~bodies:(List.filteri (fun i _ -> i < 3) carry_bodies) 5);
  let carried0 = stat_int server "plan_cache_carried" in
  load 6 p1;
  Alcotest.(check int) "skeletons no request fetched are dropped" 3
    (stat_int server "plan_cache_carried" - carried0);
  Alcotest.(check (list string)) "dropped skeletons still answer" ref1 (round 6)

(* The carry set is capped at the cache's capacity, a skeleton whose
   compile fails is left out without failing the carry, and it then
   compiles on demand. *)
let test_carry_cap_and_failure () =
  let m = Lazy.force model in
  let scratch = Squery.create (Squery.Symtab.of_schema (Database.schema (Lazy.force db))) in
  let load body =
    let b = Bytes.of_string body in
    Squery.parse scratch b ~off:0 ~len:(Bytes.length b);
    Squery.canon scratch
  in
  let fetch pc shared ~version body =
    load body;
    Plan_cache.probe pc shared
      ~hash:(Canon.Skel.scratch_hash ~name:"tb" ~version scratch)
      ~verify:(fun key s -> Canon.Skel.scratch_matches key ~name:"tb" ~version s)
      ~key:(fun s -> Canon.Skel.scratch_key ~name:"tb" ~version s)
      ~compile:(fun s -> Selest_plan.Plan.compile m (Squery.to_query s))
      scratch
  in
  let skeleton body =
    load body;
    Selest_plan.Plan.skeleton_key (Squery.to_query scratch)
  in
  let carry pc prev ~version ~failing =
    Plan_cache.carry pc prev
      ~rekey:(fun key ->
        let k = Canon.Skel.rekey ~name:"tb" ~version key in
        (k.Canon.Skel.hash, k.Canon.Skel.key))
      ~compile:(fun p ->
        if Selest_plan.Plan.skeleton p = failing then failwith "injected compile failure"
        else Selest_plan.Plan.compile m (Selest_plan.Plan.query p))
  in
  (* rekey lands exactly on the served key of the next version *)
  load (List.nth carry_bodies 4);
  let k = Canon.Skel.rekey ~name:"tb" ~version:2 (Canon.Skel.scratch_key ~name:"tb" ~version:1 scratch) in
  Alcotest.(check int) "rekey hash" (Canon.Skel.scratch_hash ~name:"tb" ~version:2 scratch)
    k.Canon.Skel.hash;
  Alcotest.(check string) "rekey key" (Canon.Skel.scratch_key ~name:"tb" ~version:2 scratch)
    k.Canon.Skel.key;
  let pc = Plan_cache.create ~capacity:4 () in
  let v1 = Plan_cache.Shared.create () in
  let first6 = List.filteri (fun i _ -> i < 6) carry_bodies in
  List.iter (fun b -> ignore (fetch pc v1 ~version:1 b)) first6;
  let v2 = carry pc v1 ~version:2 ~failing:"" in
  Alcotest.(check int) "carry set capped at capacity" 4 (Plan_cache.Shared.carried v2);
  let _, misses0, _ = Plan_cache.stats pc in
  let b0 = List.nth carry_bodies 0 and b1 = List.nth carry_bodies 1 in
  Alcotest.(check bool) "carried plans are adopted" true
    (snd (fetch pc v2 ~version:2 b0) = `Hit && snd (fetch pc v2 ~version:2 b1) = `Hit);
  let _, misses1, _ = Plan_cache.stats pc in
  Alcotest.(check int) "adoption compiles nothing" misses0 misses1;
  let v3 = carry pc v2 ~version:3 ~failing:(skeleton b1) in
  Alcotest.(check int) "failed and unfetched skeletons are left out" 1
    (Plan_cache.Shared.carried v3);
  let _, misses2, _ = Plan_cache.stats pc in
  Alcotest.(check int) "each carry attempt counts a compile" (misses1 + 2) misses2;
  Alcotest.(check bool) "the carried skeleton is adopted" true
    (snd (fetch pc v3 ~version:3 b0) = `Hit);
  let plan, status = fetch pc v3 ~version:3 b1 in
  Alcotest.(check bool) "the failed skeleton compiles on demand" true (status = `Miss);
  let direct = Selest_plan.Plan.compile m (Squery.to_query scratch) in
  Alcotest.(check bool) "and answers like a direct compile" true
    (Int64.bits_of_float (Selest_plan.Plan.execute_scratch plan scratch)
    = Int64.bits_of_float (Selest_plan.Plan.execute_scratch direct scratch))

(* Property: over random reload sequences of the two model files, with
   random subsets of the bodies asked in between, on 2 shards, every
   answer equals the fresh server's for the file last loaded. *)
let prop_carry_matches_fresh =
  let answers = lazy (
    let p1, p2 = Lazy.force carry_files in
    (fresh_answers p1, fresh_answers p2))
  in
  QCheck2.Test.make ~name:"answers after any reload sequence = fresh server" ~count:20
    ~long_factor:20
    QCheck2.Gen.(list_size (int_range 1 5) (pair bool (list_size (int_range 1 10) (int_range 0 9))))
    (fun steps ->
      let p1, p2 = Lazy.force carry_files in
      let ref1, ref2 = Lazy.force answers in
      let server = Server.create ~domains:2 ~db:(Lazy.force db) ~socket:"(test: unused)" () in
      List.for_all
        (fun (second, picks) ->
          ignore (Server.handle_line_shard server ~shard:0 ("LOAD tb " ^ if second then p2 else p1));
          let expect = if second then ref2 else ref1 in
          List.for_all
            (fun i ->
              fst (Server.handle_line_shard server ~shard:(i land 1)
                     ("EST " ^ List.nth carry_bodies i))
              = List.nth expect i)
            picks)
        steps)

(* ---- carried answers across a reload -------------------------------------------- *)

(* Alternate LOADs of two model files on [domains] shards, every body
   asked on every shard between them.  After each reload every answer is
   the fresh server's, bit for bit, and none runs an inference or a
   compile on either shard: the LOAD's shard re-answered its cached
   queries on the new version before the publish, and every shard adopts
   those answers. *)
let test_answers_carried domains () =
  let p1, p2 = Lazy.force carry_files in
  let ref1 = fresh_answers p1 and ref2 = fresh_answers p2 in
  let server = Server.create ~domains ~db:(Lazy.force db) ~socket:"(test: unused)" () in
  let ask shard line = fst (Server.handle_line_shard server ~shard line) in
  let everywhere () =
    List.init domains (fun shard -> List.map (fun b -> ask shard ("EST " ^ b)) carry_bodies)
  in
  let n = List.length carry_bodies in
  ignore (ask 0 ("LOAD tb " ^ p1));
  List.iter (Alcotest.(check (list string)) "first version answers" ref1) (everywhere ());
  for r = 1 to 4 do
    let path, expect = if r mod 2 = 1 then (p2, ref2) else (p1, ref1) in
    let carried0 = stat_int server "cache_carried" in
    Alcotest.(check bool) "LOAD answers OK" true
      (String.starts_with ~prefix:"OK loaded tb version " (ask (r mod domains) ("LOAD tb " ^ path)));
    Alcotest.(check int) "every cached query carried" n
      (stat_int server "cache_carried" - carried0);
    let infers0 = stat_int server "infer.tb" and misses0 = stat_int server "plan_cache_misses" in
    let cmisses0 = stat_int server "cache_misses" in
    List.iter (Alcotest.(check (list string)) "answers = a fresh server's" expect) (everywhere ());
    Alcotest.(check int) "no inference after the reload" 0 (stat_int server "infer.tb" - infers0);
    Alcotest.(check int) "no compile after the reload" 0
      (stat_int server "plan_cache_misses" - misses0);
    Alcotest.(check int) "every request a hit" 0 (stat_int server "cache_misses" - cmisses0)
  done

(* The carried answers are capped at the plan-cache capacity (256),
   taken hottest first; a cached query whose skeleton has no carried
   plan is skipped; both are answered on demand after the reload. *)
let test_answer_cap_and_uncarried () =
  let p1, p2 = Lazy.force carry_files in
  let server = Server.create ~db:(Lazy.force db) ~socket:"(test: unused)" () in
  let ask line = fst (Server.handle_line server line) in
  let ests = List.iter (fun b -> ignore (ask ("EST " ^ b))) in
  let carried_by_load path =
    let c0 = stat_int server "cache_carried" in
    ignore (ask ("LOAD tb " ^ path));
    stat_int server "cache_carried" - c0
  in
  let infers f =
    let i0 = stat_int server "infer.tb" in
    f ();
    stat_int server "infer.tb" - i0
  in
  let split k l = (List.filteri (fun i _ -> i < k) l, List.filteri (fun i _ -> i >= k) l) in
  (* 300 bindings of one skeleton: one plan, 256 answers carried *)
  let bindings =
    List.concat_map
      (fun (a, s) ->
        List.init 30 (fun k ->
            Printf.sprintf
              "c=contact, p=patient ; c.patient=p ; p.Age=%d, p.Site=%d, c.Contype=%d, c.Age=%d"
              a s (k mod 5) (k / 5)))
      [ (0, 0); (0, 1); (1, 0); (1, 1); (2, 0); (2, 1); (3, 0); (3, 1); (4, 0); (4, 1) ]
  in
  ignore (ask ("LOAD tb " ^ p1));
  ests bindings;
  Alcotest.(check int) "capped at the plan-cache capacity" 256 (carried_by_load p2);
  let cold, hot = split 44 bindings in
  Alcotest.(check int) "the 256 hottest are hits" 0 (infers (fun () -> ests hot));
  Alcotest.(check int) "the 44 coldest infer" 44 (infers (fun () -> ests cold));
  (* 257 skeletons: the record of fetched skeletons holds 256, so the
     last one's plan is not carried, and neither is its answer *)
  let skeletons =
    let pick attrs mask tv =
      List.filteri (fun i _ -> mask land (1 lsl i) <> 0) attrs
      |> List.map (fun a -> Printf.sprintf "%s.%s=1" tv a)
    in
    List.concat_map
      (fun cm ->
        List.init 63 (fun pm ->
            "c=contact, p=patient ; c.patient=p ; "
            ^ String.concat ", "
                (pick [ "Age"; "Gender"; "HIV"; "USBorn"; "Homeless"; "Site" ] (pm + 1) "p"
                @ pick [ "Contype"; "Age"; "Infected"; "Gender" ] cm "c")))
      [ 0; 1; 2; 3; 4 ]
    |> List.filteri (fun i _ -> i < 257)
  in
  ignore (carried_by_load p1);
  ests skeletons;
  Alcotest.(check int) "the uncarried skeleton's query is skipped" 255 (carried_by_load p2);
  let carried, last = split 256 skeletons in
  let last = List.hd last in
  Alcotest.(check int) "it infers on demand" 1 (infers (fun () -> ignore (ask ("EST " ^ last))));
  Alcotest.(check int) "the others do not" 0
    (infers (fun () -> ests (List.filteri (fun i _ -> i > 0) carried)));
  let fresh = Server.create ~db:(Lazy.force db) ~socket:"(test: unused)" () in
  ignore (Server.handle_line fresh ("LOAD tb " ^ p2));
  Alcotest.(check string) "and it answers like a fresh server"
    (fst (Server.handle_line fresh ("EST " ^ last)))
    (ask ("EST " ^ last))

(* A carried answer that fails is left out alone: the walk carries
   every other entry, promotes and counts nothing, and the failed query
   is answered on demand.  Injected at the walk ({!Lru.carry}) and, on a
   server, as a cached entry whose snapshot cannot be decoded. *)
let test_answer_failure_skips_entry () =
  let entry ~version est =
    { Lru.est; text = ""; bin = ""; vec = Squery.Vec.empty; model = "m"; version }
  in
  let lru = Lru.create ~capacity_bytes:(1 lsl 20) in
  List.iter (fun i -> Lru.add lru i (entry ~version:1 (float_of_int i))) [ 0; 1; 2; 3 ];
  Lru.add lru 4 (entry ~version:2 4.0);
  let order = Lru.hashes_hot_first lru in
  let carried =
    Lru.carry lru ~cap:10
      ~keep:(fun e -> e.Lru.version = 1)
      ~answer:(fun e ->
        if e.Lru.est = 1.0 then failwith "injected execute failure"
        else (100 + int_of_float e.Lru.est, e))
  in
  Alcotest.(check int) "every other kept entry carried" 3 (Lru.Carried.length carried);
  let carried_est h =
    match Lru.Carried.find carried h with e -> Some e.Lru.est | exception Not_found -> None
  in
  Alcotest.(check (list (option (float 0.0)))) "the failed one is not"
    [ Some 0.0; None; Some 2.0; Some 3.0; None ]
    (List.map carried_est [ 100; 101; 102; 103; 104 ]);
  Alcotest.(check (list int)) "the walk promotes nothing" order (Lru.hashes_hot_first lru);
  Alcotest.(check (pair int int)) "and counts nothing" (0, 0) (Lru.hits lru, Lru.misses lru);
  let bodies = List.filteri (fun i _ -> i < 4) carry_bodies in
  (* on a server: a cached entry of the model that cannot be decoded *)
  let p1, p2 = Lazy.force carry_files in
  let server = Server.create ~db:(Lazy.force db) ~socket:"(test: unused)" () in
  let ask line = fst (Server.handle_line server line) in
  ignore (ask ("LOAD tb " ^ p1));
  List.iter (fun b -> ignore (ask ("EST " ^ b))) bodies;
  Lru.add (Server.cache server) 12345
    { Lru.est = 0.0; text = "OK 0\n"; bin = ""; vec = Squery.Vec.empty; model = "tb";
      version = 1 };
  let c0 = stat_int server "cache_carried" in
  Alcotest.(check bool) "the LOAD still succeeds" true
    (String.starts_with ~prefix:"OK loaded tb version 2" (ask ("LOAD tb " ^ p2)));
  Alcotest.(check int) "every decodable entry carried" (List.length bodies)
    (stat_int server "cache_carried" - c0);
  let i0 = stat_int server "infer.tb" in
  Alcotest.(check (list string)) "answers = a fresh server's"
    (List.filteri (fun i _ -> i < 4) (fresh_answers p2))
    (List.map (fun b -> ask ("EST " ^ b)) bodies);
  Alcotest.(check int) "without inference" 0 (stat_int server "infer.tb" - i0)

(* ---- LOAD reads only a regular model file ------------------------------------------ *)

(* A LOAD over a serving name of a path that is not a model file
   answers ERR, counts a load error, quotes none of the file, and
   leaves the old version serving.  [make dir] creates the path to
   LOAD in a fresh directory. *)
let load_refused label make =
  let p1, _ = Lazy.force carry_files in
  let dir = Filename.temp_dir "selest_load" "" in
  let path = make dir in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; dir ])))
    (fun () ->
      let server = Server.create ~db:(Lazy.force db) ~socket:"(test: unused)" () in
      let ask line = fst (Server.handle_line server line) in
      ignore (ask ("LOAD tb " ^ p1));
      let body = List.nth carry_bodies 2 in
      let before = ask ("EST " ^ body) in
      let errors0 = stat_int server "load_errors" in
      let reply = ask ("LOAD tb " ^ path) in
      Alcotest.(check bool) (label ^ ": ERR " ^ reply) true (Protocol.is_err reply);
      Alcotest.(check int) (label ^ ": load error counted") (errors0 + 1)
        (stat_int server "load_errors");
      (match Registry.find (Server.registry server) "tb" with
      | Some e ->
        Alcotest.(check (pair int string)) (label ^ ": old version kept") (1, p1)
          (e.Registry.version, e.Registry.source)
      | None -> Alcotest.fail "tb unregistered");
      Alcotest.(check string) (label ^ ": old version serves") before (ask ("EST " ^ body));
      reply)

let test_load_text_file_unquoted () =
  let token = "selest-private-token-5d1e" in
  let reply =
    load_refused "text file" (fun dir ->
        let path = Filename.concat dir "hostname" in
        Out_channel.with_open_text path (fun oc -> output_string oc (token ^ "\n"));
        path)
  in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) ("reply quotes none of the file: " ^ reply) false (contains reply token)

let test_load_directory () = ignore (load_refused "directory" Fun.id)

(* Opening a FIFO for reading blocks until a writer comes.  Should the
   LOAD open it anyway, a watchdog opens the write end after 5 s, so
   the test fails on its elapsed time instead of hanging. *)
let test_load_fifo () =
  let fifo = ref "" and finished = Atomic.make false in
  let make dir =
    let path = Filename.concat dir "model.fifo" in
    Unix.mkfifo path 0o600;
    fifo := path;
    path
  in
  let watchdog =
    Domain.spawn (fun () ->
        let deadline = Unix.gettimeofday () +. 5.0 in
        while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.01
        done;
        if not (Atomic.get finished) then
          try Unix.close (Unix.openfile !fifo [ Unix.O_WRONLY; Unix.O_NONBLOCK ] 0)
          with Unix.Unix_error _ -> ())
  in
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      Domain.join watchdog)
    (fun () -> ignore (load_refused "FIFO" make));
  Alcotest.(check bool) "answered without blocking" true (Unix.gettimeofday () -. t0 < 5.0)

(* ---- many connections, and running out of descriptors ------------------------------ *)

(* A raw client connection to [socket], its reads bounded by a timeout
   so a wedged server fails the test instead of hanging it; retries
   while a freshly started server is not yet listening. *)
let rec raw_connect ?(tries = 100) socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 1 ->
    Unix.close fd;
    Unix.sleepf 0.05;
    raw_connect ~tries:(tries - 1) socket

(* Send one line and read its one-line reply. *)
let raw_ask fd line =
  let msg = line ^ "\n" in
  (* a server that rejects the connection may close it first: its
     reply is still queued for the read below *)
  (try ignore (Unix.write_substring fd msg 0 (String.length msg))
   with Unix.Unix_error (Unix.EPIPE, _, _) -> ());
  let buf = Buffer.create 64 and b = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd b 0 4096 with
    | 0 -> Buffer.contents buf
    | n ->
      Buffer.add_subbytes buf b 0 n;
      if Bytes.get b (n - 1) = '\n' then Buffer.contents buf else go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> "(no reply in 5 s)"
    | exception Unix.Unix_error (e, _, _) -> "(" ^ Unix.error_message e ^ ")"
  in
  go ()

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* One shard owning 1,100 connections: server-side fds pass 1024, where
   select(2) fails with EINVAL and took the shard down.  Both an old
   and a new connection still get PONG.  Needs about 2,300 descriptors
   (client and server ends live in this process); skipped when the
   limit is lower. *)
let test_past_fd_setsize () =
  let n = 1100 in
  let probe = ref [] in
  let room =
    match
      for _ = 1 to (2 * n) + 100 do
        probe := Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 :: !probe
      done
    with
    | () -> true
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> false
  in
  List.iter Unix.close !probe;
  if not room then begin
    Printf.printf "skipped: fewer than %d file descriptors (raise ulimit -n)\n" ((2 * n) + 100);
    Alcotest.skip ()
  end;
  let socket = Filename.temp_file "selest" ".sock" in
  Sys.remove socket;
  let server =
    Server.create ~max_inflight:(4 * n) ~db:(Lazy.force db) ~socket ()
  in
  let thread = Thread.create Server.run server in
  let conns = ref [] in
  let connect () =
    let fd = raw_connect socket in
    conns := fd :: !conns;
    fd
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter close_quietly !conns;
      Server.shutdown server;
      Thread.join thread)
    (fun () ->
      let first = connect () in
      Alcotest.(check string) "first connection" "PONG\n" (raw_ask first "PING");
      for _ = 2 to n do
        ignore (connect ())
      done;
      Alcotest.(check string) "the first of 1,100 connections" "PONG\n" (raw_ask first "PING");
      Alcotest.(check string) "a new connection" "PONG\n" (raw_ask (connect ()) "PING"))

(* A server started under a 64-descriptor limit, connected to 80 times:
   a connection it has no descriptor for gets BUSY and a close (counted
   as an admission rejection) instead of sitting in the backlog, where
   the listener woke for it again at once, forever.  Once clients leave,
   new connections are served again.  Runs the CLI in one child shell. *)
let test_accept_sheds_at_fd_limit () =
  let cli = Filename.concat (Filename.dirname Sys.executable_name) "../bin/selest_cli.exe" in
  if not (Sys.file_exists cli) then begin
    Printf.printf "skipped: %s not built\n" cli;
    Alcotest.skip ()
  end;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let socket = Filename.temp_file "selest" ".sock" in
  Sys.remove socket;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process "/bin/sh"
      [| "/bin/sh"; "-c"; {|ulimit -n 64 && exec "$0" serve -d tb --socket "$1"|}; cli; socket |]
      Unix.stdin devnull devnull
  in
  Unix.close devnull;
  let conns = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter close_quietly !conns;
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      try Sys.remove socket with Sys_error _ -> ())
    (fun () ->
      let replies =
        List.init 80 (fun i ->
            let fd = raw_connect socket in
            conns := fd :: !conns;
            match raw_ask fd "PING" with
            | "PONG\n" as r -> (fd, r)
            | r when String.starts_with ~prefix:"BUSY " r -> (fd, r)
            | r -> Alcotest.failf "connection %d got %S" (i + 1) r)
      in
      let admitted = List.filter (fun (_, r) -> r = "PONG\n") replies in
      let busy = List.filter (fun (_, r) -> r <> "PONG\n") replies in
      Alcotest.(check bool)
        (Printf.sprintf "some served (%d), the rest BUSY (%d)" (List.length admitted)
           (List.length busy))
        true
        (List.length admitted >= 20 && busy <> []);
      let fd0 = fst (List.hd admitted) in
      Alcotest.(check (option string)) "rejections counted"
        (Some (string_of_int (List.length busy)))
        (Protocol.stats_field (raw_ask fd0 "STATS") "admission_rejected");
      (* clients leave: the server has descriptors again *)
      List.iteri (fun i (fd, _) -> if i > 0 && i <= 20 then close_quietly fd) admitted;
      let rec served tries =
        let fd = raw_connect socket in
        conns := fd :: !conns;
        raw_ask fd "PING" = "PONG\n" || (tries > 0 && (Unix.sleepf 0.05; served (tries - 1)))
      in
      Alcotest.(check bool) "served again after clients leave" true (served 40);
      Alcotest.(check string) "shutdown" "OK bye\n" (raw_ask fd0 "SHUTDOWN"))

(* ---- per-connection exceptions ------------------------------------------------------ *)

(* A handler that raises closes its own connection only: the shard
   domain keeps serving, and the exception reaches [on_conn_error]. *)
let test_raising_handler_closes_its_connection () =
  let rt = Shard.create Shard.unix ~sid:0 in
  let stop = Atomic.make false and errors = Atomic.make 0 and closed = Atomic.make 0 in
  let loop =
    Domain.spawn (fun () ->
        Shard.run rt ~stop
          ~on_line:(fun buf ~off ~len ->
            if Bytes.sub_string buf off len = "BOOM" then failwith "boom" else "PONG\n")
          ~on_frame:(fun _ ~off:_ ~len:_ -> "")
          ~on_close:(fun () -> Atomic.incr closed)
          ~on_protocol_error:ignore
          ~on_conn_error:(fun _ -> Atomic.incr errors))
  in
  let connect () =
    let client, srv = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (* a dead shard fails the test instead of hanging it *)
    Unix.setsockopt_float client Unix.SO_RCVTIMEO 5.0;
    Shard.submit rt srv;
    client
  in
  let send fd s = ignore (Unix.write_substring fd s 0 (String.length s)) in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Shard.wake rt;
      Domain.join loop;
      Shard.destroy rt)
    (fun () ->
      let a = connect () in
      send a "BOOM\n";
      Alcotest.(check string) "the raising connection is closed" "" (read_to_eof a);
      let b = connect () in
      send b "PING\n";
      let buf = Bytes.create 16 in
      let n = Unix.read b buf 0 16 in
      Alcotest.(check string) "a second connection still answers" "PONG\n"
        (Bytes.sub_string buf 0 n);
      Alcotest.(check int) "the exception is reported once" 1 (Atomic.get errors);
      Alcotest.(check int) "its close is accounted" 1 (Atomic.get closed);
      Unix.close a;
      Unix.close b)

(* ---- diagnostics are not requests ------------------------------------------------------ *)

(* A q-error capture bypasses the rate limiter, so the TRUTH below is
   always captured with the diagnostic run's span tree.  Neither that
   run nor an EXPLAIN (cold or warm) moves a counter or a cache, and an
   EXPLAINPLAN counts no inference: the inference and the cache counters
   move by the two requests' own probes only. *)
let test_slowlog_replay_counts_nothing () =
  let server = Server.create ~db:(Lazy.force db) ~socket:"(test: unused)" () in
  ignore (Registry.register (Server.registry server) ~name:"tb" (Lazy.force model));
  let keys =
    [ "infer.tb"; "cache_hits"; "cache_misses"; "cache_entries"; "plan_cache_hits";
      "plan_cache_misses"; "plan_cache_entries"; "ve.factor_ops"; "ve.entries_touched";
      "plan.program_hits"; "plan.program_misses" ]
  and frontend = [ "frontend.parse_ns"; "frontend.canon_ns"; "frontend.key_ns" ] in
  (* [infer.tb] appears with the model's first inference *)
  let counts keys =
    let stats = fst (Server.handle_line server "STATS") in
    List.map
      (fun k -> (k, Option.fold ~none:0 ~some:int_of_string (Protocol.stats_field stats k)))
      keys
  in
  let moved keys before = List.map2 (fun (k, a) (_, b) -> (k, b - a)) before (counts keys) in
  let still what f =
    let c = counts (keys @ frontend) in
    f ();
    Alcotest.(check (list (pair string int))) (what ^ " moves nothing")
      (List.map (fun (k, _) -> (k, 0)) c) (moved (keys @ frontend) c)
  in
  let body = "c=contact, p=patient ; c.patient=p ; p.USBorn=1, c.Contype=2" in
  let explain cached () =
    let r = fst (Server.handle_line server ("EXPLAIN " ^ body)) in
    Alcotest.(check (option string)) "EXPLAIN's cache field" (Some cached)
      (Protocol.stats_field r "cache")
  in
  still "a cold EXPLAIN" (explain "miss");
  let c0 = counts keys in
  ignore (Server.handle_line server ("EST " ^ body));
  let est = moved keys c0 in
  Alcotest.(check int) "the cold EST infers once" 1 (List.assoc "infer.tb" est);
  Alcotest.(check int) "and misses once" 1 (List.assoc "cache_misses" est);
  still "a warm EXPLAIN" (explain "hit");
  let c1 = counts keys in
  let truth = fst (Server.handle_line server ("TRUTH 1e12 " ^ body)) in
  Alcotest.(check bool) "TRUTH answered" true (Protocol.is_ok truth);
  Alcotest.(check int) "the TRUTH was captured" 1 (Selest_obs.Slowlog.total (Server.slowlog server));
  Alcotest.(check (list (pair string int))) "the TRUTH's hit is all that moved"
    (List.map (fun k -> (k, if k = "cache_hits" then 1 else 0)) keys)
    (moved keys c1);
  let spans =
    List.concat_map
      (fun (e : Selest_obs.Slowlog.entry) ->
        List.map (fun (r : Selest_obs.Span.record) -> r.Selest_obs.Span.name) e.Selest_obs.Slowlog.spans)
      (Selest_obs.Slowlog.recent ~n:1 (Server.slowlog server))
  in
  List.iter
    (fun n -> Alcotest.(check bool) ("replayed span " ^ n) true (List.mem n spans))
    [ "est"; "est.parse"; "est.canon"; "est.cache"; "plan.fetch"; "exec.load"; "exec.run" ];
  let c2 = counts [ "infer.tb" ] in
  Alcotest.(check bool) "EXPLAINPLAN answered" true
    (Protocol.is_ok (fst (Server.handle_line server ("EXPLAINPLAN " ^ body))));
  Alcotest.(check (list (pair string int))) "an EXPLAINPLAN infers nothing"
    [ ("infer.tb", 0) ] (moved [ "infer.tb" ] c2)

(* ---- a shard loop that dies ------------------------------------------------------------ *)

(* An exception outside any connection's turn — here [poll] fails with
   EBADF — ends the loop: its connections are closed, the exit is
   logged and counted, and HEALTH reports the server degraded. *)
let test_shard_exit_counted () =
  let server = fresh_server () in
  (* HEALTH answers [OK lines=N], then [status=... uptime_s=...] *)
  let status () =
    let lines = String.split_on_char '\n' (fst (Server.handle_line server "HEALTH")) in
    List.hd (String.split_on_char ' ' (List.nth lines 1))
  in
  Alcotest.(check string) "healthy before" "status=ok" (status ());
  let net = Simio.create () in
  let io =
    { (Simio.io net) with Shard.poll = (fun _ _ _ _ -> raise (Unix.Unix_error (Unix.EBADF, "poll", ""))) }
  in
  let rt = Shard.create io ~sid:0 in
  let peer = Simio.connect net [ "PING\n" ] in
  Shard.submit rt peer;
  Server.run_shard server rt;
  Shard.destroy rt;
  Alcotest.(check bool) "its connection is closed" true (Simio.dropped peer);
  Alcotest.(check int) "the exit is counted" 1 (stat_int server "shard_exits");
  Alcotest.(check string) "HEALTH says degraded" "status=degraded" (status ())

(* ---- the shard loop over a simulated network ------------------------------------------- *)

(* What a simulated peer sends, one message at a time. *)
type sim_msg =
  | Line of string * string  (* text line, its terminator *)
  | Hello of string  (* a spelling of the BIN hello *)
  | Frame of string  (* frame payload *)
  | Long_line  (* a text line over the cap: answered, then closed *)
  | Long_frame  (* a frame header announcing more than the cap: ditto *)

let u32_be n =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.to_string b

let wire = function
  | Line (l, term) -> l ^ term
  | Hello h -> h ^ "\n"
  | Frame p -> u32_be (String.length p) ^ p
  | Long_line -> String.make (Protocol.Bin.max_frame + 1) 'x'
  | Long_frame -> u32_be (Protocol.Bin.max_frame + 1)

(* The bytes a connection is owed: each message answered as the
   transport-free entry points answer it. *)
let expected_replies reference msgs =
  String.concat ""
    (List.map
       (function
         | Line (l, _) -> fst (Server.handle_line reference l) ^ "\n"
         | Hello _ -> Protocol.Bin.hello_ok ^ "\n"
         | Frame p -> Server.handle_frame reference (Bytes.of_string p)
         | Long_line -> Printf.sprintf "ERR line length exceeds %d\n" Protocol.Bin.max_frame
         | Long_frame ->
           Protocol.Bin.encode_response
             (Protocol.Bin.Berr
                (Printf.sprintf "bin: frame length %d exceeds %d" (Protocol.Bin.max_frame + 1)
                   Protocol.Bin.max_frame)))
       msgs)

(* A TRUTH reply's [n=] counts the model's observations across every
   connection so far, so it depends on how connections interleave. *)
let mask_truth_counts s =
  String.concat "\n"
    (List.map
       (fun l ->
         match List.rev (String.split_on_char ' ' l) with
         | n :: rest
           when String.starts_with ~prefix:"OK qerror=" l && String.starts_with ~prefix:"n=" n ->
           String.concat " " (List.rev rest)
         | _ -> l)
       (String.split_on_char '\n' s))

let gen_sim_peer =
  let open QCheck2.Gen in
  let body =
    oneofl
      [ "c=contact, p=patient ; c.patient=p ; p.USBorn=1";
        "c=contact, p=patient ; c.patient=p ; p.USBorn=0, c.Contype=2";
        "p=patient ; ; p.USBorn=1"; "c=contact ; ; c.Contype=1" ]
  in
  let model = oneofl [ None; Some "default"; Some "other" ] in
  let prefix = function None -> "" | Some m -> "@" ^ m ^ " " in
  let text =
    frequency
      [ (6, map2 (fun m b -> "EST " ^ prefix m ^ b) model body);
        (2, map (fun bs -> "ESTBATCH " ^ String.concat " || " bs) (list_size (int_range 1 3) body));
        (2, map2 (fun t b -> Printf.sprintf "TRUTH %g %s" t b) (oneofl [ 10.0; 500.0; 1e12 ]) body);
        (1, pure "PING");
        (2, oneofl [ "EST p=patient ; ; p.Nope=1"; "FROB"; "TRUTH x p=patient"; "ESTBATCH"; "EST"; "" ]) ]
  in
  let line = map2 (fun l term -> Line (l, term)) text (oneofl [ "\n"; "\n"; "\r\n" ]) in
  let payload req =
    let f = Protocol.Bin.encode_request req in
    String.sub f 4 (String.length f - 4)
  in
  let frame =
    map
      (fun p -> Frame p)
      (frequency
         [ (5, map2 (fun model b -> payload (Protocol.Bin.Best { model; body = b })) model body);
           (2,
            map2
              (fun model bodies -> payload (Protocol.Bin.Bestbatch { model; bodies }))
              model (list_size (int_range 1 3) body));
           (1, string_size ~gen:printable (int_range 0 12)) ])
  in
  let* lines = list_size (int_range 0 8) line in
  let* upgrade = frequency [ (2, pure None); (1, map Option.some (oneofl [ "BIN"; "bin"; " BIN "; "Bin\r" ])) ] in
  let* frames = match upgrade with None -> pure [] | Some _ -> list_size (int_range 0 6) frame in
  let* over = frequency [ (30, pure false); (1, pure true) ] in
  let* max_chunk = oneofl [ 1; 2; 3; 7; 64; 4096; 8192 ] in
  let msgs =
    lines
    @ (match upgrade with None -> [] | Some h -> Hello h :: frames)
    @ (match (over, upgrade) with
      | false, _ -> []
      | true, None -> [ Long_line ]
      | true, Some _ -> [ Long_frame ])
  in
  pure (max_chunk, msgs)

let print_sim_msg = function
  | Line (l, term) -> String.escaped (l ^ term)
  | Hello h -> "hello " ^ String.escaped h
  | Frame p -> "frame " ^ String.escaped p
  | Long_line -> "<over-cap line>"
  | Long_frame -> "<over-cap frame>"

(* Random peers pipeline random mixes of text requests, malformed lines,
   BIN upgrades and frames, and over-cap lines and frames, over 1 and 2
   shards; reads arrive in chunks of 1 byte to 8 KiB and writes complete
   short.  Every connection's reply stream equals what handle_line /
   handle_frame answer on a fresh server for the same messages. *)
let prop_sim_replies_match =
  QCheck2.Test.make ~name:"simulated loop replies = handle_line/handle_frame" ~count:30
    ~long_factor:20
    ~print:
      QCheck2.Print.(
        triple int int
          (list (pair int (fun msgs -> String.concat " | " (List.map print_sim_msg msgs)))))
    QCheck2.Gen.(triple (int_range 1 2) nat (list_size (int_range 1 4) gen_sim_peer))
    (fun (shards, seed, peers) ->
      let server =
        Server.create ~domains:shards ~db:(Lazy.force db) ~socket:"(test: unused)" ()
      in
      ignore (Registry.register (Server.registry server) ~name:"default" (Lazy.force model));
      let nets =
        List.init shards (fun i -> Simio.create ~seed:(seed + i) ~short_writes:true ())
      in
      let conns =
        List.mapi
          (fun i (max_chunk, msgs) ->
            (Simio.connect (List.nth nets (i mod shards)) ~max_chunk (List.map wire msgs), msgs))
          peers
      in
      Simio.serve server nets;
      let reference = fresh_server () in
      List.for_all
        (fun (fd, msgs) ->
          mask_truth_counts (Simio.received fd)
          = mask_truth_counts (expected_replies reference msgs))
        conns)

(* ---- the raw-body memo and the miss's reply rendering --------------------------- *)

let test_lru_find_exact () =
  let c = Lru.create ~capacity_bytes:14 in
  let e1 = ent 1.0 in
  Lru.add c 1 e1;
  Lru.add c 2 (ent 2.0);
  Alcotest.(check bool) "resident entry" true (Lru.find_exact c 1 e1);
  Alcotest.(check int) "counted as a hit" 1 (Lru.hits c);
  Alcotest.(check (list int)) "promoted" [ 1; 2 ] (Lru.hashes_hot_first c);
  Alcotest.(check bool) "another entry under the hash" false (Lru.find_exact c 2 e1);
  Alcotest.(check bool) "absent hash" false (Lru.find_exact c 3 e1);
  Lru.add c 1 (ent 1.0);
  Alcotest.(check bool) "replaced entry" false (Lru.find_exact c 1 e1);
  Lru.clear c;
  Alcotest.(check bool) "cleared" false (Lru.find_exact c 1 e1);
  Alcotest.(check (pair int int)) "failures count nothing" (1, 0) (Lru.hits c, Lru.misses c)

(* Random bit patterns, estimate-like values, powers of ten and their
   neighbours, exact decimal ties at the 17th digit, powers of two,
   subnormals, integers near 2^53, and the special values. *)
let gen_render_float =
  let open QCheck2.Gen in
  (* an 18-digit decimal ending in 5, exactly representable: an integer
     of 18 - j digits below 2^(53-j) plus an odd multiple of 2^-j *)
  let tie =
    let* j = int_range 2 6 in
    let lo = int_of_float (10. ** float_of_int (17 - j)) in
    let hi = min (int_of_float (10. ** float_of_int (18 - j))) (1 lsl (53 - j)) in
    let* a = int_range lo (hi - 1) in
    let* odd = int_range 0 ((1 lsl (j - 1)) - 1) in
    return (float_of_int a +. Float.ldexp (float_of_int ((2 * odd) + 1)) (-j))
  in
  let near x = function 0 -> x | 1 -> Float.succ x | _ -> Float.pred x in
  let value =
    frequency
      [ (4, map Int64.float_of_bits int64);
        (4,
         map2
           (fun m e -> m *. (10. ** float_of_int e))
           (float_range 1.0 10.0) (int_range (-12) 12));
        (2, map2 (fun k d -> near (10. ** float_of_int k) d) (int_range (-323) 308) (int_range 0 2));
        (2, tie);
        (1, map (fun k -> Float.ldexp 1.0 k) (int_range (-1074) 1023));
        (1, map (fun m -> Int64.float_of_bits (Int64.logand m 0xF_FFFF_FFFF_FFFFL)) int64);
        (1, map (fun d -> Float.ldexp 1.0 53 +. float_of_int d) (int_range (-64) 64));
        (1,
         oneofl
           [ 0.0; infinity; nan; Float.max_float; Float.min_float; Float.epsilon; 0.1; 1e16;
             1e17; 9.999999999999999e16; 1234567890123456.25; 1234567890123456.75;
             Float.ldexp 1.0 (-25); 0.5; 2.5 ]) ]
  in
  map2 (fun neg x -> if neg then -.x else x) bool value

let prop_render_matches_printf =
  QCheck2.Test.make ~name:"miss reply = OK %.17g, value frame decodes" ~count:3_000
    ~long_factor:20 ~print:(Printf.sprintf "%h") gen_render_float (fun x ->
      let e = Server.make_entry ~name:"m" ~version:1 ~vec:Squery.Vec.empty x in
      e.Lru.text = "OK " ^ Printf.sprintf "%.17g" x ^ "\n"
      && String.length e.Lru.bin = 13
      && String.sub e.Lru.bin 0 4 = "\000\000\000\009"
      &&
      match Protocol.Bin.decode_response (Bytes.of_string (String.sub e.Lru.bin 4 9)) with
      | Ok (Protocol.Bin.Bvalue v) -> Int64.bits_of_float v = Int64.bits_of_float x
      | _ -> false)

(* [items] served in order on shard 0 of [server] through the shard loop
   over a simulated network: an [`Est line] is one lockstep request on a
   connection of its own, a [`Do f] runs [f] on the loop's domain
   between requests.  For each request: its reply, the [cached]
   attribute of its [est.cache] span ("-" when it has none), and
   whether it lexed (an [est.parse] span). *)
let memo_serve server items =
  let net = Simio.create () in
  let records = ref [] and results = ref [] and flush = ref ignore in
  let rec step items () =
    !flush ();
    flush := ignore;
    match items with
    | [] -> ()
    | `Do f :: rest ->
      f ();
      step rest ()
    | `Est line :: rest ->
      records := [];
      let fd = Simio.connect net ~lockstep:true [ line ^ "\n" ] in
      flush :=
        (fun () ->
          let span name =
            List.find_opt (fun (r : Selest_obs.Span.record) -> r.Selest_obs.Span.name = name)
              !records
          in
          let cached =
            match span "est.cache" with
            | Some r -> Option.value ~default:"-" (List.assoc_opt "cached" r.Selest_obs.Span.attrs)
            | None -> "none"
          in
          results := (Simio.received fd, cached, span "est.parse" <> None) :: !results);
      Simio.when_idle net (step rest)
  in
  Simio.when_idle net (step items);
  Fun.protect
    ~finally:(fun () -> Selest_obs.Span.set_global_sink None)
    (fun () ->
      Selest_obs.Span.set_global_sink (Some (fun r -> records := r :: !records));
      Simio.serve server [ net ]);
  List.rev !results

let lru_counts server =
  let c = Server.cache server in
  [ Lru.hits c; Lru.misses c; Lru.evictions c; Lru.length c; Lru.bytes c; Lru.collisions c ]

let est_line body = "EST " ^ body
let memo_body = "c=contact, p=patient ; c.patient=p ; p.USBorn=1, c.Contype=2"
let show_outcomes = List.map (fun (_, cached, lexed) -> Printf.sprintf "%s/%b" cached lexed)

(* A LOAD bumps the version: the memo's slot still holds the body, but
   its entry is the old version's, so the next ask takes the canonical
   path (here: the answer the reload carried) and answers the new
   model's estimate. *)
let test_memo_stale_after_load () =
  let file_a, file_b = Lazy.force carry_files in
  let server = Server.create ~db:(Lazy.force db) ~socket:"(test: unused)" () in
  ignore (Server.handle_line server ("LOAD tb " ^ file_a));
  let ask = `Est (est_line memo_body) in
  let results =
    memo_serve server
      [ ask; ask; ask;
        `Do (fun () -> ignore (Server.handle_line_shard server ~shard:0 ("LOAD tb " ^ file_b)));
        ask; ask ]
  in
  let answer path =
    let s = Server.create ~db:(Lazy.force db) ~socket:"(test: unused)" () in
    ignore (Server.handle_line s ("LOAD tb " ^ path));
    fst (Server.handle_line s (est_line memo_body)) ^ "\n"
  in
  let a = answer file_a and b = answer file_b in
  Alcotest.(check bool) "the two models differ here" true (a <> b);
  Alcotest.(check (list string)) "replies" [ a; a; a; b; b ]
    (List.map (fun (r, _, _) -> r) results);
  Alcotest.(check (list string)) "paths"
    [ "miss/true"; "-/true"; "memo/false"; "carried/true"; "memo/false" ]
    (show_outcomes results)

(* The size of [body]'s cache entry on a fresh server. *)
let entry_bytes body =
  let s = fresh_server () in
  ignore (Server.handle_line s (est_line body));
  Lru.bytes (Server.cache s)

(* An entry evicted from the estimate cache, then refilled under the
   same hash by a new inference: the memo's slot names the old entry
   record, so the ask after the eviction misses, the one after the
   refill is a canonical hit, and only then is the memo used again.
   The LRU counters equal those of a twin answering every line through
   the reference entry point. *)
let test_memo_evicted_or_replaced () =
  let other = "p=patient ; ; p.Age=1" in
  let cache_bytes = max (entry_bytes memo_body) (entry_bytes other) + 1 in
  let mk () =
    let s = Server.create ~cache_bytes ~db:(Lazy.force db) ~socket:"(test: unused)" () in
    ignore (Registry.register (Server.registry s) ~name:"default" (Lazy.force model));
    s
  in
  let server = mk () and twin = mk () in
  let lines = List.map est_line [ memo_body; memo_body; memo_body; other; memo_body; memo_body; memo_body ] in
  let results = memo_serve server (List.map (fun l -> `Est l) lines) in
  let expected = List.map (fun l -> fst (Server.handle_line_shard twin ~shard:0 l) ^ "\n") lines in
  Alcotest.(check (list string)) "replies = reference" expected
    (List.map (fun (r, _, _) -> r) results);
  Alcotest.(check (list string)) "paths"
    [ "miss/true"; "-/true"; "memo/false"; "miss/true"; "miss/true"; "-/true"; "memo/false" ]
    (show_outcomes results);
  Alcotest.(check (list int)) "LRU counters = reference" (lru_counts twin) (lru_counts server);
  Alcotest.(check bool) "evictions happened" true (Lru.evictions (Server.cache server) >= 2)

(* Bodies that share a memo key (so a set and a stored key) are told
   apart by their bytes; a full set replaces its oldest body; a stored
   body is refreshed in place; a body over [Memo.max_body] is never
   stored; and a body whose ring bytes were written over is never
   matched. *)
let test_memo_shared_slot () =
  let m = Memo.create () in
  let e v = ent v in
  let find ?(key = 0) body =
    let b = Bytes.of_string ("<<" ^ body ^ ">>") in
    Memo.find m key b ~off:2 ~len:(String.length body)
  in
  let add ?(key = 0) ?(hash = 0) body entry =
    let b = Bytes.of_string body in
    Memo.add m ~slot:(find ~key body) key b ~off:0 ~len:(Bytes.length b) ~hash entry
  in
  Alcotest.(check bool) "body keys are non-negative" true
    (List.for_all
       (fun i ->
         let b = Bytes.of_string (Printf.sprintf "p=patient ; ; p.Age=%d" i) in
         Memo.key b ~off:0 ~len:(Bytes.length b) >= 0)
       (List.init 2_000 Fun.id));
  let e1 = e 1.0 and e2 = e 2.0 and e3 = e 3.0 in
  add ~hash:11 "alpha" e1;
  add ~hash:22 "bravo" e2;
  let s1 = find "alpha" and s2 = find "bravo" in
  Alcotest.(check bool) "both found, apart" true (s1 >= 0 && s2 >= 0 && s1 <> s2);
  Alcotest.(check bool) "alpha's answer" true (Memo.entry m s1 == e1 && Memo.lru_hash m s1 = 11);
  Alcotest.(check bool) "bravo's answer" true (Memo.entry m s2 == e2 && Memo.lru_hash m s2 = 22);
  Alcotest.(check int) "same key, other bytes" (-1) (find "alphb");
  Alcotest.(check int) "same key, a prefix" (-1) (find "alph");
  Alcotest.(check int) "same bytes, other key" (-1) (find ~key:1 "alpha");
  add ~hash:33 "bravo" e3;
  Alcotest.(check int) "refreshed in place" s2 (find "bravo");
  Alcotest.(check bool) "refreshed answer" true (Memo.entry m s2 == e3 && Memo.lru_hash m s2 = 33);
  (* twenty more under the same key: the set keeps its newest bodies *)
  let more = List.init 20 (Printf.sprintf "body-%02d") in
  List.iter (fun b -> add b e1) more;
  let kept = List.map (fun b -> find b >= 0) ("alpha" :: "bravo" :: more) in
  Alcotest.(check bool) "a full set replaces its oldest" true
    (List.nth kept 21 && not (List.hd kept)
    && kept = List.sort compare kept (* false ... false true ... true *));
  let big = String.make (Memo.max_body + 1) 'x' in
  add ~key:5 big e1;
  Alcotest.(check int) "over max_body: not stored" (-1) (find ~key:5 big);
  (* 80 bodies of 2 KiB under distinct keys: 160 KiB through the
     128 KiB ring *)
  let body i = Printf.sprintf "%04d" i ^ String.make (Memo.max_body - 4) '.' in
  for i = 0 to 79 do
    add ~key:(100 + i) (body i) e1
  done;
  Alcotest.(check int) "written over: not matched" (-1) (find ~key:100 (body 0));
  Alcotest.(check bool) "recent: matched" true (find ~key:179 (body 79) >= 0)

(* A body longer than the memo's room is lexed on every ask and answered
   exactly as the reference path answers it. *)
let test_memo_oversized_body () =
  let body = "p=patient ;" ^ String.make (Memo.max_body + 100) ' ' ^ "; p.Age=1" in
  let server = fresh_server () and twin = fresh_server () in
  let lines = List.init 4 (fun _ -> est_line body) in
  let results = memo_serve server (List.map (fun l -> `Est l) lines) in
  Alcotest.(check (list string)) "replies = reference"
    (List.map (fun l -> fst (Server.handle_line_shard twin ~shard:0 l) ^ "\n") lines)
    (List.map (fun (r, _, _) -> r) results);
  Alcotest.(check (list string)) "always lexed" [ "miss/true"; "-/true"; "-/true"; "-/true" ]
    (show_outcomes results);
  Alcotest.(check (list int)) "LRU counters = reference" (lru_counts twin) (lru_counts server)

(* The memo against the reference path: random sequences of EST lines
   (exact repeats, permuted and respaced spellings, [@model] and the
   default, errors) and LOADs alternating two model files, served
   through the shard loop over a simulated network in text or BIN
   framing (each stretch between LOADs one connection), and the same
   sequence through [handle_line_shard]/[handle_frame] on a twin
   server.  Every reply is byte-identical, and so are the LRU counters
   and the per-model inference counts at the end.  The cache is tiny, so
   entries are evicted and refilled. *)
let memo_pool =
  [| memo_body;
     "c=contact, p=patient ; c.patient=p ; c.Contype=2, p.USBorn=1";
     "c=contact,  p=patient ;c.patient=p; p.USBorn=1 , c.Contype=2";
     "p=patient ; ; p.Age=1";
     "p=patient ;  ; p.Age=1";
     "s=strain ; ; s.Lineage={1,3}";
     "s=strain ; ; s.Lineage={3,1}";
     "p=patient, s=strain ; p.strain=s ; p.Homeless=1, s.Unique=0";
     "p=patient ; ; p.Nope=1" |]

type memo_op = Ask of string option * int | Reload of string * bool

let gen_memo_case =
  let open QCheck2.Gen in
  let ask =
    map2
      (fun m b -> Ask (m, b))
      (frequencyl [ (4, None); (3, Some "default"); (3, Some "other"); (1, Some "nope") ])
      (int_range 0 (Array.length memo_pool - 1))
  in
  let reload = map2 (fun n f -> Reload (n, f)) (oneofl [ "default"; "other" ]) bool in
  let* ops = list_size (int_range 1 40) (frequency [ (9, ask); (1, reload) ]) in
  let* framing = int in
  let* cache_bytes = oneofl [ 300; 700; 1_500; 1 lsl 20 ] in
  return (framing, cache_bytes, ops)

let print_memo_case (framing, cache_bytes, ops) =
  Printf.sprintf "framing=%d cache=%d %s" framing cache_bytes
    (String.concat " | "
       (List.map
          (function
            | Ask (m, b) -> Printf.sprintf "%s%d" (match m with None -> "" | Some m -> "@" ^ m ^ " ") b
            | Reload (n, f) -> Printf.sprintf "LOAD %s %b" n f)
          ops))

let prop_memo_matches_reference =
  QCheck2.Test.make ~name:"memo replies and counters = reference path" ~count:40
    ~long_factor:20 ~print:print_memo_case gen_memo_case (fun (framing, cache_bytes, ops) ->
      let file_a, file_b = Lazy.force carry_files in
      let file f = if f then file_b else file_a in
      let mk () =
        let s = Server.create ~cache_bytes ~db:(Lazy.force db) ~socket:"(test: unused)" () in
        ignore (Registry.register (Server.registry s) ~name:"default" (Lazy.force model));
        ignore (Server.handle_line s ("LOAD other " ^ file_a));
        s
      in
      let server = mk () and twin = mk () in
      (* the stretches of asks between reloads, each with its framing *)
      let rec stretches acc cur = function
        | [] -> List.rev (`Asks (List.rev cur) :: acc)
        | (Ask _ as a) :: rest -> stretches acc (a :: cur) rest
        | Reload (n, f) :: rest -> stretches (`Load (n, f) :: `Asks (List.rev cur) :: acc) [] rest
      in
      let line m b =
        "EST " ^ (match m with None -> "" | Some m -> "@" ^ m ^ " ") ^ memo_pool.(b)
      in
      let payload m b =
        let f = Protocol.Bin.encode_request (Protocol.Bin.Best { model = m; body = memo_pool.(b) }) in
        String.sub f 4 (String.length f - 4)
      in
      let net = Simio.create () in
      let got = ref [] and want = ref [] in
      let rec step k items () =
        match items with
        | [] -> ()
        | `Load (n, f) :: rest ->
          let l = Printf.sprintf "LOAD %s %s" n (file f) in
          got := fst (Server.handle_line_shard server ~shard:0 l) :: !got;
          want := fst (Server.handle_line_shard twin ~shard:0 l) :: !want;
          step k rest ()
        | `Asks asks :: rest ->
          let bin = (framing lsr (k land 31)) land 1 = 1 in
          let asks = List.filter_map (function Ask (m, b) -> Some (m, b) | Reload _ -> None) asks in
          let msgs =
            if bin then
              "BIN\n" :: List.map (fun (m, b) -> let p = payload m b in u32_be (String.length p) ^ p) asks
            else List.map (fun (m, b) -> line m b ^ "\n") asks
          in
          let fd = Simio.connect net ~lockstep:true msgs in
          let expected =
            if bin then
              (Protocol.Bin.hello_ok ^ "\n")
              :: List.map (fun (m, b) -> Server.handle_frame twin (Bytes.of_string (payload m b))) asks
            else List.map (fun (m, b) -> fst (Server.handle_line_shard twin ~shard:0 (line m b)) ^ "\n") asks
          in
          want := String.concat "" expected :: !want;
          Simio.when_idle net (fun () ->
              got := Simio.received fd :: !got;
              step (k + 1) rest ())
      in
      Simio.when_idle net (step 0 (stretches [] [] ops));
      Simio.serve server [ net ];
      let infer s = List.map (Metrics.get (Server.metrics s)) [ "infer.default"; "infer.other" ] in
      List.rev !got = List.rev !want
      && lru_counts server = lru_counts twin
      && infer server = infer twin)

(* ---- diagnostics are invisible to request counters ---------------------------------------- *)

(* Random sequences of requests (EST, ESTBATCH, TRUTH and LOADs of two
   model files) mixed with diagnostics (EXPLAIN, SLOWLOG, STATS,
   METRICS, HEALTH, SHARDS), served by the shard loop over a simulated
   network on a server with a tiny estimate cache, and the same sequence
   without its diagnostics on a twin.  Every request's reply, the
   [cached] attribute of its [est.cache] span and whether it lexed are
   the same on both, and so are the estimate and plan cache counters,
   the carried answers, the inference counts and the kernel counters at
   the end.  TRUTHs of 1e12 cross the q-error gate, so captures run
   too; the pool holds one skeleton under two evidence shapes, so a
   diagnostic that memoized a program in a served plan would show. *)
let diag_pool =
  [| memo_body;
     "c=contact, p=patient ; c.patient=p ; c.Contype=2, p.USBorn=1";
     "p=patient ; ; p.Age=1";
     "p=patient ; ; p.Age={0,1}";
     "s=strain ; ; s.Lineage={1,3}";
     "s=strain ; ; s.Lineage=2";
     "p=patient, s=strain ; p.strain=s ; p.Homeless=1, s.Unique=0";
     "p=patient ; ; p.Nope=1" |]

let diagnostic line =
  List.exists
    (fun v -> String.starts_with ~prefix:v line)
    [ "EXPLAIN"; "SLOWLOG"; "STATS"; "METRICS"; "HEALTH"; "SHARDS" ]

let gen_diag_case =
  let open QCheck2.Gen in
  let at = oneofl [ ""; ""; "@default "; "@other "; "@nope " ] in
  let body = map (Array.get diag_pool) (int_range 0 (Array.length diag_pool - 1)) in
  let line =
    frequency
      [ (6, map2 (fun m b -> "EST " ^ m ^ b) at body);
        ( 1,
          map2
            (fun m bs -> "ESTBATCH " ^ m ^ String.concat " || " bs)
            at (list_size (int_range 1 3) body) );
        (1, map3 (fun m t b -> Printf.sprintf "TRUTH %s%s %s" m t b) at (oneofl [ "10"; "1e12" ]) body);
        (1, map2 (fun n f -> Printf.sprintf "LOAD %s %b" n f) (oneofl [ "default"; "other" ]) bool);
        (4, map2 (fun m b -> "EXPLAIN " ^ m ^ b) at body);
        (2, oneofl [ "SLOWLOG"; "SLOWLOG 3"; "STATS"; "METRICS"; "HEALTH"; "SHARDS" ]) ]
  in
  pair (oneofl [ 300; 700; 1_500 ]) (list_size (int_range 1 30) line)

let prop_diagnostics_invisible =
  QCheck2.Test.make ~name:"diagnostics are invisible to request counters" ~count:40
    ~long_factor:20
    ~print:QCheck2.Print.(pair int (list string))
    gen_diag_case
    (fun (cache_bytes, lines) ->
      let file_a, file_b = Lazy.force carry_files in
      (* "LOAD name true|false" names one of the two model files *)
      let resolve line =
        match String.split_on_char ' ' line with
        | [ "LOAD"; n; f ] -> Printf.sprintf "LOAD %s %s" n (if bool_of_string f then file_b else file_a)
        | _ -> line
      in
      let run lines =
        let s = Server.create ~cache_bytes ~db:(Lazy.force db) ~socket:"(test: unused)" () in
        ignore (Registry.register (Server.registry s) ~name:"default" (Lazy.force model));
        ignore (Server.handle_line s ("LOAD other " ^ file_a));
        let served =
          List.filteri
            (fun i _ -> not (diagnostic (List.nth lines i)))
            (memo_serve s (List.map (fun l -> `Est (resolve l)) lines))
        in
        let m = Server.metrics s and p = Server.plan_cache s in
        let h, mi, ev = Plan_cache.stats p in
        ( served,
          lru_counts s @ [ h; mi; ev; Plan_cache.length p ]
          @ List.map (Metrics.get m)
              [ "cache_carried"; "infer.default"; "infer.other"; "ve.factor_ops";
                "ve.entries_touched"; "plan.program_hits"; "plan.program_misses" ] )
      in
      run lines = run (List.filter (fun l -> not (diagnostic l)) lines))

(* ---- LOAD publishes only a legal model ------------------------------------------------ *)

(* The learned TB model's serialized form with the family of
   [table].[attr] replaced by [f] of it. *)
let edited_model table attr f =
  let open Selest_util.Sexp in
  let schema = Database.schema (Lazy.force db) in
  let ti = Schema.table_index schema table in
  let ai = Schema.attr_index (Schema.find_table schema table) attr in
  let nth i f = List.mapi (fun j x -> if j = i then f x else x) in
  let table_model = function
    | List [ Atom "table-model"; List (Atom "attrs" :: fams); joins ] ->
      List [ Atom "table-model"; List (Atom "attrs" :: nth ai f fams); joins ]
    | s -> s
  in
  match Selest_prm.Serialize.to_sexp (Lazy.force model) with
  | List items ->
    List
      (List.map
         (function
           | List (Atom "tables" :: tms) -> List (Atom "tables" :: nth ti table_model tms)
           | s -> s)
         items)
  | s -> s

(* A family with the first probability of its CPD (a table CPD's first
   entry, a tree CPD's first leaf's first entry) set to the atom [v]. *)
let first_prob v =
  let open Selest_util.Sexp in
  let rec first_leaf = function
    | List (Atom "leaf" :: w :: _ :: rest) -> List (Atom "leaf" :: w :: Atom v :: rest)
    | List (Atom "multi" :: p :: kid :: kids) -> List (Atom "multi" :: p :: first_leaf kid :: kids)
    | List [ Atom "thresh"; p; c; lo; hi ] -> List [ Atom "thresh"; p; c; first_leaf lo; hi ]
    | s -> s
  in
  let cpd = function
    | List (Atom "table-cpd" :: fields) ->
      List
        (Atom "table-cpd"
        :: List.map
             (function
               | List (Atom "entries" :: _ :: es) -> List (Atom "entries" :: Atom v :: es)
               | f -> f)
             fields)
    | List (Atom "tree-cpd" :: fields) ->
      List
        (Atom "tree-cpd"
        :: List.map
             (function List [ Atom "root"; n ] -> List [ Atom "root"; first_leaf n ] | f -> f)
             fields)
    | s -> s
  in
  function
  | List [ Atom "family"; parents; List [ Atom "cpd"; c ] ] ->
    List [ Atom "family"; parents; List [ Atom "cpd"; cpd c ] ]
  | s -> s

(* [sexp] saved in [dir]. *)
let model_in dir sexp =
  let path = Filename.concat dir "edited.prm" in
  Selest_util.Sexp.save path sexp;
  path

(* Each refusal is a LOAD over the serving name whose reply names the
   fault; each of these files loaded before LOAD checked models. *)
let refuses label ~because sexp =
  let reply = load_refused label (fun dir -> model_in dir sexp) in
  Alcotest.(check bool) (label ^ ": the reply names the fault: " ^ reply) true
    (contains reply because)

(* strain.DrugResist's first leaf probability NaN: answered [OK nan]. *)
let test_load_nan_leaf () =
  refuses "NaN leaf" ~because:"strain.DrugResist: probability nan is not finite"
    (edited_model "strain" "DrugResist" (first_prob "nan"))

(* The same probability negative: answered [OK -23296]. *)
let test_load_negative_leaf () =
  refuses "negative leaf" ~because:"strain.DrugResist: probability -0.5 is not finite"
    (edited_model "strain" "DrugResist" (first_prob "-0.5"))

(* strain.Unique's parent strain.Lineage has 6 values; its CPD said 60:
   an EST on the family answered [ERR Invalid_argument("Exec:
   cardinality disagreement")]. *)
let test_load_parent_cards () =
  let open Selest_util.Sexp in
  let rec sixty = function
    | List [ Atom "parent-cards"; Atom "6" ] -> List [ Atom "parent-cards"; Atom "60" ]
    | List l -> List (List.map sixty l)
    | s -> s
  in
  refuses "parent cards 6 -> 60" ~because:"strain.Unique: parent cards disagree"
    (edited_model "strain" "Unique" sixty)

(* strain.Unique depends on strain.Lineage; make strain.Lineage depend
   on strain.Unique too. *)
let test_load_cycle () =
  let lineage =
    Selest_util.Sexp.of_string
      "(family (parents (own 0)) (cpd (tree-cpd (child-card 6) (parents 0) (parent-cards 2) \
       (ordinal 0) (root (leaf 250 0.25 0.25 0.125 0.125 0.125 0.125)))))"
  in
  refuses "two-family cycle" ~because:"cycle" (edited_model "strain" "Lineage" (fun _ -> lineage))

let nan_model_file =
  lazy
    (let path = Filename.temp_file "selest_nan" ".prm" in
     Selest_util.Sexp.save path (edited_model "strain" "DrugResist" (first_prob "nan"));
     at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
     path)

(* A NaN estimate is answered, but it enters neither the estimate cache
   (so a repeat is no hit) nor the q-error table (so HEALTH's mean stays
   finite).  No file can give a model one — LOAD refuses the NaN file —
   so the model here is a legal copy, registered, whose
   strain.DrugResist CPD is then written in place before its first use. *)
let test_non_finite_stays_out () =
  let server = fresh_server () in
  let ask l = fst (Server.handle_line server l) in
  Alcotest.(check bool) "LOAD refuses the NaN file" true
    (Protocol.is_err (ask ("LOAD m2 " ^ Lazy.force nan_model_file)));
  let schema = Database.schema (Lazy.force db) in
  let m2 = Selest_prm.Serialize.of_sexp ~schema (Selest_prm.Serialize.to_sexp (Lazy.force model)) in
  ignore (Registry.register (Server.registry server) ~name:"m2" m2);
  let ti = Schema.table_index schema "strain" in
  let ai = Schema.attr_index (Schema.find_table schema "strain") "DrugResist" in
  let rec first_leaf = function
    | Selest_bn.Tree_cpd.Leaf { dist; _ } -> dist
    | Selest_bn.Tree_cpd.Split { arms = Selest_bn.Tree_cpd.Multi kids; _ } -> first_leaf kids.(0)
    | Selest_bn.Tree_cpd.Split { arms = Selest_bn.Tree_cpd.Thresh (_, lo, _); _ } -> first_leaf lo
  in
  (match m2.Selest_prm.Model.tables.(ti).Selest_prm.Model.attr_families.(ai).Selest_prm.Model.cpd with
  | Selest_bn.Cpd.Table c -> c.Selest_bn.Table_cpd.table.(0) <- Float.nan
  | Selest_bn.Cpd.Tree c -> (first_leaf c.Selest_bn.Tree_cpd.root).(0) <- Float.nan);
  let finite = ask "TRUTH @m2 50 s=strain ; ; s.DrugResist=1" in
  Alcotest.(check bool) ("a finite TRUTH: " ^ finite) true
    (Protocol.is_ok finite && not (contains finite "nan"));
  let c = Server.cache server in
  let len0 = Lru.length c and hits0 = Lru.hits c in
  let body = "s=strain ; ; s.DrugResist=0" in
  let r1 = ask ("EST @m2 " ^ body) and r2 = ask ("EST @m2 " ^ body) in
  Alcotest.(check (pair string string)) "answered NaN" ("OK nan", "OK nan") (r1, r2);
  Alcotest.(check int) "no cache entry" len0 (Lru.length c);
  Alcotest.(check int) "no hit" hits0 (Lru.hits c);
  Alcotest.(check bool) "TRUTH answered" true (Protocol.is_ok (ask ("TRUTH @m2 5 " ^ body)));
  let qline =
    List.find
      (fun l -> String.starts_with ~prefix:"qerror model=m2 " l)
      (String.split_on_char '\n' (ask "HEALTH"))
  in
  Alcotest.(check bool) ("q-error mean finite: " ^ qline) true
    (contains qline " n=1 " && not (contains qline "nan"))

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
          Alcotest.test_case "find_exact" `Quick test_lru_find_exact;
          QCheck_alcotest.to_alcotest prop_lru_matches_model;
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
          Alcotest.test_case "slow-log replay counts nothing" `Quick
            test_slowlog_replay_counts_nothing;
          Alcotest.test_case "non-finite estimate stays out" `Quick
            test_non_finite_stays_out;
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
          Alcotest.test_case "concurrent clients bit-identical" `Quick
            test_concurrent_clients_bit_identity;
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
            Alcotest.test_case "label wins over integer" `Quick test_label_wins_over_integer;
            Alcotest.test_case "slice warm forms" `Quick
              test_slice_recognizes_warm_forms;
            Alcotest.test_case "fast path loopback" `Quick test_fast_path_loopback;
            QCheck_alcotest.to_alcotest prop_vec_load_inverts_snapshot;
          ] );
      ( "catalog",
        [
          Alcotest.test_case "view fields are declared" `Quick test_view_fields_declared;
          Alcotest.test_case "fresh METRICS is the catalog" `Quick
            test_fresh_metrics_is_catalog;
          QCheck_alcotest.to_alcotest prop_views_agree;
        ] );
      ( "shard-io",
        [
          Alcotest.test_case "long line ingest is linear" `Quick
            test_long_line_ingest_linear;
          Alcotest.test_case "over-cap line closes" `Quick test_over_cap_line_closes;
          Alcotest.test_case "raising handler closes one conn" `Quick
            test_raising_handler_closes_its_connection;
          Alcotest.test_case "1,100 connections on one shard" `Quick test_past_fd_setsize;
          Alcotest.test_case "accept sheds at the fd limit" `Quick
            test_accept_sheds_at_fd_limit;
          Alcotest.test_case "dying shard loop is counted" `Quick test_shard_exit_counted;
          QCheck_alcotest.to_alcotest prop_sim_replies_match;
        ] );
      ( "carry",
        [
          Alcotest.test_case "reloads on 1 domain" `Quick (test_carry_across_reloads 1);
          Alcotest.test_case "reloads on 2 domains" `Quick (test_carry_across_reloads 2);
          Alcotest.test_case "cap and compile failure" `Quick test_carry_cap_and_failure;
          QCheck_alcotest.to_alcotest prop_carry_matches_fresh;
          Alcotest.test_case "answers carried, 1 domain" `Quick (test_answers_carried 1);
          Alcotest.test_case "answers carried, 2 domains" `Quick (test_answers_carried 2);
          Alcotest.test_case "answer cap, uncarried skeleton" `Quick
            test_answer_cap_and_uncarried;
          Alcotest.test_case "answer failure skips its entry" `Quick
            test_answer_failure_skips_entry;
        ] );
      ( "load-refusal",
        [
          Alcotest.test_case "text file, unquoted" `Quick test_load_text_file_unquoted;
          Alcotest.test_case "directory" `Quick test_load_directory;
          Alcotest.test_case "FIFO, without blocking" `Quick test_load_fifo;
          Alcotest.test_case "NaN leaf" `Quick test_load_nan_leaf;
          Alcotest.test_case "negative leaf" `Quick test_load_negative_leaf;
          Alcotest.test_case "parent cards 6 -> 60" `Quick test_load_parent_cards;
          Alcotest.test_case "two-family cycle" `Quick test_load_cycle;
        ] );
      ( "memo",
        [
          QCheck_alcotest.to_alcotest prop_memo_matches_reference;
          QCheck_alcotest.to_alcotest prop_render_matches_printf;
          Alcotest.test_case "stale after LOAD" `Quick test_memo_stale_after_load;
          Alcotest.test_case "evicted or replaced entry" `Quick test_memo_evicted_or_replaced;
          Alcotest.test_case "bodies sharing a slot" `Quick test_memo_shared_slot;
          Alcotest.test_case "body over the memo's room" `Quick test_memo_oversized_body;
        ] );
      ("diagnostics", [ QCheck_alcotest.to_alcotest prop_diagnostics_invisible ]);
      ( "miss-path",
        List.map QCheck_alcotest.to_alcotest
          (List.map2 prop_scratch_miss_path miss_cases [ "TB"; "FIN"; "two-fk" ])
        @ [
            Alcotest.test_case "EST then EXPLAINPLAN shares a plan" `Quick
              test_est_then_explainplan_shares_plan;
          ] );
    ]
