open Selest_obs

let check_float = Alcotest.(check (float 1e-9))

(* ---- Clock ----------------------------------------------------------------- *)

let test_clock_monotone () =
  let t1 = Clock.now_ns () in
  let t2 = Clock.now_ns () in
  Alcotest.(check bool) "positive" true (t1 > 0);
  Alcotest.(check bool) "monotone" true (t2 >= t1);
  check_float "ns_to_us" 1.5 (Clock.ns_to_us 1_500)

(* ---- Span ------------------------------------------------------------------- *)

let test_span_disabled_noop () =
  Alcotest.(check bool) "disabled by default" false (Span.enabled ());
  let live = Span.with_ "dead" (fun sp -> Span.live sp) in
  Alcotest.(check bool) "null span handed out" false live;
  (* add on the null span must be a harmless no-op *)
  Span.with_ "dead" (fun sp -> Span.add sp "k" "v");
  Alcotest.(check int) "value passes through" 42 (Span.with_ "dead" (fun _ -> 42))

let test_span_collect_tree () =
  let result, records =
    Span.collect (fun () ->
        Alcotest.(check bool) "enabled inside collect" true (Span.enabled ());
        Span.with_ "a" (fun sp ->
            Alcotest.(check bool) "live span" true (Span.live sp);
            Span.add sp "k" "v";
            Span.add sp "k2" "v2";
            Span.with_ "b" (fun _ -> Span.with_ "c" ignore);
            Span.with_ "d" ignore;
            "done"))
  in
  Alcotest.(check bool) "disabled again" false (Span.enabled ());
  Alcotest.(check string) "result" "done" result;
  (* records are emitted at close: children before parents *)
  Alcotest.(check (list string)) "emission order"
    [ "c"; "b"; "d"; "a" ]
    (List.map (fun r -> r.Span.name) records);
  let find name = List.find (fun r -> r.Span.name = name) records in
  let a = find "a" and b = find "b" and c = find "c" and d = find "d" in
  Alcotest.(check int) "root parent" 0 a.parent;
  Alcotest.(check int) "b under a" a.id b.parent;
  Alcotest.(check int) "c under b" b.id c.parent;
  Alcotest.(check int) "d under a" a.id d.parent;
  Alcotest.(check (list int)) "depths" [ 0; 1; 2; 1 ]
    [ a.depth; b.depth; c.depth; d.depth ];
  Alcotest.(check (list (pair string string))) "attrs in add order"
    [ ("k", "v"); ("k2", "v2") ]
    a.attrs;
  List.iter
    (fun r ->
      Alcotest.(check bool) "interval well-formed" true (r.Span.end_ns >= r.Span.start_ns);
      Alcotest.(check bool) "duration non-negative" true (Span.duration_us r >= 0.0))
    records;
  Alcotest.(check bool) "b inside a" true
    (b.start_ns >= a.start_ns && b.end_ns <= a.end_ns);
  Alcotest.(check bool) "c inside b" true
    (c.start_ns >= b.start_ns && c.end_ns <= b.end_ns);
  Alcotest.(check bool) "siblings ordered" true (d.start_ns >= b.end_ns)

let test_span_emits_on_raise () =
  let (), records =
    Span.collect (fun () ->
        try Span.with_ "boom" (fun _ -> raise Exit) with Exit -> ())
  in
  Alcotest.(check (list string)) "record emitted despite raise" [ "boom" ]
    (List.map (fun r -> r.Span.name) records)

let test_span_global_sink () =
  let buf = ref [] in
  Span.set_global_sink (Some (fun r -> buf := r :: !buf));
  Fun.protect
    ~finally:(fun () -> Span.set_global_sink None)
    (fun () ->
      Alcotest.(check bool) "enabled via global sink" true (Span.enabled ());
      Span.with_ "g" (fun sp -> Span.add sp "x" "1");
      Alcotest.(check int) "one record" 1 (List.length !buf);
      (* the global sink sees collect's records too *)
      let (), local = Span.collect (fun () -> Span.with_ "h" ignore) in
      Alcotest.(check int) "collect captured it" 1 (List.length local);
      Alcotest.(check int) "global sink also saw it" 2 (List.length !buf));
  Alcotest.(check bool) "disabled after clearing" false (Span.enabled ())

(* Property: for any tree shape, the collected records form a consistent
   span tree — unique ids, children emitted before their parents, child
   intervals nested inside the parent's, depth = parent depth + 1. *)
type tree = Node of tree list

let prop_span_nesting =
  let open QCheck2.Gen in
  let gen_tree =
    sized
    @@ fix (fun self n ->
           if n <= 0 then return (Node [])
           else
             let* width = int_range 0 3 in
             list_repeat width (self (n / 2)) >|= fun children -> Node children)
  in
  let rec count (Node children) =
    1 + List.fold_left (fun acc t -> acc + count t) 0 children
  in
  let rec run (Node children) = Span.with_ "node" (fun _ -> List.iter run children) in
  QCheck2.Test.make ~name:"span records form a consistent tree" ~count:200
    gen_tree (fun tree ->
      let (), records = Span.collect (fun () -> run tree) in
      let n = List.length records in
      n = count tree
      && List.length (List.sort_uniq compare (List.map (fun r -> r.Span.id) records)) = n
      && List.for_all
           (fun (r : Span.record) ->
             r.end_ns >= r.start_ns
             &&
             if r.parent = 0 then r.depth = 0
             else
               match List.find_opt (fun p -> p.Span.id = r.parent) records with
               | None -> false
               | Some p ->
                 r.depth = p.depth + 1
                 && r.start_ns >= p.start_ns
                 && r.end_ns <= p.end_ns)
           records
      (* children first: every record's parent appears later in the list *)
      && List.for_all
           (fun (r : Span.record) ->
             r.parent = 0
             ||
             let rec after = function
               | [] -> false
               | x :: tl -> if x == r then List.exists (fun p -> p.Span.id = r.parent) tl else after tl
             in
             after records)
           records)

(* ---- Hotpath ----------------------------------------------------------------- *)

let test_hotpath_measure () =
  let (), d =
    Hotpath.measure (fun () ->
        Hotpath.kernel ~entries:10 ~out:100;
        Hotpath.kernel ~entries:5 ~out:50;
        Hotpath.program_hit ();
        Hotpath.program_hit ();
        Hotpath.program_miss ())
  in
  Alcotest.(check int) "factor_ops" 2 d.Hotpath.factor_ops;
  Alcotest.(check int) "entries_touched" 15 d.Hotpath.entries_touched;
  Alcotest.(check int) "max_factor_entries" 100 d.Hotpath.max_factor_entries;
  Alcotest.(check int) "program_hits" 2 d.Hotpath.program_hits;
  Alcotest.(check int) "program_misses" 1 d.Hotpath.program_misses

let test_hotpath_high_water_restore () =
  (* the delta's high-water mark reflects only work inside the callback,
     and the surrounding domain-wide mark survives the measurement *)
  Hotpath.kernel ~entries:1 ~out:5_000;
  let before = (Hotpath.get ()).Hotpath.max_factor_entries in
  let (), d = Hotpath.measure (fun () -> Hotpath.kernel ~entries:1 ~out:100) in
  Alcotest.(check int) "delta mark is callback-local" 100 d.Hotpath.max_factor_entries;
  Alcotest.(check bool) "surrounding mark restored" true
    ((Hotpath.get ()).Hotpath.max_factor_entries >= before)

let test_hotpath_to_pairs () =
  let (), d = Hotpath.measure (fun () -> Hotpath.kernel ~entries:3 ~out:7) in
  let pairs = Hotpath.to_pairs d in
  Alcotest.(check int) "five counters" 5 (List.length pairs);
  Alcotest.(check (option int)) "factor_ops listed" (Some 1)
    (List.assoc_opt "factor_ops" pairs);
  Alcotest.(check (option int)) "entries listed" (Some 3)
    (List.assoc_opt "entries_touched" pairs)

(* ---- Qerror ------------------------------------------------------------------- *)

let test_qerror_value () =
  check_float "underestimate" 10.0 (Qerror.value ~est:10.0 ~truth:100.0);
  check_float "overestimate" 10.0 (Qerror.value ~est:100.0 ~truth:10.0);
  check_float "exact" 1.0 (Qerror.value ~est:7.0 ~truth:7.0);
  (* sub-row clamp: both sides floor at one row *)
  check_float "both below one row" 1.0 (Qerror.value ~est:0.001 ~truth:0.5);
  check_float "clamped estimate" 200.0 (Qerror.value ~est:0.5 ~truth:200.0)

let test_qerror_histogram () =
  let t = Qerror.create () in
  Alcotest.(check int) "empty count" 0 (Qerror.count t);
  Alcotest.(check bool) "empty mean is nan" true (Float.is_nan (Qerror.mean t));
  Alcotest.(check bool) "empty percentile is nan" true
    (Float.is_nan (Qerror.percentile t 0.5));
  for _ = 1 to 100 do
    Qerror.observe t ~est:50.0 ~truth:50.0
  done;
  for _ = 1 to 10 do
    Qerror.record t 100.0
  done;
  Alcotest.(check int) "count" 110 (Qerror.count t);
  check_float "exact mean" 10.0 (Qerror.mean t);
  check_float "exact max" 100.0 (Qerror.worst t);
  (* percentiles quantize to the upper bucket edge (ratio sqrt 2) *)
  check_float "p50 is first bucket's edge" Qerror.bucket_ratio (Qerror.percentile t 0.5);
  let p99 = Qerror.percentile t 0.99 in
  Alcotest.(check bool) "p99 upper-edge quantized" true (p99 >= 100.0 && p99 <= 129.0);
  let s = Qerror.summarize t in
  Alcotest.(check int) "summary n" 110 s.Qerror.n;
  check_float "summary p50" (Qerror.percentile t 0.5) s.Qerror.p50;
  check_float "summary max" 100.0 s.Qerror.max_q;
  let buckets = Qerror.buckets t in
  Alcotest.(check int) "all buckets listed" Qerror.n_buckets (Array.length buckets);
  Alcotest.(check int) "cumulative reaches count" 110
    (snd buckets.(Qerror.n_buckets - 1));
  Array.iteri
    (fun i (edge, cum) ->
      if i > 0 then begin
        Alcotest.(check bool) "edges increase" true (edge > fst buckets.(i - 1));
        Alcotest.(check bool) "counts cumulative" true (cum >= snd buckets.(i - 1))
      end)
    buckets

let test_qerror_of_pairs () =
  let t = Qerror.of_pairs [ (100.0, 10.0); (7.0, 7.0); (2.0, 8.0) ] in
  Alcotest.(check int) "count" 3 (Qerror.count t);
  check_float "worst pair dominates" 10.0 (Qerror.worst t);
  check_float "mean" 5.0 (Qerror.mean t)

(* ---- Prometheus ----------------------------------------------------------------- *)

let test_prometheus_sanitize () =
  Alcotest.(check string) "dots to underscores" "ve_factor_ops"
    (Prometheus.sanitize "ve.factor_ops");
  Alcotest.(check string) "leading digit prefixed" "_9lives"
    (Prometheus.sanitize "9lives");
  Alcotest.(check string) "legal name unchanged" "selest_qerror:v2"
    (Prometheus.sanitize "selest_qerror:v2")

let test_prometheus_round_trip () =
  let metrics =
    [
      Prometheus.Counter
        { name = "selest_requests_total"; help = "Requests served"; labels = []; value = 42.0 };
      Prometheus.Counter
        {
          name = "selest_infer_total";
          help = "Inferences";
          labels = [ ("model", "tb") ];
          value = 7.0;
        };
      Prometheus.Counter
        {
          name = "selest_infer_total";
          help = "Inferences";
          labels = [ ("model", "census") ];
          value = 3.0;
        };
      Prometheus.Gauge
        { name = "selest_cache_bytes"; help = "Cache size"; labels = []; value = 1024.0 };
      Prometheus.Histogram
        {
          name = "selest_qerror";
          help = "q-error";
          labels = [ ("model", "tb") ];
          buckets = [| (1.5, 3); (2.0, 5) |];
          sum = 8.5;
          count = 5;
        };
    ]
  in
  let text = Prometheus.render metrics in
  let types, samples = Prometheus.parse text in
  Alcotest.(check (list (pair string string))) "types in order"
    [
      ("selest_requests_total", "counter");
      ("selest_infer_total", "counter");
      ("selest_cache_bytes", "gauge");
      ("selest_qerror", "histogram");
    ]
    types;
  let find ?labels name = Prometheus.find_sample samples ~name ?labels () in
  Alcotest.(check (option (float 0.0))) "counter" (Some 42.0)
    (find "selest_requests_total");
  Alcotest.(check (option (float 0.0))) "labeled counter" (Some 7.0)
    (find ~labels:[ ("model", "tb") ] "selest_infer_total");
  Alcotest.(check (option (float 0.0))) "second label set" (Some 3.0)
    (find ~labels:[ ("model", "census") ] "selest_infer_total");
  Alcotest.(check (option (float 0.0))) "gauge" (Some 1024.0)
    (find "selest_cache_bytes");
  Alcotest.(check (option (float 0.0))) "bucket" (Some 3.0)
    (find ~labels:[ ("model", "tb"); ("le", "1.5") ] "selest_qerror_bucket");
  (* the +Inf bucket is synthesized from count when missing *)
  Alcotest.(check (option (float 0.0))) "+Inf bucket" (Some 5.0)
    (find ~labels:[ ("le", "+Inf") ] "selest_qerror_bucket");
  Alcotest.(check (option (float 0.0))) "sum" (Some 8.5) (find "selest_qerror_sum");
  Alcotest.(check (option (float 0.0))) "count" (Some 5.0) (find "selest_qerror_count");
  Alcotest.(check (option (float 0.0))) "absent sample" None (find "selest_nope")

let test_prometheus_kind_conflict () =
  Alcotest.(check bool) "adjacent kind conflict rejected" true
    (try
       ignore
         (Prometheus.render
            [
              Prometheus.Counter { name = "x"; help = ""; labels = []; value = 1.0 };
              Prometheus.Gauge { name = "x"; help = ""; labels = []; value = 2.0 };
            ]);
       false
     with Invalid_argument _ -> true)

(* ---- Trace_log -------------------------------------------------------------------- *)

let read_lines file =
  let ic = open_in file in
  let rec loop acc =
    match input_line ic with
    | line -> loop (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  loop []

let test_trace_log_jsonl () =
  let file = Filename.temp_file "selest_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Trace_log.install file;
      Alcotest.(check bool) "installed" true (Trace_log.installed ());
      Alcotest.(check bool) "spans enabled" true (Span.enabled ());
      Span.with_ "outer" (fun sp ->
          Span.add sp "q" "x=1";
          Span.with_ "inner" ignore);
      Trace_log.close ();
      Alcotest.(check bool) "deregistered" false (Trace_log.installed ());
      Alcotest.(check bool) "spans disabled again" false (Span.enabled ());
      let lines = read_lines file in
      Alcotest.(check int) "one line per span" 2 (List.length lines);
      List.iter
        (fun line ->
          Alcotest.(check bool) "JSON object shape" true
            (String.length line > 2 && line.[0] = '{' && line.[String.length line - 1] = '}'))
        lines;
      let contains line sub =
        let n = String.length sub in
        let rec probe i =
          i + n <= String.length line && (String.sub line i n = sub || probe (i + 1))
        in
        probe 0
      in
      (* children close first: inner is the first record *)
      Alcotest.(check bool) "inner first" true
        (contains (List.nth lines 0) "\"name\":\"inner\"");
      Alcotest.(check bool) "attr serialized" true
        (contains (List.nth lines 1) "\"q\":\"x=1\"");
      (* reinstalling appends rather than truncating *)
      Trace_log.install file;
      Span.with_ "again" ignore;
      Trace_log.close ();
      Alcotest.(check int) "append on reinstall" 3 (List.length (read_lines file)))

(* ---- Histogram ---------------------------------------------------------------- *)

let test_histogram_bounds () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty quantile" 0 (Histogram.quantile_ns h 0.99);
  Histogram.record h (-5);
  Histogram.record h 0;
  Histogram.record h max_int;
  Alcotest.(check int) "count" 3 (Histogram.count h);
  Alcotest.(check int) "negative clamps to zero" 2 (Histogram.count_le h 0);
  Alcotest.(check int) "overflow clamps to max_ns" Histogram.max_ns
    (Histogram.max_ns_seen h);
  Alcotest.(check int) "p100 is the clamp" Histogram.max_ns
    (Histogram.quantile_ns h 1.0)

let test_histogram_exact_small () =
  (* values below [half] land in exact unit buckets: no quantization *)
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 3; 3; 7 ];
  Alcotest.(check int) "count_le" 2 (Histogram.count_le h 3);
  Alcotest.(check int) "p50 exact" 3 (Histogram.quantile_ns h 0.5);
  Alcotest.(check int) "p100 exact" 7 (Histogram.quantile_ns h 1.0);
  Alcotest.(check int) "sum exact" 13 (Histogram.sum_ns h)

let test_histogram_merge_diff () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.record a) [ 10; 2_000; 300_000 ];
  List.iter (Histogram.record b) [ 50; 2_000 ];
  let m = Histogram.copy a in
  Histogram.merge_into ~into:m b;
  Alcotest.(check int) "merged count" 5 (Histogram.count m);
  Alcotest.(check int) "merged sum"
    (Histogram.sum_ns a + Histogram.sum_ns b)
    (Histogram.sum_ns m);
  let d = Histogram.diff ~prev:a m in
  Alcotest.(check int) "diff count" 2 (Histogram.count d);
  Alcotest.(check int) "diff sum" (Histogram.sum_ns b) (Histogram.sum_ns d)

let prop_histogram_buckets =
  QCheck2.Test.make ~name:"bucket edges bound the value within 1/128"
    ~count:2_000
    QCheck2.Gen.(int_range 0 Histogram.max_ns)
    (fun v ->
      let i = Histogram.index_of_ns v in
      let lo = Histogram.lower_ns i and hi = Histogram.upper_ns i in
      lo <= v && v <= hi
      && (if i < Histogram.half then hi = lo
          else hi - lo <= lo / Histogram.half))

let prop_histogram_quantile_oracle =
  QCheck2.Test.make
    ~name:"quantiles match a sorted oracle within one bucket" ~count:200
    QCheck2.Gen.(list_size (int_range 1 300) (int_range 0 50_000_000))
    (fun vs ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) vs;
      let sorted = Array.of_list (List.sort compare vs) in
      let n = Array.length sorted in
      List.for_all
        (fun p ->
          let rank = max 1 (int_of_float (ceil (p *. float_of_int n))) in
          let v = sorted.(rank - 1) in
          let q = Histogram.quantile_ns h p in
          (* upper-edge quantization: never understates, overstates by at
             most one bucket width *)
          v <= q && q - v <= max 1 (v / Histogram.half))
        [ 0.5; 0.9; 0.99; 0.999; 1.0 ])

(* ---- Telemetry ---------------------------------------------------------------- *)

let prop_telemetry_concurrent_merge =
  (* K writer domains hammer one instance; after join (a happens-before
     edge) the merged totals are exact and quantiles are bit-identical
     to a sequential histogram of the same samples. *)
  QCheck2.Test.make ~name:"K-domain merged totals are exact" ~count:5
    QCheck2.Gen.(pair (int_range 2 4) (int_range 200 2_000))
    (fun (k, n) ->
      let tel = Telemetry.create () in
      let sample i = i * 9_973 mod 5_000_000 in
      let domains =
        List.init k (fun _ ->
            Domain.spawn (fun () ->
                for i = 1 to n do
                  Telemetry.incr tel "ops";
                  Telemetry.record_ns tel "lat" (sample i)
                done))
      in
      List.iter Domain.join domains;
      let oracle = Histogram.create () in
      for _ = 1 to k do
        for i = 1 to n do
          Histogram.record oracle (sample i)
        done
      done;
      let snap = Telemetry.snapshot tel in
      Telemetry.Snapshot.find_counter snap "ops" = k * n
      && Telemetry.n_shards tel = k
      &&
      match Telemetry.Snapshot.find_hist snap "lat" with
      | None -> false
      | Some h ->
        Histogram.count h = k * n
        && Histogram.sum_ns h = Histogram.sum_ns oracle
        && List.for_all
             (fun p -> Histogram.quantile_ns h p = Histogram.quantile_ns oracle p)
             [ 0.5; 0.95; 0.99; 0.999 ])

(* A warm string-keyed bump runs on every writer domain's request path:
   an allocation there makes each minor collection stop them all. *)
let test_telemetry_warm_string_keys_allocate_nothing () =
  let tel = Telemetry.create () in
  Telemetry.incr tel "ops";
  Telemetry.record_ns tel "lat" 1;
  let w0 = Gc.minor_words () in
  for i = 1 to 1_000 do
    Telemetry.incr tel "ops";
    Telemetry.record_ns tel "lat" i
  done;
  Alcotest.(check (float 0.0)) "minor words" 0.0 (Gc.minor_words () -. w0);
  Alcotest.(check int) "counted" 1_001 (Telemetry.get tel "ops")

let test_telemetry_delta () =
  let tel = Telemetry.create () in
  Telemetry.incr ~by:5 tel "x";
  let s1 = Telemetry.snapshot tel in
  Telemetry.incr ~by:3 tel "x";
  Telemetry.incr tel "fresh";
  Telemetry.record_ns tel "h" 10;
  let s2 = Telemetry.snapshot tel in
  Alcotest.(check bool) "epoch increases" true
    (s2.Telemetry.epoch > s1.Telemetry.epoch);
  let d = Telemetry.Snapshot.delta ~prev:s1 s2 in
  Alcotest.(check int) "window counter" 3 (Telemetry.Snapshot.find_counter d "x");
  Alcotest.(check int) "fresh slot counts from zero" 1
    (Telemetry.Snapshot.find_counter d "fresh");
  (match Telemetry.Snapshot.find_hist d "h" with
  | Some h -> Alcotest.(check int) "window hist count" 1 (Histogram.count h)
  | None -> Alcotest.fail "window histogram missing");
  Alcotest.(check int) "lifetime unchanged" 8
    (Telemetry.Snapshot.find_counter s2 "x")

(* ---- Slowlog ------------------------------------------------------------------ *)

let test_slowlog_ring () =
  let sl = Slowlog.create ~capacity:3 () in
  for i = 1 to 5 do
    ignore
      (Slowlog.add sl ~verb:"est" ~reason:Slowlog.Latency
         ~query:(Printf.sprintf "q%d" i) ~lat_ns:(i * 1_000) ~threshold_ns:500
         ~spans:[] ())
  done;
  Alcotest.(check int) "total counts evicted" 5 (Slowlog.total sl);
  Alcotest.(check int) "held bounded" 3 (Slowlog.length sl);
  Alcotest.(check (list string)) "newest first"
    [ "q5"; "q4" ]
    (List.map (fun e -> e.Slowlog.query) (Slowlog.recent ~n:2 sl));
  Alcotest.(check (list int)) "seqs never reused" [ 5; 4; 3 ]
    (List.map (fun e -> e.Slowlog.seq) (Slowlog.recent sl));
  let q =
    Slowlog.add sl ~verb:"truth" ~reason:Slowlog.Qerror ~query:"qq"
      ~lat_ns:10 ~threshold_ns:max_int ~qerror:123.0 ~spans:[] ()
  in
  Alcotest.(check int) "seq continues" 6 q;
  match Slowlog.recent ~n:1 sl with
  | [ e ] ->
    Alcotest.(check string) "reason" "qerror" (Slowlog.reason_to_string e.Slowlog.reason);
    Alcotest.(check (option (float 1e-9))) "qerror kept" (Some 123.0) e.Slowlog.qerror
  | _ -> Alcotest.fail "expected one entry"

(* ---- suite -------------------------------------------------------------------------- *)

let () =
  Alcotest.run "obs"
    [
      ("clock", [ Alcotest.test_case "monotone" `Quick test_clock_monotone ]);
      ( "span",
        [
          Alcotest.test_case "disabled no-op" `Quick test_span_disabled_noop;
          Alcotest.test_case "collect tree" `Quick test_span_collect_tree;
          Alcotest.test_case "emits on raise" `Quick test_span_emits_on_raise;
          Alcotest.test_case "global sink" `Quick test_span_global_sink;
        ] );
      ("span-properties", List.map QCheck_alcotest.to_alcotest [ prop_span_nesting ]);
      ( "hotpath",
        [
          Alcotest.test_case "measure deltas" `Quick test_hotpath_measure;
          Alcotest.test_case "high-water restore" `Quick test_hotpath_high_water_restore;
          Alcotest.test_case "to_pairs" `Quick test_hotpath_to_pairs;
        ] );
      ( "qerror",
        [
          Alcotest.test_case "value" `Quick test_qerror_value;
          Alcotest.test_case "histogram" `Quick test_qerror_histogram;
          Alcotest.test_case "of_pairs" `Quick test_qerror_of_pairs;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "sanitize" `Quick test_prometheus_sanitize;
          Alcotest.test_case "round trip" `Quick test_prometheus_round_trip;
          Alcotest.test_case "kind conflict" `Quick test_prometheus_kind_conflict;
        ] );
      ("trace-log", [ Alcotest.test_case "jsonl" `Quick test_trace_log_jsonl ]);
      ( "histogram",
        [
          Alcotest.test_case "bounds" `Quick test_histogram_bounds;
          Alcotest.test_case "exact small values" `Quick test_histogram_exact_small;
          Alcotest.test_case "merge and diff" `Quick test_histogram_merge_diff;
        ] );
      ( "histogram-properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_histogram_buckets; prop_histogram_quantile_oracle ] );
      ( "telemetry",
        Alcotest.test_case "snapshot delta" `Quick test_telemetry_delta
        :: Alcotest.test_case "warm string keys allocate nothing" `Quick
             test_telemetry_warm_string_keys_allocate_nothing
        :: List.map QCheck_alcotest.to_alcotest [ prop_telemetry_concurrent_merge ]
      );
      ("slowlog", [ Alcotest.test_case "ring" `Quick test_slowlog_ring ]);
    ]
