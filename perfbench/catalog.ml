(* Every metric the harness reports, with its unit.  BENCHMARK.json lists
   the same names; the self-tests check that the two agree. *)

type metric = { name : string; unit : string; better : [ `Lower | `Higher ] }

let m name unit better = { name; unit; better }

(* Measured with tracing off, from the separate client process. *)
let end_to_end =
  [
    m "setup_s" "s" `Lower;
    m "est_per_s" "1/s" `Higher;
    m "lat_p50_us" "us" `Lower;
    m "lat_p99_us" "us" `Lower;
    m "ok_frac" "ratio" `Higher;
    m "server_cpu_us_per_est" "us" `Lower;
    m "server_rss_mb" "MB" `Lower;
    m "qerror_p50" "ratio" `Lower;
    m "qerror_p95" "ratio" `Lower;
  ]

(* Reported by the traced run ([--trace 1]). *)
let per_layer =
  [
    m "shard.transport_us" "us" `Lower;
    m "server.hit_us" "us" `Lower;
    m "server.miss_us" "us" `Lower;
    m "server.cold_us" "us" `Lower;
    m "server.other_us" "us" `Lower;
    m "squery.parse_ns" "ns" `Lower;
    m "squery.canon_ns" "ns" `Lower;
    m "squery.hash_ns" "ns" `Lower;
    m "squery.to_query_ns" "ns" `Lower;
    m "canon.skel_ns" "ns" `Lower;
    m "lru.hit_ratio" "ratio" `Higher;
    m "lru.evictions_per_est" "1/est" `Lower;
    m "lru.find_ns" "ns" `Lower;
    m "lru.add_ns" "ns" `Lower;
    m "plan_cache.hit_ratio" "ratio" `Higher;
    m "plan_cache.find_ns" "ns" `Lower;
    m "plan.compile_us" "us" `Lower;
    m "plan.compiles_per_kest" "1/kest" `Lower;
    m "plan.bind_ns" "ns" `Lower;
    m "plan.program_hit_ratio" "ratio" `Higher;
    m "exec.load_ns" "ns" `Lower;
    m "exec.run_ns" "ns" `Lower;
    m "registry.load_ms" "ms" `Lower;
    m "metrics.scrape_us" "us" `Lower;
    m "synth.generate_s" "s" `Lower;
    m "learn.learn_s" "s" `Lower;
    m "gc.minor_words_per_est" "words/est" `Lower;
    m "gc.major_per_kest" "1/kest" `Lower;
    m "trace.overhead_frac" "ratio" `Lower;
    m "stats.cache_hits" "count" `Higher;
    m "stats.cache_misses" "count" `Lower;
    m "stats.cache_evictions" "count" `Lower;
    m "stats.plan_cache_hits" "count" `Higher;
    m "stats.plan_cache_misses" "count" `Lower;
    m "stats.plan_cache_evictions" "count" `Lower;
    m "stats.program_hits" "count" `Higher;
    m "stats.compiles_per_reload" "count" `Lower;
  ]

let valid_name s =
  s <> ""
  && String.length s <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let valid_unit s =
  s <> ""
  && String.length s <= 16
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
         | _ -> false)
       s

(* The result line: the last line of standard output. *)
let result_json ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (metric, v) ->
                  (metric.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str metric.unit) ]))
                metrics) );
       ])
