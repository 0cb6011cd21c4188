(* The scaffold every bench figure shares: one ledger, one gate checker,
   one monotonic calibration-scaled timer, an interleaved A/B runner and
   the TB serving fixture.

   The ledger is BENCH_ledger.json at the repo root: [commit],
   [host_cores] and one row per measured value (figure, metric, unit,
   value, n, spread).  A run replaces the rows of the figures it ran and
   keeps every other row, so `--fig exec` refreshes exec's rows only.
   Deterministic rows have n = 1 and spread 0; a timed row's value is a
   median over n samples and its spread is (q3 - q1) / median. *)

open Selest
module Json = Perfbench.Json

(* ---- artifacts at the repo root ------------------------------------------- *)

(* The nearest ancestor holding dune-project, whatever the working
   directory, so CI finds the ledger and the goldens reliably. *)
let repo_root =
  lazy
    (let rec up dir =
       if Sys.file_exists (Filename.concat dir "dune-project") then dir
       else
         let parent = Filename.dirname dir in
         if parent = dir then Sys.getcwd () else up parent
     in
     up (Sys.getcwd ()))

let at_root file = Filename.concat (Lazy.force repo_root) file

(* ---- ledger and gates -------------------------------------------------------- *)

type row = {
  figure : string;
  metric : string;
  unit_ : string;
  value : float;
  n : int;
  spread : float;
}

let current = ref ""
let ran = ref []
let rows = ref [] (* newest first *)
let failures = ref []

(* Run one figure: its rows and failed gates are filed under [name]. *)
let figure name f =
  current := name;
  ran := name :: !ran;
  f ()

let row ?(n = 1) ?(spread = 0.0) metric unit_ value =
  rows := { figure = !current; metric; unit_; value; n; spread } :: !rows

(* A gate: printed, filed as a pass/fail row, and remembered so [finish]
   exits 1 after the ledger is written. *)
let check name ok detail =
  Printf.printf "%-46s %-4s %s\n%!" name (if ok then "ok" else "FAIL") detail;
  row ("gate: " ^ name) "pass" (if ok then 1.0 else 0.0);
  if not ok then failures := (!current ^ ": " ^ name) :: !failures

let ledger_file = "BENCH_ledger.json"

let json_of_row r =
  let num v = if Float.is_finite v then Json.Num v else Json.Null in
  Json.Obj
    [
      ("figure", Json.Str r.figure); ("metric", Json.Str r.metric);
      ("unit", Json.Str r.unit_); ("value", num r.value);
      ("n", Json.Num (float_of_int r.n)); ("spread", num r.spread);
    ]

let row_of_json j =
  let str k = match Json.member k j with Some (Json.Str s) -> s | _ -> "" in
  let num k = match Json.member k j with Some (Json.Num v) -> v | _ -> Float.nan in
  {
    figure = str "figure"; metric = str "metric"; unit_ = str "unit";
    value = num "value"; n = int_of_float (num "n"); spread = num "spread";
  }

let read_ledger () =
  let file = at_root ledger_file in
  if not (Sys.file_exists file) then []
  else
    match
      Json.member "rows"
        (Json.of_string (In_channel.with_open_bin file In_channel.input_all))
    with
    | Some (Json.Arr l) -> List.map row_of_json l
    | _ | (exception Json.Parse_error _) ->
      Printf.printf "%s unreadable; starting a fresh ledger\n" ledger_file;
      []

(* The first line git prints for [args], or "" when it prints none. *)
let git args =
  let ic = Unix.open_process_in ("git " ^ args ^ " 2>/dev/null") in
  let line = try input_line ic with End_of_file -> "" in
  ignore (Unix.close_process_in ic);
  line

(* The checked-out commit; on a dirty tree, also the commit [git stash
   create] makes of it, which [git checkout] restores ("-dirty" named
   no tree anyone could check out). *)
let commit () =
  match git "rev-parse --short=12 HEAD" with
  | "" -> "unknown"
  | base -> (
    match git "stash create" with
    | "" -> base
    | stash -> Printf.sprintf "%s+stash:%s" base (String.sub stash 0 (min 12 (String.length stash))))

(* Write the ledger (one row per line, rows grouped by figure), then exit
   1 if any gate failed. *)
let finish () =
  let kept = List.filter (fun r -> not (List.mem r.figure !ran)) (read_ledger ()) in
  let all =
    List.stable_sort (fun a b -> compare a.figure b.figure) (kept @ List.rev !rows)
  in
  let oc = open_out (at_root ledger_file) in
  Printf.fprintf oc "{\n  \"commit\": %s,\n  \"host_cores\": %d,\n  \"rows\": [\n"
    (Json.to_string (Json.Str (commit ())))
    (Domain.recommended_domain_count ());
  List.iteri
    (fun i r ->
      Printf.fprintf oc "    %s%s\n" (Json.to_string (json_of_row r))
        (if i = List.length all - 1 then "" else ","))
    all;
  output_string oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s (%d rows)\n" ledger_file (List.length all);
  if !failures <> [] then begin
    Printf.eprintf "bench checks FAILED:\n  %s\n" (String.concat "\n  " (List.rev !failures));
    exit 1
  end

(* ---- timing ----------------------------------------------------------------- *)

let now_ns = Obs.Clock.now_ns

(* Wall time of [f] in seconds, unscaled: the paper's construction-time
   tables report seconds on the host at hand. *)
let time f =
  let t0 = now_ns () in
  let x = f () in
  (x, float_of_int (now_ns () - t0) /. 1e9)

(* The host's speed drifts by tens of percent over seconds.  This is
   the served benchmark's calibration loop (perfbench/client.ml), copied
   because it lives in that executable: a fixed CPU-bound loop, best of
   three passes, that no change to selest can move.  Absolute timings
   are read at a nominal 0.2 ms calibration, i.e. multiplied by 0.2 ms /
   the calibration taken next to them. *)
let calib_buf = Array.make 32768 0

let calibrate () =
  let best = ref max_int in
  for _ = 1 to 3 do
    let t0 = now_ns () in
    let x = ref 12345 in
    for i = 0 to 99_999 do
      let j = !x land 32767 in
      Array.unsafe_set calib_buf j (Array.unsafe_get calib_buf j + i);
      x := ((!x * 1103515245) + 12345) land 0x3fffffff
    done;
    best := min !best (now_ns () - t0)
  done;
  float_of_int !best

let nominal_calib_ns = 200_000.0

type stat = { median : float; spread : float; n : int }

let stat xs =
  let m = Util.Arrayx.median xs in
  let iqr = Util.Arrayx.percentile xs 75.0 -. Util.Arrayx.percentile xs 25.0 in
  { median = m; spread = (if m = 0.0 then 0.0 else iqr /. Float.abs m); n = Array.length xs }

let stat_row metric unit_ s = row ~n:s.n ~spread:s.spread metric unit_ s.median

(* Nominal ns of a run of [f], next to a calibration of [calib] ns: the
   median of [reps] runs, so a preemption that lands in one run does not
   move the sample. *)
let scaled ?(reps = 1) ~calib f =
  let run () =
    let t0 = now_ns () in
    f ();
    float_of_int (now_ns () - t0)
  in
  Util.Arrayx.median (Array.init reps (fun _ -> run ())) *. nominal_calib_ns /. calib

(* [timed_pairs ~pairs a b]: nominal ns of [a] and of [b] over [pairs]
   interleaved pairs.  Pair i runs [a] first when i is even and [b]
   first when it is odd, so a drift in host speed or a warming cache
   lands on both sides; a calibration before each pair scales both. *)
let timed_pairs ?reps ~pairs a b =
  a ();
  b ();
  let ta = Array.make pairs 0.0 and tb = Array.make pairs 0.0 in
  for i = 0 to pairs - 1 do
    let calib = calibrate () in
    if i land 1 = 0 then begin
      ta.(i) <- scaled ?reps ~calib a;
      tb.(i) <- scaled ?reps ~calib b
    end
    else begin
      tb.(i) <- scaled ?reps ~calib b;
      ta.(i) <- scaled ?reps ~calib a
    end
  done;
  (ta, tb)

(* The per-pair ratio time(a) / time(b) — above 1 when [b] is faster. *)
let ratio ta tb = stat (Array.map2 ( /. ) ta tb)

(* Time per operation of samples that each ran [ops] operations, in ns
   or, with [~us:true], in us. *)
let per_op ?(us = false) ~ops t =
  stat (Array.map (fun t -> t /. float_of_int ops /. if us then 1e3 else 1.0) t)

(* [ab a b ~pairs]: [ratio] over interleaved pairs, as median, quartile
   spread and n. *)
let ab ?reps a b ~pairs =
  let ta, tb = timed_pairs ?reps ~pairs a b in
  ratio ta tb

(* ---- the TB serving fixture --------------------------------------------------- *)

(* The 3-table contact-patient-strain join skeleton of Fig. 6. *)
let tb_skeleton3 =
  Db.Query.create
    ~tvars:[ ("c", "contact"); ("p", "patient"); ("s", "strain") ]
    ~joins:
      [
        Db.Query.join ~child:"c" ~fk:"patient" ~parent:"p";
        Db.Query.join ~child:"p" ~fk:"strain" ~parent:"s";
      ]
    ()

(* A 4,500 B PRM over the TB database and the 90 (Contype, Age,
   DrugResist) value triples the serving figures ask about. *)
type tb = {
  db : Db.Database.t;
  model : Prm.Model.t;
  triples : (int * int * int) list;
}

let card db t a =
  let schema = Db.Database.schema db in
  Db.Value.card (Db.Schema.attr (Db.Schema.find_table schema t) a).Db.Schema.domain

let tb_fixture ~seed db =
  let model = learn_prm ~budget_bytes:4_500 ~seed db in
  let triples =
    List.concat
      (List.init (card db "contact" "Contype") (fun i ->
           List.concat
             (List.init (card db "patient" "Age") (fun j ->
                  List.init (card db "strain" "DrugResist") (fun k -> (i, j, k))))))
  in
  { db; model; triples }

let body (i, j, k) =
  Printf.sprintf
    "c=contact, p=patient, s=strain; c.patient=p, p.strain=s; \
     c.Contype=%d, p.Age=%d, s.DrugResist=%d"
    i j k

let query_of (i, j, k) =
  Db.Query.with_selects tb_skeleton3
    [ Db.Query.eq "c" "Contype" i; Db.Query.eq "p" "Age" j; Db.Query.eq "s" "DrugResist" k ]

(* A transport-free server with the fixture's model as "default". *)
let fresh_server ?qerror_gate fx =
  let s = Serve.Server.create ?qerror_gate ~db:fx.db ~socket:"(bench: transport-free)" () in
  ignore (Serve.Registry.register (Serve.Server.registry s) ~name:"default" fx.model);
  s

let ask server line =
  let resp, _ = Serve.Server.handle_line server line in
  if Serve.Protocol.is_err resp then failwith (line ^ " -> " ^ resp);
  resp
