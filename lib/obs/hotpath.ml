type t = {
  mutable factor_ops : int;
  mutable entries_touched : int;
  mutable max_factor_entries : int;
  mutable scratch_hits : int;
  mutable scratch_misses : int;
  mutable order_hits : int;
  mutable order_misses : int;
  mutable program_hits : int;
  mutable program_misses : int;
}

let create () =
  { factor_ops = 0; entries_touched = 0; max_factor_entries = 0;
    scratch_hits = 0; scratch_misses = 0; order_hits = 0; order_misses = 0;
    program_hits = 0; program_misses = 0 }

let dkey = Domain.DLS.new_key create
let get () = Domain.DLS.get dkey

let kernel ~entries ~out =
  let c = get () in
  c.factor_ops <- c.factor_ops + 1;
  c.entries_touched <- c.entries_touched + entries;
  if out > c.max_factor_entries then c.max_factor_entries <- out

let scratch_hit () = let c = get () in c.scratch_hits <- c.scratch_hits + 1
let scratch_miss () = let c = get () in c.scratch_misses <- c.scratch_misses + 1
let order_hit () = let c = get () in c.order_hits <- c.order_hits + 1
let order_miss () = let c = get () in c.order_misses <- c.order_misses + 1
let program_hit () = let c = get () in c.program_hits <- c.program_hits + 1
let program_miss () = let c = get () in c.program_misses <- c.program_misses + 1

(* [d] holds the counters at [begin_delta] (and the enclosing
   high-water mark, in its [max_factor_entries]) until [end_delta] turns
   it into the difference.  Field writes only — nothing allocates. *)
let begin_delta d =
  let cur = get () in
  d.factor_ops <- cur.factor_ops;
  d.entries_touched <- cur.entries_touched;
  d.max_factor_entries <- cur.max_factor_entries;
  d.scratch_hits <- cur.scratch_hits;
  d.scratch_misses <- cur.scratch_misses;
  d.order_hits <- cur.order_hits;
  d.order_misses <- cur.order_misses;
  d.program_hits <- cur.program_hits;
  d.program_misses <- cur.program_misses;
  cur.max_factor_entries <- 0

let end_delta d =
  let cur = get () in
  let outer_max = d.max_factor_entries in
  d.factor_ops <- cur.factor_ops - d.factor_ops;
  d.entries_touched <- cur.entries_touched - d.entries_touched;
  d.max_factor_entries <- cur.max_factor_entries;
  d.scratch_hits <- cur.scratch_hits - d.scratch_hits;
  d.scratch_misses <- cur.scratch_misses - d.scratch_misses;
  d.order_hits <- cur.order_hits - d.order_hits;
  d.order_misses <- cur.order_misses - d.order_misses;
  d.program_hits <- cur.program_hits - d.program_hits;
  d.program_misses <- cur.program_misses - d.program_misses;
  if outer_max > cur.max_factor_entries then cur.max_factor_entries <- outer_max

let measure f =
  let d = create () in
  begin_delta d;
  match f () with
  | x -> end_delta d; (x, d)
  | exception e -> end_delta d; raise e

let to_pairs c =
  [ ("factor_ops", c.factor_ops);
    ("entries_touched", c.entries_touched);
    ("max_factor_entries", c.max_factor_entries);
    ("scratch_hits", c.scratch_hits);
    ("scratch_misses", c.scratch_misses);
    ("order_hits", c.order_hits);
    ("order_misses", c.order_misses);
    ("program_hits", c.program_hits);
    ("program_misses", c.program_misses) ]
