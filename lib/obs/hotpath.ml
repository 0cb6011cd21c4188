type t = {
  mutable factor_ops : int;
  mutable entries_touched : int;
  mutable max_factor_entries : int;
  mutable program_hits : int;
  mutable program_misses : int;
}

let create () =
  { factor_ops = 0; entries_touched = 0; max_factor_entries = 0;
    program_hits = 0; program_misses = 0 }

let dkey = Domain.DLS.new_key create
let get () = Domain.DLS.get dkey

let kernel ~entries ~out =
  let c = get () in
  c.factor_ops <- c.factor_ops + 1;
  c.entries_touched <- c.entries_touched + entries;
  if out > c.max_factor_entries then c.max_factor_entries <- out

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
  d.program_hits <- cur.program_hits;
  d.program_misses <- cur.program_misses;
  cur.max_factor_entries <- 0

let end_delta d =
  let cur = get () in
  let outer_max = d.max_factor_entries in
  d.factor_ops <- cur.factor_ops - d.factor_ops;
  d.entries_touched <- cur.entries_touched - d.entries_touched;
  d.max_factor_entries <- cur.max_factor_entries;
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
    ("program_hits", c.program_hits);
    ("program_misses", c.program_misses) ]
