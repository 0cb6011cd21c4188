type t = { offsets : int array; rows : int array }

let build ~fk_col ~target_size =
  let counts = Array.make (target_size + 1) 0 in
  Array.iter
    (fun p ->
      if p < 0 || p >= target_size then invalid_arg "Index.build: fk out of range";
      counts.(p + 1) <- counts.(p + 1) + 1)
    fk_col;
  for p = 1 to target_size do
    counts.(p) <- counts.(p) + counts.(p - 1)
  done;
  let offsets = counts in
  let rows = Array.make (Array.length fk_col) 0 in
  let cursor = Array.copy offsets in
  Array.iteri
    (fun child p ->
      rows.(cursor.(p)) <- child;
      cursor.(p) <- cursor.(p) + 1)
    fk_col;
  { offsets; rows }

let fanout t p = t.offsets.(p + 1) - t.offsets.(p)

let children t p = Array.sub t.rows t.offsets.(p) (fanout t p)

let max_fanout t =
  let best = ref 0 in
  for p = 0 to Array.length t.offsets - 2 do
    if fanout t p > !best then best := fanout t p
  done;
  !best

let mean_fanout t =
  let parents = Array.length t.offsets - 1 in
  if parents = 0 then 0.0 else float_of_int (Array.length t.rows) /. float_of_int parents
