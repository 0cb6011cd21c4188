(* Request generators for the served-estimate benchmark.

   Every workload queries the TB database (contact -> patient -> strain)
   through the full three-table key join.  A request body is a pure
   function of the workload seed; the server only ever sees the rendered
   lines.  Predicate values are written as integer codes, so the text is
   independent of label spelling, and set predicates are rendered sorted
   with at least two members and ranges with lo < hi, so two distinct
   bodies are never equal after canonicalization. *)

type kind = Eq | Range | Set

type attr = { tv : string; aname : string; card : int }

let tv_of_table = function
  | "contact" -> "c"
  | "patient" -> "p"
  | "strain" -> "s"
  | t -> invalid_arg ("Workloads.tv_of_table: " ^ t)

(* TB's 13 value attributes, in schema order. *)
let attrs =
  let open Selest.Db in
  Array.concat
    (Array.to_list
       (Array.map
          (fun (ts : Schema.table_schema) ->
            Array.map
              (fun (a : Schema.attr) ->
                {
                  tv = tv_of_table ts.Schema.tname;
                  aname = a.Schema.aname;
                  card = Value.card a.Schema.domain;
                })
              ts.Schema.attrs)
          (Schema.tables Selest.Synth.Tb.schema)))

let attr tv aname =
  match List.find_opt (fun a -> a.tv = tv && a.aname = aname) (Array.to_list attrs) with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Workloads.attr: %s.%s" tv aname)

let prefix = "c=contact, p=patient, s=strain ; c.patient=p, p.strain=s ; "

let render_pred rng (a, k) =
  match k with
  | Eq -> Printf.sprintf "%s.%s=%d" a.tv a.aname (Random.State.int rng a.card)
  | Range ->
    let lo = Random.State.int rng (a.card - 1) in
    let hi = lo + 1 + Random.State.int rng (a.card - 1 - lo) in
    Printf.sprintf "%s.%s=%d..%d" a.tv a.aname lo hi
  | Set ->
    let rec draw () =
      let members = List.filter (fun _ -> Random.State.bool rng) (List.init a.card Fun.id) in
      if List.length members >= 2 then members else draw ()
    in
    Printf.sprintf "%s.%s={%s}" a.tv a.aname
      (String.concat "," (List.map string_of_int (draw ())))

let body rng skel = prefix ^ String.concat ", " (List.map (render_pred rng) skel)

(* [n] pairwise-distinct bodies, each on a skeleton drawn uniformly from
   [skels].  Raises when the skeletons cannot supply [n] distinct bodies
   within a generous number of draws. *)
let distinct_bodies rng skels n =
  let skels = Array.of_list skels in
  let seen = Hashtbl.create (2 * n) in
  let out = Array.make n "" in
  let filled = ref 0 and draws = ref 0 in
  while !filled < n do
    incr draws;
    if !draws > 50 * n then failwith "Workloads.distinct_bodies: skeletons too narrow";
    let b = body rng skels.(Random.State.int rng (Array.length skels)) in
    if not (Hashtbl.mem seen b) then begin
      Hashtbl.add seen b ();
      out.(!filled) <- b;
      incr filled
    end
  done;
  out

let a = attr

(* tb_hot: 4 skeletons x 64 queries.  Two skeletons carry range and set
   predicates so the hit path also lexes and canonicalizes those forms. *)
let hot_skeletons =
  [
    [ (a "p" "Age", Eq); (a "c" "Contype", Eq); (a "s" "Lineage", Eq) ];
    [ (a "c" "Age", Range); (a "c" "Contype", Set); (a "p" "Site", Eq) ];
    [ (a "p" "HIV", Eq); (a "p" "USBorn", Eq); (a "c" "Infected", Eq);
      (a "c" "Gender", Eq); (a "s" "Lineage", Eq) ];
    [ (a "s" "DrugResist", Range); (a "p" "Gender", Eq); (a "p" "Homeless", Eq);
      (a "c" "Age", Eq) ];
  ]

(* tb_miss: 4 wide skeletons (13, 12, 11 and 10 of the 13 attributes),
   each with well over 10^5 bindings, so a run never repeats a query. *)
let miss_skeletons =
  let all_but drop ranged =
    List.filter_map
      (fun at ->
        if List.mem (at.tv, at.aname) drop then None
        else Some (at, if List.mem (at.tv, at.aname) ranged then Range else Eq))
      (Array.to_list attrs)
  in
  [
    all_but [] [];
    all_but [ ("s", "Unique") ] [ ("p", "Age") ];
    all_but [ ("p", "Gender"); ("c", "Gender") ] [ ("c", "Age") ];
    all_but [ ("s", "Unique"); ("p", "Homeless"); ("c", "Infected") ] [];
  ]

(* tb_reload: 64 skeletons, each a distinct set of 2 to 4 attributes with
   equality predicates. *)
let reload_skeletons rng =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  while Hashtbl.length seen < 64 do
    let k = 2 + Random.State.int rng 3 in
    let picked = Array.make (Array.length attrs) false in
    let n = ref 0 in
    while !n < k do
      let i = Random.State.int rng (Array.length attrs) in
      if not picked.(i) then begin
        picked.(i) <- true;
        incr n
      end
    done;
    let key = Array.to_list picked in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      out :=
        List.filteri (fun i _ -> picked.(i)) (Array.to_list attrs)
        |> List.map (fun at -> (at, Eq))
        |> fun s -> s :: !out
    end
  done;
  List.rev !out

type spec = {
  name : string;
  block : int;  (** estimates per block; a tb_reload block ends with LOAD + METRICS *)
  warmup_blocks : int;
  reload : bool;
  blocks_per_s : float;
      (** nominal blocks per second on the reference host: sizes the
          fixed request count of a run from [--seconds] *)
}

let tb_hot =
  {
    name = "tb_hot";
    block = 2000;
    warmup_blocks = 1;
    reload = false;
    blocks_per_s = 23.0;
  }

let tb_miss =
  {
    name = "tb_miss";
    block = 2000;
    warmup_blocks = 2;
    reload = false;
    blocks_per_s = 9.0;
  }

let tb_reload =
  {
    name = "tb_reload";
    block = 2000;
    warmup_blocks = 1;
    reload = true;
    blocks_per_s = 16.0;
  }

let all = [ tb_hot; tb_miss; tb_reload ]

let find name = List.find_opt (fun s -> s.name = name) all

let rng_for spec seed =
  Random.State.make [| seed; Hashtbl.hash spec.name |]

(* The distinct query bodies of a run and, for each of [n] estimates,
   the index of its body.  tb_hot and tb_reload cycle through a seeded
   permutation of their queries, so any window of 256 (resp. 64)
   consecutive estimates touches every query once; tb_miss walks its
   bodies in order and never repeats one. *)
let stream spec ~seed ~n =
  let rng = rng_for spec seed in
  let cycle bodies =
    let m = Array.length bodies in
    let perm = Array.init m Fun.id in
    for i = m - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done;
    (bodies, Array.init n (fun i -> perm.(i mod m)))
  in
  match spec.name with
  | "tb_hot" ->
    cycle
      (Array.concat
         (List.map (fun sk -> distinct_bodies rng [ sk ] 64) hot_skeletons))
  | "tb_reload" ->
    cycle (Array.of_list (List.map (fun sk -> body rng sk) (reload_skeletons rng)))
  | "tb_miss" -> (distinct_bodies rng miss_skeletons n, Array.init n Fun.id)
  | s -> invalid_arg ("Workloads.stream: " ^ s)

(* The q-error set: the workload's distinct queries at a fixed seed, the
   same on every run so the accuracy figures are exact repeats unless the
   estimates change.  For tb_miss it is a fixed 256-query subsample drawn
   on its skeletons cut down to 2-4 of their predicates: at full width
   almost every true size is under one row, and q-error, which clamps
   both sides to at least 1, would read 1 whatever the estimate. *)
let eval_seed = 20010521

let eval_bodies spec =
  match spec.name with
  | "tb_miss" ->
    let rng = rng_for spec eval_seed in
    let cut skel =
      let keep = 2 + Random.State.int rng 3 in
      let order = List.sort compare (List.mapi (fun i _ -> (Random.State.bits rng, i)) skel) in
      let picked = List.filteri (fun k _ -> k < keep) (List.map snd order) in
      List.filteri (fun i _ -> List.mem i picked) skel
    in
    let narrow = List.concat_map (fun sk -> List.init 16 (fun _ -> cut sk)) miss_skeletons in
    distinct_bodies rng narrow 256
  | _ -> fst (stream spec ~seed:eval_seed ~n:0)
