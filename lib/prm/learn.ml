open Selest_util
open Selest_db
open Selest_bn

let log_src = Logs.Src.create "selest.prm.learn" ~doc:"PRM structure search"

module Log = (val Logs.src_log log_src : Logs.LOG)

type rule = Naive | Ssn | Mdl

type config = {
  kind : Cpd.kind;
  budget_bytes : int;
  max_parents : int;
  rule : rule;
  allow_cross_table : bool;
  allow_join_parents : bool;
  random_restarts : int;
  random_walk_length : int;
  seed : int;
}

let default_config ~budget_bytes =
  {
    kind = Cpd.Trees;
    budget_bytes;
    max_parents = 3;
    rule = Ssn;
    allow_cross_table = true;
    allow_join_parents = true;
    random_restarts = 1;
    random_walk_length = 3;
    seed = 0;
  }

let bn_uj_config ~budget_bytes =
  { (default_config ~budget_bytes) with allow_cross_table = false; allow_join_parents = false }

let bn_config ~budget_bytes =
  { (bn_uj_config ~budget_bytes) with max_parents = 4; random_restarts = 2 }

type result = {
  model : Model.t;
  loglik : float;
  bytes : int;
  iterations : int;
  family_evaluations : int;
  trajectory : string list;
}

(* ---- search state ------------------------------------------------------ *)

(* Either kind of family carries (loglik, bytes, params, cpd). *)
type fam = {
  f_parents : Model.parent array;  (* sorted by local id *)
  f_loglik : float;
  f_bytes : int;
  f_params : int;
  f_cpd : Cpd.t;
}

type state = {
  cfg : config;
  db : Database.t;
  schema : Schema.t;
  scopes : Model.Scope.s array;
  ext_data : Data.t array;  (* per table *)
  caches : Score.cache array;  (* per table, over extended data *)
  join_cache : (int * int * Model.parent list, Suffstats.join_stats) Hashtbl.t;
  join_hits : int ref;  (* suffstat reuses served from join_cache *)
  join_misses : int ref;  (* join suffstat fits computed from the data *)
  counts : Selest_prob.Counts.t option;  (* shared count kernel for join fits *)
  (* current structure: chosen family per attribute and per join indicator *)
  attr_fams : fam array array;
  join_fams : fam array array;
  mutable size : int;
}

let parent_local st ti p = Model.Scope.local_id st.scopes.(ti) p

let sort_parents st ti parents =
  let ps = Array.copy parents in
  Array.sort (fun a b -> compare (parent_local st ti a) (parent_local st ti b)) ps;
  ps

let attr_family ?max_params st ti attr parents =
  let sorted = sort_parents st ti parents in
  let local = Array.map (parent_local st ti) sorted in
  let f = Score.family ?max_params st.caches.(ti) ~child:attr ~parents:local in
  {
    f_parents = sorted;
    f_loglik = f.Score.loglik;
    f_bytes = f.Score.bytes;
    f_params = f.Score.params;
    f_cpd = f.Score.cpd;
  }

(* Cap-constrained refit for a cached move whose base fit busts the
   current headroom; [parents] must already be sorted by local id. *)
let attr_family_capped st ti attr parents ~cap =
  let local = Array.map (parent_local st ti) parents in
  let f = Score.family_capped st.caches.(ti) ~child:attr ~parents:local ~cap in
  {
    f_parents = parents;
    f_loglik = f.Score.loglik;
    f_bytes = f.Score.bytes;
    f_params = f.Score.params;
    f_cpd = f.Score.cpd;
  }

let join_family st ti fk parents =
  let sorted = sort_parents st ti parents in
  let key = (ti, fk, Array.to_list sorted) in
  let js =
    match Hashtbl.find_opt st.join_cache key with
    | Some js ->
      incr st.join_hits;
      js
    | None ->
      incr st.join_misses;
      let js =
        Suffstats.fit_join ?counts:st.counts st.db ~table:ti ~fk ~parents:sorted
      in
      Hashtbl.add st.join_cache key js;
      js
  in
  {
    f_parents = sorted;
    f_loglik = js.Suffstats.loglik;
    f_bytes = js.Suffstats.bytes;
    f_params = js.Suffstats.params;
    f_cpd = js.Suffstats.cpd;
  }

let structure st =
  {
    Stratify.attr_parents = Array.map (Array.map (fun f -> f.f_parents)) st.attr_fams;
    join_parents = Array.map (Array.map (fun f -> f.f_parents)) st.join_fams;
  }

let total_bytes st =
  let acc = ref 0 in
  Array.iteri
    (fun ti per_attr ->
      Array.iter (fun f -> acc := !acc + f.f_bytes) per_attr;
      Array.iter (fun f -> acc := !acc + f.f_bytes) st.join_fams.(ti);
      acc :=
        !acc + Bytesize.values (Array.length per_attr + Array.length st.join_fams.(ti)))
    st.attr_fams;
  !acc

let total_loglik st =
  let acc = ref 0.0 in
  Array.iteri
    (fun ti per_attr ->
      Array.iter (fun f -> acc := !acc +. f.f_loglik) per_attr;
      Array.iter (fun f -> acc := !acc +. f.f_loglik) st.join_fams.(ti))
    st.attr_fams;
  !acc

(* ---- moves ------------------------------------------------------------- *)

type move =
  | Attr_add of int * int * Model.parent
  | Attr_remove of int * int * Model.parent
  | Join_add of int * int * Model.parent
  | Join_remove of int * int * Model.parent

let has_parent parents p = Array.exists (fun q -> q = p) parents

let with_parent parents p = Array.append parents [| p |]

let without_parent parents p =
  Array.of_list (List.filter (fun q -> q <> p) (Array.to_list parents))

(* Structure legality with one family's parents swapped out — the naive
   reference check: copies the whole structure and revalidates it from
   scratch.  The incremental climber answers the same question through
   {!Depgraph}. *)
let legal_with st ~kind ~ti ~idx ~parents =
  let s = structure st in
  (match kind with
  | `Attr -> s.Stratify.attr_parents.(ti).(idx) <- parents
  | `Join -> s.Stratify.join_parents.(ti).(idx) <- parents);
  Stratify.is_legal st.schema s

(* The potential add-parents of an attribute, in enumeration order: own
   attributes first, then the targets of each foreign key.  Static over
   the whole search. *)
let potential_attr_parents st ti a =
  let ts = (Schema.tables st.schema).(ti) in
  let n_attrs = Array.length ts.Schema.attrs in
  let own = List.init n_attrs (fun b -> Model.Own b) in
  let own = List.filter (fun p -> p <> Model.Own a) own in
  let cross =
    if not st.cfg.allow_cross_table then []
    else
      List.concat
        (List.mapi
           (fun f fk ->
             let target = Schema.find_table st.schema fk.Schema.target in
             List.init (Array.length target.Schema.attrs) (fun b ->
                 Model.Foreign (f, b)))
           (Array.to_list ts.Schema.fks))
  in
  own @ cross

(* Same for a join indicator: own attributes, then the fk's target. *)
let potential_join_parents st ti fk =
  let ts = (Schema.tables st.schema).(ti) in
  let target = Schema.find_table st.schema ts.Schema.fks.(fk).Schema.target in
  List.init (Array.length ts.Schema.attrs) (fun a -> Model.Own a)
  @ List.init (Array.length target.Schema.attrs) (fun b -> Model.Foreign (fk, b))

(* Candidate moves that respect parent bounds and structure legality.
   [add_legal] decides legality of a prospective add; the returned list's
   order is part of the search contract (best-move ties keep the earliest
   scored move), so the incremental generator reproduces it exactly. *)
let candidate_moves_with st ~attr_add_legal ~join_add_legal =
  let cfg = st.cfg in
  let tables = Schema.tables st.schema in
  let out = ref [] in
  Array.iteri
    (fun ti ts ->
      let n_attrs = Array.length ts.Schema.attrs in
      for a = 0 to n_attrs - 1 do
        let current = st.attr_fams.(ti).(a).f_parents in
        Array.iter (fun p -> out := Attr_remove (ti, a, p) :: !out) current;
        if Array.length current < cfg.max_parents then
          List.iter
            (fun p ->
              if (not (has_parent current p)) && attr_add_legal ~ti ~a ~current p
              then out := Attr_add (ti, a, p) :: !out)
            (potential_attr_parents st ti a)
      done;
      if cfg.allow_join_parents then
        Array.iteri
          (fun fk _ ->
            let current = st.join_fams.(ti).(fk).f_parents in
            Array.iter (fun p -> out := Join_remove (ti, fk, p) :: !out) current;
            if Array.length current < cfg.max_parents then
              List.iter
                (fun p ->
                  if (not (has_parent current p)) && join_add_legal ~ti ~fk ~current p
                  then out := Join_add (ti, fk, p) :: !out)
                (potential_join_parents st ti fk))
          ts.Schema.fks)
    tables;
  !out

let candidate_moves st =
  candidate_moves_with st
    ~attr_add_legal:(fun ~ti ~a ~current p ->
      legal_with st ~kind:`Attr ~ti ~idx:a ~parents:(with_parent current p))
    ~join_add_legal:(fun ~ti ~fk ~current p ->
      legal_with st ~kind:`Join ~ti ~idx:fk ~parents:(with_parent current p))

(* Size guard for dense families: their size is known without fitting. *)
let dense_family_bytes st ti ~child_card parents =
  let configs =
    Array.fold_left
      (fun acc p ->
        let c = Model.Scope.card st.scopes.(ti) (parent_local st ti p) in
        if acc > (max_int / 8) / c then max_int / 8 else acc * c)
      1 parents
  in
  Bytesize.params (configs * (child_card - 1)) + Bytesize.values (Array.length parents)

let finish st ~old_f ~new_f =
  let dbytes = new_f.f_bytes - old_f.f_bytes in
  if st.size + dbytes > st.cfg.budget_bytes then None
  else Some (new_f, new_f.f_loglik -. old_f.f_loglik, dbytes, new_f.f_params - old_f.f_params)

(* Evaluate: the replacement family and its deltas; None if infeasible. *)
let evaluate st move =
  match move with
  | Attr_add (ti, a, p) | Attr_remove (ti, a, p) ->
    let old_f = st.attr_fams.(ti).(a) in
    let proposed =
      match move with
      | Attr_add _ -> with_parent old_f.f_parents p
      | _ -> without_parent old_f.f_parents p
    in
    let child_card = Model.Scope.card st.scopes.(ti) a in
    let headroom =
      st.cfg.budget_bytes - st.size + old_f.f_bytes
      - Bytesize.values (Array.length proposed)
    in
    let max_params = headroom / Bytesize.per_param in
    if max_params < 1 then None
    else begin
      let upper_ok =
        match st.cfg.kind with
        | Cpd.Tables ->
          st.size - old_f.f_bytes + dense_family_bytes st ti ~child_card proposed
          <= st.cfg.budget_bytes
        | Cpd.Trees -> true
      in
      if not upper_ok then None
      else finish st ~old_f ~new_f:(attr_family ~max_params st ti a proposed)
    end
  | Join_add (ti, fk, p) | Join_remove (ti, fk, p) ->
    let old_f = st.join_fams.(ti).(fk) in
    let proposed =
      match move with
      | Join_add _ -> with_parent old_f.f_parents p
      | _ -> without_parent old_f.f_parents p
    in
    (* Join CPDs are always dense over their parents: guard size first. *)
    if
      st.size - old_f.f_bytes + dense_family_bytes st ti ~child_card:2 proposed
      > st.cfg.budget_bytes
    then None
    else finish st ~old_f ~new_f:(join_family st ti fk proposed)

let criterion cfg ~mdl_penalty (dscore, dbytes, dparams) =
  match cfg.rule with
  | Naive -> dscore
  | Ssn ->
    if dbytes > 0 then dscore /. float_of_int dbytes
    else if dscore > 0.0 then Float.infinity
    else dscore
  | Mdl -> dscore -. (mdl_penalty *. float_of_int dparams)

let eps = 1e-6

let accept st move new_f dbytes =
  (match move with
  | Attr_add (ti, a, _) | Attr_remove (ti, a, _) -> st.attr_fams.(ti).(a) <- new_f
  | Join_add (ti, fk, _) | Join_remove (ti, fk, _) -> st.join_fams.(ti).(fk) <- new_f);
  st.size <- st.size + dbytes

(* Score every candidate move, in move order. *)
let score_moves st moves = List.map (fun move -> (move, evaluate st move)) moves

let describe_parent = function
  | Model.Own a -> Printf.sprintf "own%d" a
  | Model.Foreign (f, b) -> Printf.sprintf "fk%d.%d" f b

let describe_move = function
  | Attr_add (ti, a, p) -> Printf.sprintf "attr_add:%d.%d<-%s" ti a (describe_parent p)
  | Attr_remove (ti, a, p) ->
    Printf.sprintf "attr_remove:%d.%d<-%s" ti a (describe_parent p)
  | Join_add (ti, fk, p) -> Printf.sprintf "join_add:%d.%d<-%s" ti fk (describe_parent p)
  | Join_remove (ti, fk, p) ->
    Printf.sprintf "join_remove:%d.%d<-%s" ti fk (describe_parent p)

(* ---- incremental scorer ------------------------------------------------ *)

(* The delta move cache.  One entry per candidate move of a family,
   keeping everything about the move that does not depend on the global
   model size: the proposed (sorted) parent set, the dense-size upper
   bound, and — once fitted — the unconstrained base family.  Per
   iteration only the budget arithmetic is redone; the family is refit
   solely when tree CPDs must honour a cap the base fit busts (exactly
   when the naive climber would refit, so the trajectory is unchanged).
   Entries die when their family changes: an accepted move resets that
   family's table and nothing else. *)
type centry = {
  ce_proposed : Model.parent array;  (* sorted by local id *)
  ce_dense : int;  (* dense_family_bytes of the proposed family *)
  mutable ce_base : fam option;  (* unconstrained fit, filled on demand *)
}

type incr = {
  dep : Depgraph.t;
  attr_mc : (Model.parent * bool, centry) Hashtbl.t array array;
  join_mc : (Model.parent * bool, centry) Hashtbl.t array array;
}

let make_incr st =
  let dep = Depgraph.create st.schema in
  Depgraph.reset dep (structure st);
  {
    dep;
    attr_mc =
      Array.map (fun per -> Array.map (fun _ -> Hashtbl.create 16) per) st.attr_fams;
    join_mc =
      Array.map (fun per -> Array.map (fun _ -> Hashtbl.create 16) per) st.join_fams;
  }

(* A move is answered from its cache entry when the entry already holds
   a fit that fits the budget; otherwise it needs a fit, whose fresh base
   fit the scorer stores in the entry.  Moves are scored in move order,
   so the trajectory matches the naive scorer. *)
type staged =
  | Ready of (fam * float * int * int) option
  | Fit of centry * fam * (unit -> fam option * fam)

let attr_entry incr st ti a p ~is_add =
  let mc = incr.attr_mc.(ti).(a) in
  match Hashtbl.find_opt mc (p, is_add) with
  | Some e -> e
  | None ->
    let old_f = st.attr_fams.(ti).(a) in
    let proposed =
      if is_add then with_parent old_f.f_parents p else without_parent old_f.f_parents p
    in
    let proposed = sort_parents st ti proposed in
    let child_card = Model.Scope.card st.scopes.(ti) a in
    let e =
      {
        ce_proposed = proposed;
        ce_dense = dense_family_bytes st ti ~child_card proposed;
        ce_base = None;
      }
    in
    Hashtbl.add mc (p, is_add) e;
    e

let join_entry incr st ti fk p ~is_add =
  let mc = incr.join_mc.(ti).(fk) in
  match Hashtbl.find_opt mc (p, is_add) with
  | Some e -> e
  | None ->
    let old_f = st.join_fams.(ti).(fk) in
    let proposed =
      if is_add then with_parent old_f.f_parents p else without_parent old_f.f_parents p
    in
    let proposed = sort_parents st ti proposed in
    let e =
      {
        ce_proposed = proposed;
        ce_dense = dense_family_bytes st ti ~child_card:2 proposed;
        ce_base = None;
      }
    in
    Hashtbl.add mc (p, is_add) e;
    e

let stage_move incr st move =
  match move with
  | Attr_add (ti, a, p) | Attr_remove (ti, a, p) ->
    let is_add = match move with Attr_add _ -> true | _ -> false in
    let old_f = st.attr_fams.(ti).(a) in
    let e = attr_entry incr st ti a p ~is_add in
    let headroom =
      st.cfg.budget_bytes - st.size + old_f.f_bytes
      - Bytesize.values (Array.length e.ce_proposed)
    in
    let max_params = headroom / Bytesize.per_param in
    if max_params < 1 then Ready None
    else if
      st.cfg.kind = Cpd.Tables
      && st.size - old_f.f_bytes + e.ce_dense > st.cfg.budget_bytes
    then Ready None
    else begin
      match e.ce_base with
      | Some base when st.cfg.kind = Cpd.Tables || base.f_params <= max_params ->
        Ready (finish st ~old_f ~new_f:base)
      | Some _ ->
        Fit
          ( e,
            old_f,
            fun () -> (None, attr_family_capped st ti a e.ce_proposed ~cap:max_params) )
      | None ->
        Fit
          ( e,
            old_f,
            fun () ->
              let base = attr_family st ti a e.ce_proposed in
              let new_f =
                if st.cfg.kind = Cpd.Trees && base.f_params > max_params then
                  attr_family_capped st ti a e.ce_proposed ~cap:max_params
                else base
              in
              (Some base, new_f) )
    end
  | Join_add (ti, fk, p) | Join_remove (ti, fk, p) ->
    let is_add = match move with Join_add _ -> true | _ -> false in
    let old_f = st.join_fams.(ti).(fk) in
    let e = join_entry incr st ti fk p ~is_add in
    if st.size - old_f.f_bytes + e.ce_dense > st.cfg.budget_bytes then Ready None
    else begin
      match e.ce_base with
      | Some base -> Ready (finish st ~old_f ~new_f:base)
      | None ->
        Fit
          ( e,
            old_f,
            fun () ->
              let f = join_family st ti fk e.ce_proposed in
              (Some f, f) )
    end

let incr_score incr st =
  let moves =
    candidate_moves_with st
      ~attr_add_legal:(fun ~ti ~a ~current:_ p -> Depgraph.attr_add_legal incr.dep ~ti ~a p)
      ~join_add_legal:(fun ~ti ~fk ~current:_ p ->
        Depgraph.join_add_legal incr.dep ~ti ~fk p)
  in
  List.map
    (fun move ->
      match stage_move incr st move with
      | Ready ev -> (move, ev)
      | Fit (e, old_f, fit) ->
        let base_opt, new_f = fit () in
        (match base_opt with
        | Some base when e.ce_base = None -> e.ce_base <- Some base
        | _ -> ());
        (move, finish st ~old_f ~new_f))
    moves

let incr_accept incr st move new_f dbytes =
  accept st move new_f dbytes;
  match move with
  | Attr_add (ti, a, p) ->
    Hashtbl.reset incr.attr_mc.(ti).(a);
    Depgraph.add_attr_parent incr.dep ~ti ~a p
  | Attr_remove (ti, a, p) ->
    Hashtbl.reset incr.attr_mc.(ti).(a);
    Depgraph.remove_attr_parent incr.dep ~ti ~a p
  | Join_add (ti, fk, p) ->
    Hashtbl.reset incr.join_mc.(ti).(fk);
    Depgraph.add_join_parent incr.dep ~ti ~fk p
  | Join_remove (ti, fk, p) ->
    Hashtbl.reset incr.join_mc.(ti).(fk);
    Depgraph.remove_join_parent incr.dep ~ti ~fk p

(* After a snapshot restore every family may have changed at once: drop
   all move-cache entries and rebuild the legality oracle from the
   restored structure. *)
let incr_restore incr st =
  Array.iter (Array.iter Hashtbl.reset) incr.attr_mc;
  Array.iter (Array.iter Hashtbl.reset) incr.join_mc;
  Depgraph.reset incr.dep (structure st)

(* ---- search driver ----------------------------------------------------- *)

(* One interface for both climbers: the naive scorer re-enumerates and
   re-evaluates everything (the reference trajectory oracle), the
   incremental one answers from its caches.  Everything downstream of
   [sc_score] — the best-move fold, acceptance, restarts, snapshots — is
   shared, so the two can only differ through the scored lists
   themselves. *)
type scorer = {
  sc_score : unit -> (move * (fam * float * int * int) option) list;
  sc_accept : move -> fam -> int -> unit;
  sc_restore : unit -> unit;  (* run after a snapshot restore *)
}

let naive_scorer st =
  {
    sc_score = (fun () -> score_moves st (candidate_moves st));
    sc_accept = accept st;
    sc_restore = ignore;
  }

let incr_scorer st =
  let incr = make_incr st in
  {
    sc_score = (fun () -> incr_score incr st);
    sc_accept = incr_accept incr st;
    sc_restore = (fun () -> incr_restore incr st);
  }

let climb st sc ~mdl_penalty trail =
  let taken = ref 0 in
  let continue = ref true in
  while !continue do
    Selest_obs.Span.with_ "learn.iter" (fun sp ->
        let scored = sc.sc_score () in
        let best = ref None in
        List.iter
          (fun (move, evaluation) ->
            match evaluation with
            | None -> ()
            | Some (new_f, dscore, dbytes, dparams) ->
              let value = criterion st.cfg ~mdl_penalty (dscore, dbytes, dparams) in
              if value > eps then begin
                match !best with
                | Some (v0, ds0, _, _, _) when v0 > value || (v0 = value && ds0 >= dscore) -> ()
                | _ -> best := Some (value, dscore, dbytes, new_f, move)
              end)
          scored;
        (match !best with
        | None -> continue := false
        | Some (_, _, dbytes, new_f, move) ->
          sc.sc_accept move new_f dbytes;
          trail := describe_move move :: !trail;
          incr taken;
          if Selest_obs.Span.enabled () then
            Selest_obs.Span.add sp "accepted" (describe_move move));
        if Selest_obs.Span.enabled () then begin
          Selest_obs.Span.add sp "moves_scored"
            (string_of_int (List.length scored));
          Selest_obs.Span.add sp "budget_used" (string_of_int st.size);
          Selest_obs.Span.add sp "suffstat_hits" (string_of_int !(st.join_hits));
          Selest_obs.Span.add sp "suffstat_misses"
            (string_of_int !(st.join_misses))
        end)
  done;
  !taken

let random_walk st sc rng trail =
  for _ = 1 to st.cfg.random_walk_length do
    let feasible =
      List.filter_map
        (fun (move, evaluation) ->
          match evaluation with
          | Some (new_f, _, dbytes, _) -> Some (move, new_f, dbytes)
          | None -> None)
        (sc.sc_score ())
    in
    if feasible <> [] then begin
      let move, new_f, dbytes = List.nth feasible (Rng.int rng (List.length feasible)) in
      sc.sc_accept move new_f dbytes;
      trail := describe_move move :: !trail
    end
  done

let snapshot st =
  (Array.map Array.copy st.attr_fams, Array.map Array.copy st.join_fams, st.size)

let restore st (af, jf, size) =
  Array.iteri (fun ti per -> Array.iteri (fun a f -> st.attr_fams.(ti).(a) <- f) per) af;
  Array.iteri (fun ti per -> Array.iteri (fun fk f -> st.join_fams.(ti).(fk) <- f) per) jf;
  st.size <- size

let to_model st =
  let tables =
    Array.mapi
      (fun ti per_attr ->
        let attr_families =
          Array.map (fun f -> { Model.parents = f.f_parents; cpd = f.f_cpd }) per_attr
        in
        let join_families =
          Array.map
            (fun f -> { Model.parents = f.f_parents; cpd = f.f_cpd })
            st.join_fams.(ti)
        in
        { Model.attr_families; join_families })
      st.attr_fams
  in
  Model.create st.schema tables

let learn_with ~make_scorer ~counts ~config:cfg db =
  let schema = Database.schema db in
  let n_tables = Schema.n_tables schema in
  let scopes = Array.init n_tables (fun ti -> Model.Scope.of_table schema ti) in
  let ext_data = Array.init n_tables (fun ti -> Suffstats.extended_data db ti) in
  (* Extended-data fits register in the shared kernel under table ids
     disjoint from the raw schema ids the join statistics use. *)
  let caches =
    Array.mapi
      (fun ti d ->
        let counts = Option.map (fun k -> (k, n_tables + ti)) counts in
        Score.create_cache ~kind:cfg.kind ?counts d)
      ext_data
  in
  let st =
    {
      cfg;
      db;
      schema;
      scopes;
      ext_data;
      caches;
      join_cache = Hashtbl.create 64;
      join_hits = ref 0;
      join_misses = ref 0;
      counts;
      attr_fams = [||];
      join_fams = [||];
      size = 0;
    }
  in
  let st =
    {
      st with
      attr_fams =
        Array.mapi
          (fun ti ts ->
            Array.init (Array.length ts.Schema.attrs) (fun a ->
                attr_family st ti a [||]))
          (Schema.tables schema);
      join_fams =
        Array.mapi
          (fun ti ts ->
            Array.init (Array.length ts.Schema.fks) (fun fk ->
                join_family st ti fk [||]))
          (Schema.tables schema);
    }
  in
  st.size <- total_bytes st;
  if st.size > cfg.budget_bytes then
    invalid_arg
      (Printf.sprintf
         "Prm.Learn: budget %dB cannot hold the empty model (%dB of marginals)"
         cfg.budget_bytes st.size);
  (* MDL penalty: dominated by the largest sample space in the model. *)
  let max_weight =
    Array.fold_left (fun acc d -> Float.max acc (Data.total_weight d)) 2.0 ext_data
  in
  let mdl_penalty = Arrayx.log2 max_weight /. 2.0 in
  let sc = make_scorer st in
  let rng = Rng.create cfg.seed in
  let iterations = ref 0 in
  let trail = ref [] in
  let best =
    Selest_obs.Span.with_
      ~attrs:[ ("budget_bytes", string_of_int cfg.budget_bytes) ]
      "prm.learn"
      (fun sp ->
        iterations := climb st sc ~mdl_penalty trail;
        let best = ref (snapshot st, total_loglik st) in
        for _ = 1 to cfg.random_restarts do
          random_walk st sc rng trail;
          iterations := !iterations + climb st sc ~mdl_penalty trail;
          let ll = total_loglik st in
          if ll > snd !best then best := (snapshot st, ll)
        done;
        if Selest_obs.Span.enabled () then begin
          Selest_obs.Span.add sp "iterations" (string_of_int !iterations);
          Selest_obs.Span.add sp "bytes" (string_of_int st.size)
        end;
        !best)
  in
  let best = ref best in
  restore st (fst !best);
  sc.sc_restore ();
  let model = to_model st in
  Log.info (fun m ->
      m "learned PRM: %dB of %dB budget, %d cross edges, %d join parents, %d moves"
        st.size cfg.budget_bytes (Model.n_cross_edges model)
        (Model.n_join_parents model) !iterations);
  {
    model;
    loglik = snd !best;
    bytes = st.size;
    iterations = !iterations;
    family_evaluations =
      Array.fold_left (fun acc c -> acc + Score.n_evaluations c) !(st.join_misses) caches;
    trajectory = List.rev !trail;
  }

let learn ~config db =
  learn_with ~make_scorer:incr_scorer
    ~counts:(Some (Selest_prob.Counts.create ()))
    ~config db

let learn_reference ~config db =
  learn_with ~make_scorer:naive_scorer ~counts:None ~config db

let learn_prm ?(budget_bytes = 8192) ?(seed = 0) db =
  let cfg = { (default_config ~budget_bytes) with seed } in
  (learn ~config:cfg db).model
