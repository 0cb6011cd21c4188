open Selest_util
open Selest_prob

type family = { loglik : float; params : int; bytes : int; cpd : Cpd.t }

type cache = {
  kind : Cpd.kind;
  data : Data.t;
  counts : (Counts.t * int) option;
      (* count-once kernel + the table id this data registers under; None =
         fit by direct row scans (the reference cost model) *)
  table : (int * int list * int option, family) Hashtbl.t;
  mutex : Mutex.t;
  mutable evaluations : int;
}

let create_cache ~kind ?counts data =
  (* The kernel path is only bit-identical on unweighted data (exact
     integer counts); weighted data silently keeps the scan path. *)
  let counts = if data.Data.weights = None then counts else None in
  { kind; data; counts; table = Hashtbl.create 256; mutex = Mutex.create (); evaluations = 0 }

let family_bytes ~params ~n_parents = Bytesize.params params + Bytesize.values n_parents

let compute cache ~child ~parents ~max_params =
  match cache.kind with
  | Cpd.Tables ->
    let cpd =
      match cache.counts with
      | Some (kernel, table) -> Table_cpd.fit_counted kernel ~table cache.data ~child ~parents
      | None -> Table_cpd.fit cache.data ~child ~parents
    in
    (* For ML table CPDs the data log-likelihood equals -N·H(child|parents),
       but computing it from the fitted table in one scan is just as fast
       and shares the code path with trees. *)
    let loglik =
      match cache.counts with
      | Some _ -> Table_cpd.loglik_tabulated cpd cache.data ~child
      | None -> Table_cpd.loglik cpd cache.data ~child
    in
    let params = Table_cpd.n_params cpd in
    {
      loglik;
      params;
      bytes = family_bytes ~params ~n_parents:(Array.length parents);
      cpd = Cpd.Table cpd;
    }
  | Cpd.Trees ->
    let cpd =
      match cache.counts with
      | Some (kernel, table) ->
        Tree_cpd.fit_counted kernel ~table cache.data ~child ~parents
          ?param_budget:max_params ()
      | None -> Tree_cpd.fit cache.data ~child ~parents ?param_budget:max_params ()
    in
    let loglik =
      match cache.counts with
      | Some _ -> Tree_cpd.loglik_tabulated cpd cache.data ~child
      | None -> Tree_cpd.loglik cpd cache.data ~child
    in
    let params = Tree_cpd.n_params cpd in
    {
      loglik;
      params;
      bytes = family_bytes ~params ~n_parents:(Array.length parents);
      cpd = Cpd.Tree cpd;
    }

(* Cache accessors are mutex-protected so structure search can score
   candidate moves from several domains at once.  Fits run outside the
   lock (they are the expensive part and touch only immutable data); on a
   racing double-compute the first entry wins, so every caller sees one
   canonical family per key.  The evaluation counter counts insertions —
   identical to compute calls under sequential use. *)
let cache_find cache key =
  Mutex.lock cache.mutex;
  let r = Hashtbl.find_opt cache.table key in
  Mutex.unlock cache.mutex;
  r

let cache_add cache key f =
  Mutex.lock cache.mutex;
  let r =
    match Hashtbl.find_opt cache.table key with
    | Some existing -> existing
    | None ->
      cache.evaluations <- cache.evaluations + 1;
      Hashtbl.add cache.table key f;
      f
  in
  Mutex.unlock cache.mutex;
  r

let family ?max_params cache ~child ~parents =
  (* The unconstrained fit is tried (and cached) first; a parameter cap
     only produces a distinct entry when the natural tree exceeds it, so a
     search under a tight budget still reuses most fits. *)
  let base_key = (child, Array.to_list parents, None) in
  let base =
    match cache_find cache base_key with
    | Some f -> f
    | None -> cache_add cache base_key (compute cache ~child ~parents ~max_params:None)
  in
  match max_params with
  | None -> base
  | Some cap when base.params <= cap || cache.kind = Cpd.Tables -> base
  | Some cap -> (
    let key = (child, Array.to_list parents, Some cap) in
    match cache_find cache key with
    | Some f -> f
    | None -> cache_add cache key (compute cache ~child ~parents ~max_params:(Some cap)))

(* For callers that already hold the unconstrained fit and know it busts
   the cap (the incremental climbers cache base fits across iterations and
   only re-derive the capped variant): skip the base-entry probe that
   [family] repeats on every lookup.  Produces exactly the entry
   [family ~max_params:cap] would for a tree whose natural fit exceeds
   [cap], insertion-counting included. *)
let family_capped cache ~child ~parents ~cap =
  let key = (child, Array.to_list parents, Some cap) in
  match cache_find cache key with
  | Some f -> f
  | None -> cache_add cache key (compute cache ~child ~parents ~max_params:(Some cap))

let mutual_information data xs ys =
  let all = Array.of_list (List.sort_uniq compare (Array.to_list xs @ Array.to_list ys)) in
  let joint = Data.contingency data all in
  let pos v =
    let rec loop i = if all.(i) = v then i else loop (i + 1) in
    loop 0
  in
  let positions group =
    let p = Array.map pos group in
    Array.sort compare p;
    p
  in
  Info.mutual_information joint (positions xs) (positions ys)

let n_evaluations cache = cache.evaluations
